"""Batch command-line front end.

Subcommands: constants, thresholds, crossover, eval, dist, expand,
sweep-grid.  The handlers only format what the library computes.  Reports
are deterministic for a fixed configuration: floats are rendered by shortest
round-trip repr (at most 17 significant digits), CSV uses '\\n' line endings,
and JSON keys are sorted.  Every output embeds a provenance header (toolkit
version, ambient, tolerances) together with a note that reported quotients
are empirical values and upper bounds only.

Exit codes: 0 on success; 2 on validation errors (bad parameters, including
an invalid sweep-grid value, malformed or mis-shaped input JSON, unsupported
geometry, an unwritable --out path), with nothing written to stdout; 3 on
quadrature non-convergence, in which case the document written holds the
provenance, marked ``certified: false``, the error message and the failed
integral's best estimate (sweep-grid writes its other rows and marks the
failed ones).
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from typing import TYPE_CHECKING, Any, Sequence

from . import __version__
from .constants import Ambient, sharp_constants
from .errors import GeometryError, ParameterError, QuadratureNonConvergence
from .thresholds import ThresholdReport, compare, crossover_scan

# The numerical modules load numpy, so the handlers that need them import
# them in their bodies and the closed-form subcommands start without it.
if TYPE_CHECKING:
    from .bubbles import BubbleParam, Superposition
    from .expansion import ExpansionReport
    from .functional import FunctionalReport
    from .quadrature import QuadratureConfig

__all__ = ["main"]

_PROVENANCE_NOTE = (
    "reported quotients and thresholds are empirical values / upper bounds; "
    "no attainment or global optimality is claimed"
)


# ---------------------------------------------------------------------------
# formatting helpers


def _fmt(x: Any) -> str:
    """CSV cell: shortest round-trip decimal for floats, empty for None; text
    holding a comma, a quote or a line break is quoted as RFC 4180 asks, with
    its quotes doubled."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return repr(x)
    text = str(x)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _provenance(
    amb: Ambient | None,
    cfg: QuadratureConfig | None,
    certified: bool = True,
) -> dict[str, Any]:
    prov: dict[str, Any] = {
        "toolkit": "sobstab",
        "version": __version__,
        "note": _PROVENANCE_NOTE,
        "certified": certified,
    }
    if amb is not None:
        prov["ambient"] = {"d": amb.d, "s": amb.s}
    if cfg is not None:
        prov["tolerances"] = {"rel_tol": cfg.rel_tol, "abs_tol": cfg.abs_tol}
    return prov


def _prov_comments(prov: dict[str, Any]) -> list[str]:
    lines = [
        f"# toolkit: sobstab {prov['version']}",
        f"# certified: {'true' if prov['certified'] else 'false'}",
    ]
    if "ambient" in prov:
        a = prov["ambient"]
        lines.append(f"# ambient: d={a['d']} s={_fmt(float(a['s']))}")
    if "tolerances" in prov:
        t = prov["tolerances"]
        lines.append(
            f"# tolerances: rel_tol={_fmt(t['rel_tol'])} abs_tol={_fmt(t['abs_tol'])}"
        )
    lines.append(f"# note: {prov['note']}")
    return lines


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParameterError(f"cannot write {out}: {exc}") from exc


def _json_doc(payload: dict[str, Any]) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _csv_doc(prov: dict[str, Any], header: str, rows: list[list[Any]]) -> str:
    lines = _prov_comments(prov)
    lines.append(header)
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


def _emit_nonconvergence(
    exc: QuadratureNonConvergence, amb: Ambient, cfg: QuadratureConfig,
    out: str | None,
) -> int:
    """Write the uncertified error document of a failed quadrature, with
    the failed integral's best estimate; exit 3."""
    doc = {
        "provenance": _provenance(amb, cfg, certified=False),
        "error": f"{type(exc).__name__}: {exc}",
    }
    if exc.best is not None:
        note = "value is the raw integral that failed, not the norm"
        doc["best"] = dict(vars(exc.best), certified=False, note=note)
    _emit(_json_doc(doc), out)
    return 3


def _bubble_dict(b: BubbleParam) -> dict[str, Any]:
    return {"coeff": b.coeff, "center": list(b.center), "lambda": b.scale}


def _parse_float_list(text: str, flag: str) -> tuple[float, ...]:
    try:
        values = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ParameterError(f"{flag}: could not parse '{text}' as floats") from exc
    if not values:
        raise ParameterError(f"{flag}: empty list")
    return values


def _load_superposition(path: str) -> Superposition:
    from .bubbles import superposition_from_dict

    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParameterError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParameterError(f"malformed JSON in {path}: {exc}") from exc
    return superposition_from_dict(doc)


def _quad_config(args: argparse.Namespace) -> QuadratureConfig:
    """The quadrature config of the tolerance flags given; the others keep
    QuadratureConfig's defaults."""
    from .quadrature import QuadratureConfig

    given = {"rel_tol": args.rel_tol, "abs_tol": args.abs_tol}
    return QuadratureConfig(**{k: v for k, v in given.items() if v is not None})


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_constants(args: argparse.Namespace) -> int:
    amb = Ambient(args.d, args.s)
    cst = sharp_constants(amb)
    payload = {
        "provenance": _provenance(amb, None),
        "d": amb.d,
        "s": amb.s,
        "two_star": amb.two_star,
        "c_d": cst.c_d,
        "A_ds": cst.A_ds,
        "S_d": cst.S_d,
        "c0": cst.c0,
        "a_d": cst.a_d,
        "b_d": cst.b_d,
    }
    _emit(_json_doc(payload), args.out)
    return 0


def _threshold_payload(rep: ThresholdReport) -> dict[str, Any]:
    return {
        "d": rep.ambient.d,
        "s": rep.ambient.s,
        "c_spec": rep.c_spec,
        "c_two_peak": rep.c_two_peak,
        "binding": rep.binding.value,
        "upper_bound_on_cBE": rep.upper_bound_on_cBE,
        "d1_caveat": rep.d1_caveat,
    }


def _cmd_thresholds(args: argparse.Namespace) -> int:
    amb = Ambient(args.d, args.s)
    payload = _threshold_payload(compare(amb))
    payload["provenance"] = _provenance(amb, None)
    _emit(_json_doc(payload), args.out)
    return 0


_CROSSOVER_COLUMNS = ("d", "s", "c_spec", "c_two_peak", "binding")


def _cmd_crossover(args: argparse.Namespace) -> int:
    scan = crossover_scan(args.s, args.d_min, args.d_max)
    prov = _provenance(None, None)
    reports = [_threshold_payload(r) for r in scan.reports]
    if args.format == "json":
        payload = {
            "provenance": prov,
            "s": scan.s,
            "exploratory": scan.exploratory,
            "crossover_d": scan.crossover_d,
            "reports": reports,
        }
        _emit(_json_doc(payload), args.out)
        return 0
    rows = [[r[col] for col in _CROSSOVER_COLUMNS] for r in reports]
    doc = _csv_doc(prov, ",".join(_CROSSOVER_COLUMNS), rows)
    extra = (
        f"# crossover_d: {scan.crossover_d}\n"
        f"# exploratory: {'true' if scan.exploratory else 'false'}\n"
    )
    _emit(doc + extra, args.out)
    return 0


def _report_payload(rep: FunctionalReport) -> dict[str, Any]:
    """The eval payload: every field of the functional report."""
    return {
        "hs_norm_sq": rep.hs_norm_sq,
        "lp_norm": rep.lp_norm,
        "m": {
            "value": rep.m.value,
            "maximizer": _bubble_dict(rep.m.maximizer),
            "all_local_maxima": [
                {"bubble": _bubble_dict(b), "value": v}
                for b, v in rep.m.all_local_maxima
            ],
        },
        "dist_sq": rep.dist_sq,
        "sobolev_quotient": rep.sobolev_quotient,
        "be_quotient": rep.be_quotient,
    }


def _dist_payload(rep: FunctionalReport) -> dict[str, Any]:
    """The dist payload: the distance fields of the eval payload."""
    full = _report_payload(rep)
    return {
        "hs_norm_sq": full["hs_norm_sq"],
        "m": full["m"]["value"],
        "maximizer": full["m"]["maximizer"],
        "dist_sq": full["dist_sq"],
    }


def _cmd_report(args: argparse.Namespace) -> int:
    """eval and dist: the functional report of the config, or exit 3."""
    from .functional import functional_report

    u = _load_superposition(args.config)
    cfg = _quad_config(args)
    try:
        payload = args.payload(functional_report(u, cfg))
    except QuadratureNonConvergence as exc:
        return _emit_nonconvergence(exc, u.ambient, cfg, args.out)
    payload["provenance"] = _provenance(u.ambient, cfg)
    _emit(_json_doc(payload), args.out)
    return 0


# Output key of each ExpansionPoint field, in CSV column order.
_POINT_FIELDS = {
    "lambda": "lam",
    "hs_norm_sq": "hs_norm_sq",
    "lp_norm_sq_2star": "lp_norm_sq_2star",
    "m": "m_value",
    "mu_of_lambda": "mu_of_lambda",
    "dist_sq": "dist_sq",
    "be_value": "be_value",
}


def _fit_payload(report: ExpansionReport) -> dict[str, Any]:
    return {
        "fitted_exponent": report.fitted_exponent,
        "fitted_coefficient": report.fitted_coefficient,
        "predicted_exponent": report.predicted_exponent,
        "predicted_coefficient": report.predicted_coefficient,
        "residual_max": report.residual_max,
        "threshold": report.threshold,
        "mu_bound_constant": report.mu_bound_constant,
        "excluded": [
            {"lambda": lam, "reason": reason} for lam, reason in report.excluded
        ],
    }


def _cmd_expand(args: argparse.Namespace) -> int:
    from .expansion import sweep

    amb = Ambient(args.d, args.s)
    cfg = _quad_config(args)
    grid = None
    if args.lam_list is not None:
        grid = _parse_float_list(args.lam_list, "--lambda")
    try:
        report = sweep(amb, grid, cfg)
    except QuadratureNonConvergence as exc:
        return _emit_nonconvergence(exc, amb, cfg, args.out)
    prov = _provenance(amb, cfg)
    points = [
        {key: getattr(p, field) for key, field in _POINT_FIELDS.items()}
        for p in report.points
    ]
    fit = _fit_payload(report)
    if args.format == "json":
        _emit(_json_doc({"provenance": prov, "points": points, "fit": fit}), args.out)
        return 0
    rows = [list(p.values()) for p in points]
    csv_text = _csv_doc(prov, ",".join(_POINT_FIELDS), rows)
    fit_doc = _json_doc({"fit": fit})
    if args.out is None:
        # single stream: append the fit summary as comment lines
        fit_comments = "".join(f"# {line}\n" for line in fit_doc.rstrip().split("\n"))
        _emit(csv_text + fit_comments, None)
    else:
        _emit(csv_text, args.out)
        sys.stdout.write(fit_doc)
    return 0


_GRID_HEADER = (
    "c2,lambda,separation,status,hs_norm_sq,lp_norm,m,dist_sq,"
    "sobolev_quotient,be_value,below_threshold"
)


def _grid_row(
    cfg: QuadratureConfig, c2: float, lam: float, sep: float, u: Superposition,
    bound: float,
) -> list[Any]:
    """One sweep-grid row; a point whose quadrature fails carries the error
    as its status."""
    from .functional import functional_report

    try:
        rep = functional_report(u, cfg)
    except QuadratureNonConvergence as exc:
        return [c2, lam, sep, f"{type(exc).__name__}: {exc}"] + [None] * 7
    except ParameterError as exc:
        raise ParameterError(
            f"grid point c2={c2} lambda={lam} separation={sep}: {exc}"
        ) from exc
    be = rep.be_quotient
    return [
        c2, lam, sep, "ok", rep.hs_norm_sq, rep.lp_norm, rep.m.value,
        rep.dist_sq, rep.sobolev_quotient, be,
        be is not None and be < 0.95 * bound,
    ]


def _cmd_sweep_grid(args: argparse.Namespace) -> int:
    from .bubbles import BubbleParam, Superposition

    amb = Ambient(args.d, args.s)
    cfg = _quad_config(args)
    c2s = _parse_float_list(args.c2, "--c2")
    lams = _parse_float_list(args.lam_list, "--lambda")
    seps = _parse_float_list(args.separation, "--separation")
    for sep in seps:
        if not sep >= 0.0:
            raise ParameterError(f"--separation values must be >= 0, got {sep}")
    # Every point is built, and so validated, before any is evaluated.
    first = BubbleParam(1.0, (0.0,) * amb.d, 1.0)
    points = []
    for c2, lam, sep in itertools.product(c2s, lams, seps):
        try:
            second = BubbleParam(c2, (sep,) + (0.0,) * (amb.d - 1), lam)
        except ParameterError as exc:
            raise ParameterError(
                f"grid point c2={c2} lambda={lam} separation={sep}: {exc}"
            ) from exc
        points.append((c2, lam, sep, Superposition(amb, (first, second))))
    bound = compare(amb).upper_bound_on_cBE
    rows = [_grid_row(cfg, *point, bound) for point in points]
    failures = sum(row[3] != "ok" for row in rows)
    prov = _provenance(amb, cfg, certified=failures == 0)
    doc = _csv_doc(prov, _GRID_HEADER, rows)
    _emit(doc, args.out)
    if failures:
        sys.stderr.write(f"sweep-grid: {failures} grid point(s) failed\n")
        return 3
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_ambient(p: argparse.ArgumentParser) -> None:
    p.add_argument("--d", type=int, required=True, help="ambient dimension")
    p.add_argument("--s", type=float, required=True, help="smoothness order in (0, d/2)")


def _add_tolerances(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rel-tol", type=float, help="quadrature relative tolerance")
    p.add_argument("--abs-tol", type=float, help="quadrature absolute tolerance")


def _add_output(p: argparse.ArgumentParser, formats: tuple[str, ...] | None) -> None:
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    if formats:
        p.add_argument("--format", choices=formats, default=formats[0])


def _add_jobs(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--jobs", type=int, default=1,
        help="accepted for compatibility and ignored: points run in this process",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sobstab",
        description=(
            "Numerical toolkit for Sobolev stability quotients on bubble "
            "superpositions"
        ),
    )
    parser.add_argument("--version", action="version", version=f"sobstab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="sharp-constant closed forms")
    _add_ambient(p)
    _add_output(p, None)
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("thresholds", help="spectral vs two-peak thresholds")
    _add_ambient(p)
    _add_output(p, None)
    p.set_defaults(func=_cmd_thresholds)

    p = sub.add_parser("crossover", help="scan thresholds across dimensions")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--d-min", type=int, default=3)
    p.add_argument("--d-max", type=int, default=12)
    _add_output(p, ("csv", "json"))
    p.set_defaults(func=_cmd_crossover)

    p = sub.add_parser("eval", help="full functional report for a superposition")
    p.add_argument("--config", required=True, help="superposition JSON path")
    _add_tolerances(p)
    _add_output(p, None)
    p.set_defaults(func=_cmd_report, payload=_report_payload)

    p = sub.add_parser("dist", help="distance-to-manifold report")
    p.add_argument("--config", required=True, help="superposition JSON path")
    _add_tolerances(p)
    _add_output(p, None)
    p.set_defaults(func=_cmd_report, payload=_dist_payload)

    p = sub.add_parser("expand", help="two-bubble lambda sweep with deficit fit")
    _add_ambient(p)
    _add_tolerances(p)
    p.add_argument(
        "--lambda", dest="lam_list", default=None,
        help="comma-separated scale list (default: auto grid)",
    )
    _add_jobs(p)
    _add_output(p, ("csv", "json"))
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser(
        "sweep-grid", help="two-bubble (c2, lambda, separation) grid scan"
    )
    _add_ambient(p)
    _add_tolerances(p)
    p.add_argument("--c2", required=True, help="comma-separated second coefficients")
    p.add_argument(
        "--lambda", dest="lam_list", required=True,
        help="comma-separated second scales",
    )
    p.add_argument(
        "--separation", required=True,
        help="comma-separated center separations along the first axis",
    )
    _add_jobs(p)
    _add_output(p, ("csv",))
    p.set_defaults(func=_cmd_sweep_grid)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, GeometryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
