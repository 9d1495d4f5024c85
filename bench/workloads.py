"""The benchmark's workloads: seeded inputs, operations and output checks.

A workload builds one *round* of operations from its seed.  The runner times
the round's operations one at a time and repeats the same round for the
run's time, so every run attempts whole rounds.  After timing, the
workload checks every output against ``oracle`` (mpmath closed forms) and
against properties the mathematics guarantees, never against stored output.

Building the inputs never imports the oracle, so that the set-up probe (a
fresh interpreter importing sobstab and building the inputs) measures
sobstab's import and not mpmath's.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Relative agreement required of hs_norm_sq, measured on the scale of
# S_d sum |c_i c_j F(t_ij)|: ten times the default quadrature rel_tol, so a
# signed sum is not held to more than its terms can carry.
HS_TOL = 1e-9
# Slack for the inequalities m <= lp^2, hs >= S_d lp^2 and the grid lower
# bound on m, which compare two separately integrated quantities.
INEQ_TOL = 1e-8
# Constants are closed forms on both sides.
CONST_TOL = 1e-13


@dataclass
class Op:
    """One timed operation; ``run`` returns what the checks look at."""

    kind: str
    run: Callable[[], Any]
    info: dict = field(default_factory=dict)


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.rng = random.Random(seed)
        self.ops: list[Op] = []
        self.hs_rel_errs: list[float] = []
        self._hs_refs: dict[tuple, tuple] = {}

    def finish_round(self, outputs: list[Any]) -> Any:
        """Work done once per round after its operations (timed, not an op)."""
        return None

    def set_traced(self, traced: bool) -> None:
        """Switch tracing on or off for the operations that follow."""

    def check(self, outputs: list[Any], extra: Any) -> list[str | None]:
        """One entry per operation of one round: None when every check
        passed, else what failed."""
        raise NotImplementedError

    def _hs_check(self, hs: float, terms, d: int, s: float) -> str | None:
        import oracle

        key = (tuple((c, tuple(x), lam) for c, x, lam in terms), d, s)
        if key not in self._hs_refs:
            self._hs_refs[key] = oracle.hs_norm_sq(terms, d, s)
        ref, scale = self._hs_refs[key]
        self.hs_rel_errs.append(oracle.rel_err(hs, ref))
        err = float(abs(hs - ref) / scale)
        if not err <= HS_TOL:
            return f"hs_norm_sq {hs!r} differs from the oracle by {err:.2e}"
        return None


# ---------------------------------------------------------------------------
# sweep-concentric


def _geomspace(hi: float, lo: float, n: int) -> tuple[float, ...]:
    """n points from hi to lo, geometrically spaced, as numpy.geomspace."""
    import numpy as np

    return tuple(float(x) for x in np.geomspace(hi, lo, n))


class SweepConcentric(Workload):
    """The concentric two-bubble sweep u_lambda = B + B_lambda.

    The grids are fixed by the paper's certification (acceptance criterion
    04 plus the d = 7 default grid at rel_tol 1e-12); the seed sets the order
    of the sweeps and of the points within each.
    """

    name = "sweep-concentric"

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        import sobstab

        default = sobstab.QuadratureConfig()
        tight = sobstab.QuadratureConfig(rel_tol=1e-12)
        amb7 = sobstab.Ambient(7, 1.0)
        self.sweeps = [
            (sobstab.Ambient(3, 1.0), _geomspace(1e-5, 1e-7, 11), default, True),
            (sobstab.Ambient(5, 1.0), _geomspace(1e-3, 1e-5, 11), default, True),
            # The coefficient is not yet asymptotic on the d = 7 default
            # grid, so only its exponent is checked.
            (amb7, sobstab.default_lambda_grid(amb7, tight), tight, False),
        ]
        order = list(range(len(self.sweeps)))
        self.rng.shuffle(order)
        for k in order:
            amb, grid, cfg, _ = self.sweeps[k]
            idx = list(range(len(grid)))
            self.rng.shuffle(idx)
            for i in idx:
                self.ops.append(
                    Op(
                        "sweep_point",
                        lambda lam=grid[i], amb=amb, cfg=cfg: sobstab.sweep_point(
                            lam, amb, cfg
                        ),
                        {"sweep": k, "index": i},
                    )
                )

    def finish_round(self, outputs):
        import sobstab.expansion

        reports = []
        for k, (amb, grid, cfg, _) in enumerate(self.sweeps):
            points = [None] * len(grid)
            for op, out in zip(self.ops, outputs):
                if op.info["sweep"] == k and not isinstance(out, BaseException):
                    points[op.info["index"]] = out
            if any(p is None for p in points):
                reports.append(ValueError("a sweep point failed"))
                continue
            try:
                reports.append(sobstab.expansion.assemble_report(amb, points, cfg))
            except Exception as exc:  # reported as a failed sweep
                reports.append(exc)
        return reports

    def check(self, outputs, reports):
        import oracle

        sweep_errors = []
        for (amb, _, _, check_coef), rep in zip(self.sweeps, reports):
            if isinstance(rep, BaseException):
                sweep_errors.append(f"assemble_report raised {rep!r}")
                continue
            d, s = amb.d, amb.s
            beta = (d - 2 * s) / 2
            errs = []
            if not abs(rep.fitted_exponent - beta) <= 0.05 * beta:
                errs.append(f"d={d}: exponent {rep.fitted_exponent:.4f} vs {beta}")
            coef = float(oracle.predicted_coefficient(d, s))
            if check_coef and not abs(rep.fitted_coefficient - coef) <= 0.10 * coef:
                errs.append(f"d={d}: coefficient {rep.fitted_coefficient:.4f} vs {coef:.4f}")
            sweep_errors.append("; ".join(errs) or None)

        thresholds = {}
        result: list[str | None] = []
        for op, out in zip(self.ops, outputs):
            k = op.info["sweep"]
            amb, grid, _, _ = self.sweeps[k]
            if isinstance(out, BaseException):
                result.append(f"raised {out!r}")
                continue
            if amb.d not in thresholds:
                thresholds[amb.d] = oracle.threshold(amb.d, amb.s)
            lam = grid[op.info["index"]]
            errs = []
            if out.be_value is None or not out.be_value < thresholds[amb.d]:
                errs.append(f"E(u_{lam:g}) = {out.be_value!r} not below the threshold")
            origin = (0.0,) * amb.d
            hs_err = self._hs_check(
                out.hs_norm_sq, [(1.0, origin, 1.0), (1.0, origin, lam)], amb.d, amb.s
            )
            if hs_err:
                errs.append(hs_err)
            if sweep_errors[k]:
                errs.append(sweep_errors[k])
            result.append("; ".join(errs) or None)
        return result


# ---------------------------------------------------------------------------
# report-collinear

# The (d, terms) of a round's draws.  Three-term reports cost about three
# times as much as two-term ones; with four of the five draws two-term, the
# median operation is a two-term report, not one between the two kinds.
_DESIGN = ((3, 2), (3, 2), (5, 2), (5, 2), (5, 3))
# The design is drawn once from this generator; a run's seed sets its order.
_DESIGN_SEED = 0


def _draw_terms(rng: random.Random, d: int, n: int) -> list[tuple]:
    """n collinear terms on the first axis: one negative coefficient,
    magnitudes 10^U(-0.3, 0), offsets U(-3, 3), scales 10^U(-1.5, 1.5)."""
    neg = rng.randrange(n)
    terms = []
    for i in range(n):
        coeff = 10.0 ** rng.uniform(-0.3, 0.0) * (-1.0 if i == neg else 1.0)
        center = (rng.uniform(-3.0, 3.0),) + (0.0,) * (d - 1)
        terms.append((coeff, center, 10.0 ** rng.uniform(-1.5, 1.5)))
    return terms


def collinear_draws(seed: int) -> list[tuple[int, list[tuple]]]:
    """The seeded (d, terms) inputs of one report-collinear round.

    A report's cost swings by tens of percent with small moves of its terms
    (the adaptive quadrature and the Nelder-Mead path both change), so a
    round whose draws depend on the seed costs more or less with every seed.
    The round is therefore one fixed design drawn from the distribution of
    _draw_terms, and the seed sets the order of its draws, as the seed of
    sweep-concentric does for its grids.
    """
    design_rng = random.Random(_DESIGN_SEED)
    draws = [(d, _draw_terms(design_rng, d, n)) for d, n in _DESIGN]
    random.Random(seed).shuffle(draws)
    return draws


class ReportCollinear(Workload):
    """functional_report of seeded two- and three-term collinear
    superpositions with mixed signs, d in {3, 5}, s = 1."""

    name = "report-collinear"

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        import sobstab

        self.inputs = collinear_draws(seed)
        self._refs: list[tuple[float, float]] | None = None
        for d, terms in self.inputs:
            u = sobstab.Superposition(
                sobstab.Ambient(d, 1.0),
                tuple(sobstab.BubbleParam(c, x, lam) for c, x, lam in terms),
            )
            self.ops.append(
                Op("functional_report", lambda u=u: sobstab.functional_report(u))
            )

    def check(self, outputs, extra):
        # Every round repeats the same inputs, so their oracle values are
        # computed once.
        if self._refs is None:
            self._refs = [self._references(d, terms) for d, terms in self.inputs]
        result = []
        for i, out in enumerate(outputs):
            d, terms = self.inputs[i]
            if isinstance(out, BaseException):
                result.append(f"raised {out!r}")
                continue
            errs = []
            hs_err = self._hs_check(out.hs_norm_sq, terms, d, 1.0)
            if hs_err:
                errs.append(hs_err)
            sd, grid_max = self._refs[i]
            lp2 = out.lp_norm**2
            m = out.m.value
            if not m >= grid_max * (1.0 - INEQ_TOL):
                errs.append(f"m {m!r} below the oracle grid maximum {grid_max!r}")
            if not m <= lp2 * (1.0 + INEQ_TOL):
                errs.append(f"m {m!r} above lp_norm^2 {lp2!r} (Hoelder)")
            if not out.hs_norm_sq >= sd * lp2 * (1.0 - INEQ_TOL):
                errs.append("hs_norm_sq below S_d lp_norm^2 (sharp Sobolev)")
            if not out.dist_sq >= 0.0:
                errs.append(f"dist_sq {out.dist_sq!r} negative")
            if out.be_quotient is None or not out.be_quotient > 0.0:
                errs.append(f"E {out.be_quotient!r} not positive")
            result.append("; ".join(errs) or None)
        return result

    @staticmethod
    def _references(d: int, terms) -> tuple[float, float]:
        """S_d and the largest squared oracle pairing over a coarse
        (axial position, log scale) grid of unit bubbles."""
        import oracle

        xs = [x[0] for _, x, _ in terms]
        logs = [math.log(lam) for _, _, lam in terms]
        best = 0.0
        for i in range(7):
            a = min(xs) - 1.0 + (max(xs) - min(xs) + 2.0) * i / 6
            for j in range(7):
                mu = math.exp(min(logs) - 1.0 + (max(logs) - min(logs) + 2.0) * j / 6)
                p = oracle.pair_against_bubble(terms, (a,) + (0.0,) * (d - 1), mu, d, 1.0)
                best = max(best, float(p * p))
        return float(oracle.sharp_constant(d, 1.0)), best


# ---------------------------------------------------------------------------
# cli-session


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


class CliSession(Workload):
    """A fixed script of sobstab subprocess invocations.

    Light closed-form commands are 12 of the 17 invocations, so the median
    is a light command from well inside their cluster and reads start-up
    cost; the five heavy ones carry the process pool.
    """

    name = "cli-session"
    LIGHT_PER_KIND = 4

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.python_flags: tuple[str, ...] = ()
        self.env = cli_env()
        rng = self.rng
        for _ in range(self.LIGHT_PER_KIND):
            d = rng.randrange(3, 13)
            self._add("constants", ["constants", "--d", str(d), "--s", "1"], d=d)
            d = rng.randrange(3, 13)
            self._add("thresholds", ["thresholds", "--d", str(d), "--s", "1"], d=d)
            d_min, d_max = rng.randrange(3, 6), rng.randrange(8, 13)
            self._add(
                "crossover",
                ["crossover", "--s", "1", "--d-min", str(d_min), "--d-max", str(d_max),
                 "--format", "json"],
            )
        concentric = {
            "d": 3, "s": 1.0,
            "terms": [
                {"coeff": 1.0, "center": [0.0, 0.0, 0.0], "lambda": 1.0},
                {"coeff": round(rng.uniform(0.5, 1.0), 6), "center": [0.0, 0.0, 0.0],
                 "lambda": round(10.0 ** rng.uniform(-3.0, -2.0), 9)},
            ],
        }
        collinear = {
            "d": 3, "s": 1.0,
            "terms": [
                {"coeff": 1.0, "center": [0.0, 0.0, 0.0], "lambda": 1.0},
                {"coeff": round(rng.uniform(0.5, 1.0), 6),
                 "center": [round(rng.uniform(1.0, 3.0), 6), 0.0, 0.0],
                 "lambda": round(rng.uniform(0.5, 1.0), 6)},
            ],
        }
        self.configs = {}
        for name, doc in (("concentric", concentric), ("collinear", collinear)):
            path = workdir / f"{name}.json"
            path.write_text(json.dumps(doc))
            self.configs[name] = doc
            self.configs[name + "_path"] = str(path)
        self._add("eval", ["eval", "--config", self.configs["concentric_path"]])
        self._add("dist", ["dist", "--config", self.configs["collinear_path"]])
        self._add("expand_jobs1", ["expand", "--d", "5", "--s", "1", "--jobs", "1"])
        self._add("expand_jobs2", ["expand", "--d", "5", "--s", "1", "--jobs", "2"])
        c2 = [round(rng.uniform(0.5, 1.0), 6) for _ in range(2)]
        lams = [round(rng.uniform(0.5, 1.0), 6) for _ in range(2)]
        seps = [0.0, round(rng.uniform(1.0, 2.0), 6)]
        self._add(
            "sweep_grid",
            ["sweep-grid", "--d", "3", "--s", "1",
             "--c2", ",".join(map(repr, c2)), "--lambda", ",".join(map(repr, lams)),
             "--separation", ",".join(map(repr, seps)), "--jobs", "2"],
        )
        rng.shuffle(self.ops)

    def _add(self, kind: str, args: list[str], **info) -> None:
        self.ops.append(Op(kind, lambda args=args: self._invoke(args), info))

    def set_traced(self, traced: bool) -> None:
        # The traced form of an invocation reports its imports on stderr.
        self.python_flags = ("-X", "importtime") if traced else ()

    def _invoke(self, args: list[str]) -> subprocess.CompletedProcess:
        """Run one invocation; a non-zero exit raises CalledProcessError."""
        cmd = [sys.executable, *self.python_flags, "-m", "sobstab.cli", *args]
        return subprocess.run(
            cmd, capture_output=True, text=True, env=self.env, cwd=ROOT,
            timeout=150, check=True,
        )

    def check(self, outputs, extra):
        import oracle

        result = []
        for op, out in zip(self.ops, outputs):
            if isinstance(out, subprocess.CalledProcessError):
                result.append(f"{op.kind}: exit {out.returncode}: {out.stderr.strip()[-200:]}")
                continue
            if isinstance(out, BaseException):
                result.append(f"{op.kind}: raised {out!r}")
                continue
            try:
                err = self._check_one(op, out, outputs, oracle)
            except (ValueError, KeyError, TypeError) as exc:
                err = f"{op.kind}: unreadable output ({exc!r})"
            result.append(err)
        return result

    def _check_one(
        self, op: Op, out: subprocess.CompletedProcess, outputs, oracle
    ) -> str | None:
        kind = op.kind
        if kind in ("expand_jobs1", "expand_jobs2", "sweep_grid"):
            if "# certified: true\n" not in out.stdout:
                return f"{kind}: output not certified"
            if kind == "expand_jobs2":
                j1 = next(k for k, o in enumerate(self.ops) if o.kind == "expand_jobs1")
                if out.stdout != outputs[j1].stdout:
                    return "expand --jobs 2 output differs from --jobs 1"
            return None
        doc = json.loads(out.stdout)
        if doc["provenance"]["certified"] is not True:
            return f"{kind}: output not certified"
        errs = []
        if kind == "constants":
            d = op.info["d"]
            if not oracle.rel_err(doc["S_d"], oracle.sharp_constant(d, 1.0)) <= CONST_TOL:
                errs.append(f"S_d({d}) differs from the oracle")
            if not oracle.rel_err(doc["c0"], oracle.c0(d, 1.0)) <= CONST_TOL:
                errs.append(f"c0({d}) differs from the oracle")
        elif kind == "thresholds":
            d = op.info["d"]
            if doc["c_spec"] != float(Fraction(4, d + 2 + 2)):
                errs.append(f"c_spec({d}) {doc['c_spec']!r} != 4s/(d+2s+2)")
            if not oracle.rel_err(doc["c_two_peak"], oracle.threshold(d, 1.0)) <= CONST_TOL:
                errs.append(f"c_two_peak({d}) differs from 2 - 2^((d-2s)/d)")
        elif kind == "crossover":
            if doc["crossover_d"] != 6:
                errs.append(f"crossover_d {doc['crossover_d']!r} != 6")
        elif kind in ("eval", "dist"):
            cfg = self.configs["concentric" if kind == "eval" else "collinear"]
            terms = [(t["coeff"], t["center"], t["lambda"]) for t in cfg["terms"]]
            hs_err = self._hs_check(doc["hs_norm_sq"], terms, cfg["d"], cfg["s"])
            if hs_err:
                errs.append(hs_err)
            if not doc["dist_sq"] >= 0.0:
                errs.append("dist_sq negative")
        return "; ".join(f"{kind}: {e}" for e in errs) or None


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (SweepConcentric, ReportCollinear, CliSession)
}
