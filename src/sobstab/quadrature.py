"""Deterministic adaptive quadrature on the half-line, the real line, and
axisymmetric geometry about an axis through any number of centers.

One engine underlies everything: a 15-point Kronrod rule with its embedded
7-point Gauss estimate, applied to panels of a transformed integrand and
refined adaptively in bulk (as in Shampine's vectorized quadrature, 2008):
each step bisects, worst first, as many panels as it takes to leave the rest
within half the tolerance.  Semi-infinite
directions are compactified algebraically, r = t/(1-t), which maps the
algebraic decay of every integrand here (r^-(d+2s) or faster) to regular
endpoint behavior -- no cutoff parameter.  The axisymmetric integrator cuts
the axis midway between its centers and compactifies each half-cell the same
way from its own center, so each bubble is resolved however far the others.

The engine refines a batch of integrals of one integrand over the same
initial segments in lockstep, evaluating all the new panels of a step in one
vectorized call.  Each integral keeps the panel order and termination rule
it would have alone; only the panel budget is shared.  The radial integrals
at the nodes of all the axial panels of one outer step are one such batch.
Each segment is a cell of one map (_mapped): a compactified tail or, between
the real line's knots, the identity.

Half-line and real-line integrands are numpy-vectorized: each call receives
a 1-D ndarray of nodes and must return an array of the same shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable, Sequence

import numpy as np

from .constants import Ambient, sphere_area
from .errors import ParameterError, QuadratureNonConvergence

__all__ = [
    "QuadratureConfig",
    "QuadratureResult",
    "DEFAULT_CONFIG",
    "integrate_half_line",
    "integrate_real_line",
    "integrate_axisymmetric",
]

# 15-point Kronrod abscissae/weights with the embedded 7-point Gauss rule
# (standard published values, 15 significant digits; ordered outermost first).
_XGK = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.000000000000000,
)
_WGK = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
)
_WG = (
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
)

# Ascending node layout on [-1, 1]; Gauss points sit at odd indices.
_NODES = np.array([-x for x in _XGK[:7]] + [0.0] + list(reversed(_XGK[:7])))
_WK = np.array(list(_WGK[:7]) + [_WGK[7]] + list(reversed(_WGK[:7])))
_WGAUSS = np.zeros(15)
_WGAUSS[[1, 3, 5]] = _WG[:3]
_WGAUSS[7] = _WG[3]
_WGAUSS[[9, 11, 13]] = _WG[2::-1]

_MAX_PANELS = 20000  # held by one call, per 15 integrals it refines
_MAX_SUBDIVISIONS = 30  # bisections of one panel
# A panel whose estimate is within this fraction of its integral of |g| is
# not bisected: the estimate is roundoff, which bisection does not reduce
# (QUADPACK's dqk21 floors its estimates there, at 50 eps).
_ROUNDOFF = 50 * 2.0**-52
_NEG_ERR, _DEPTH, _VAL = itemgetter(0), itemgetter(4), itemgetter(5)


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances for one adaptive integration."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-14

    def __post_init__(self) -> None:
        if not (0.0 < self.rel_tol < math.inf and 0.0 < self.abs_tol < math.inf):
            raise ParameterError("rel_tol and abs_tol must be positive and finite")


DEFAULT_CONFIG = QuadratureConfig()


def check_config(cfg: object) -> None:
    """Raise ParameterError unless cfg is a QuadratureConfig."""
    if not isinstance(cfg, QuadratureConfig):
        raise ParameterError(
            f"cfg must be a QuadratureConfig, got {type(cfg).__name__}"
        )


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int


def _lift(f: Callable) -> Callable:
    """Check a vectorized 1-D integrand's output against its nodes."""

    def g(xs: np.ndarray) -> np.ndarray:
        nodes = xs.ravel()
        out = np.asarray(f(nodes), dtype=float)
        if out.shape != nodes.shape:
            raise ParameterError(
                f"integrand returned shape {out.shape} for nodes of shape "
                f"{nodes.shape}; it must be vectorized over a 1-D array"
            )
        return out.reshape(xs.shape)

    return g


def _evaluate(
    g: Callable, rows: np.ndarray, ks: np.ndarray, a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kronrod values, negated error estimates and whether each estimate is
    above roundoff, of the panels [a, b] of initial segments ks of integrals
    rows, all from one call of g."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    xs = c[:, None] + h[:, None] * _NODES
    ys = np.ascontiguousarray(g(rows, ks, xs), dtype=float)
    finite = np.isfinite(ys).all(axis=1)
    if not finite.all():
        bad = int(finite.argmin())
        raise ParameterError(
            f"integrand returned a non-finite value on panel [{a[bad]}, {b[bad]}]"
        )
    # vecdot sums each row as the 1-D dot product of a single panel does.
    k15 = h * np.vecdot(ys, _WK)
    err = np.abs(k15 - h * np.vecdot(ys, _WGAUSS))
    return k15, -err, err > _ROUNDOFF * h * np.vecdot(np.abs(ys), _WK)


def _integrate_segments(
    g: Callable, segments: Sequence[tuple], cfg: QuadratureConfig, n: int = 1
) -> list[QuadratureResult]:
    """Adaptive refinement of n integrals of g over initial (a, b) segments.

    ``g(rows, segs, xs)`` evaluates at an (m, 15) array of nodes whose k-th
    row belongs to integral ``rows[k]`` and lies in initial segment
    ``segs[k]``; each step makes one call.  An integral is done once
    the fsum of its panels' error estimates meets its tolerance
    max(rel_tol*|value|, abs_tol).  Until then, each step ranks its panels by
    estimate, largest first (ties in creation order), and bisects them from
    the top until those it leaves hold at most half the tolerance, passing
    over panels whose estimate is roundoff (_ROUNDOFF); the new panels of all
    integrals are evaluated together.  So each integral refines as it would
    alone.  An open integral raises QuadratureNonConvergence with its best
    estimate once a panel due for bisection is at depth _MAX_SUBDIVISIONS,
    once the call holds _MAX_PANELS panels per 15 integrals (one axial
    panel's radial integrals), or once no panel is due but roundoff.
    """
    budget = _MAX_PANELS * -(-n // len(_NODES))
    nseg = len(segments)
    # Per integral, its live panels (-err, seq, a, b, depth, val, segment,
    # above roundoff), seq numbering the call's panels in order of creation.
    live: list[list[tuple]] = [[] for _ in range(n)]
    evals = [15 * nseg] * n
    results: list[QuadratureResult] = [None] * n  # type: ignore[list-item]
    rows = np.repeat(np.arange(n), nseg)
    ks = np.tile(np.arange(nseg), n)
    a = np.tile([float(lo) for lo, _ in segments], n)
    b = np.tile([float(hi) for _, hi in segments], n)
    depth = np.zeros(rows.size, dtype=int)
    made = held = 0
    active: Iterable[int] = range(n)
    while True:
        vals, errs, above = _evaluate(g, rows, ks, a, b)
        cols = (errs, a, b, depth, vals, ks, above)
        seqs = range(made, made + rows.size)
        neg_err, a, b, depth, vals, ks, above = (x.tolist() for x in cols)
        panels = zip(neg_err, seqs, a, b, depth, vals, ks, above)
        for i, p in zip(rows.tolist(), panels):
            live[i].append(p)
        made += rows.size
        held += rows.size
        split, owners, still = [], [], []
        for i in active:
            row = live[i]
            val = math.fsum(map(_VAL, row))
            err = -math.fsum(map(_NEG_ERR, row))
            tol = max(cfg.rel_tol * abs(val), cfg.abs_tol)
            if err <= tol:
                results[i] = QuadratureResult(val, err, evals[i])
                continue
            row.sort()
            rest, half, due, kept = err, 0.5 * tol, [], []
            for p in row:
                if rest <= half:
                    break
                if p[7]:  # roundoff is not bisected away
                    due.append(p)
                    rest += p[0]
                else:
                    kept.append(p)
            limit = (
                "roundoff" if not due
                else "depth" if max(map(_DEPTH, due)) >= _MAX_SUBDIVISIONS
                else "panel" if held >= budget
                else None
            )
            if limit:
                raise QuadratureNonConvergence(
                    f"tolerance not met: error estimate {err:.3e} with "
                    f"{len(row)} panels at the call's {limit} limit",
                    best=QuadratureResult(val, err, evals[i]),
                )
            row[: len(due) + len(kept)] = kept
            split += due
            owners += [i] * len(due)
            held -= len(due)
            evals[i] += 30 * len(due)
            still.append(i)
        if not split:
            return results
        active = still
        _, _, a, b, depth, _, ks, _ = map(np.array, zip(*split))
        mid = 0.5 * (a + b)
        a = np.column_stack((a, mid)).ravel()
        b = np.column_stack((mid, b)).ravel()
        depth, ks, rows = (np.repeat(x, 2) for x in (depth + 1, ks, owners))


def _tail_cells(tails: Iterable[tuple]) -> list[tuple]:
    """Cells (c, sign, h, kappa, a, b) of _mapped for tails (c, sign,
    length, knots), h = min(1, length), kappa = 1 - h/length: an infinite
    length gives r = t/(1-t), a finite one ends at exactly the length, and
    one shorter than 1 maps linearly.  Each tail splits at t = 1/2 and at
    the image of every knot in (0, length)."""
    cells = []
    for c, sign, length, knots in tails:
        h = min(1.0, length)
        kappa = 1.0 - h / length
        images = {r / (h + kappa * r) for r in map(float, knots) if 0.0 < r < length}
        breaks = sorted({0.0, 0.5, 1.0} | images)
        cells += [(c, sign, h, kappa, a, b) for a, b in zip(breaks[:-1], breaks[1:])]
    return cells


def _mapped(g: Callable, cells: Sequence[tuple]) -> tuple[Callable, list[tuple]]:
    """One integrand for cells (c, sign, h, kappa, a, b), and their segments
    [a, b]: t maps to the offset sign * h t/q from c, q = 1 - kappa t, with
    Jacobian h/q^2, of which g(rows, c, offset, q) applies 1/q^2 (c has one
    column, offset and q one per node); (0, 1, 1, 0, a, b) is the identity."""
    cs, signs, hs, kappas = (np.array(x)[:, None] for x in list(zip(*cells))[:4])

    def gt(rows: np.ndarray, segs: np.ndarray, ts: np.ndarray) -> np.ndarray:
        q = 1.0 - kappas[segs] * ts
        h = hs[segs]
        return h * g(rows, cs[segs], signs[segs] * (h * ts / q), q)

    return gt, [(a, b) for *_, a, b in cells]


def integrate_half_line(
    f: Callable,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    *,
    knots: Iterable[float] | None = None,
) -> QuadratureResult:
    """Integrate f over (0, inf) under the substitution r = t/(1-t).

    f takes a 1-D ndarray of radii and returns an array of the same shape;
    any other shape raises ParameterError.  ``knots`` lists characteristic
    radii at which initial panels are split; pass the turnover scales of a
    multi-scale integrand to keep refinement shallow.  Raises
    QuadratureNonConvergence (carrying the best estimate) once a panel due
    for bisection is at depth _MAX_SUBDIVISIONS, _MAX_PANELS are held or only
    roundoff is left to bisect, unconverged.
    """
    g = _lift(f)
    cells = _tail_cells([(0.0, 1.0, math.inf, knots or ())])
    gt, segments = _mapped(lambda rows, c, r, q: g(r) / (q * q), cells)
    return _integrate_segments(gt, segments, cfg)[0]


# integrate_real_line's first partition resolves a bubble, an O(1)-wide bump
# in log-radius, in one pass (16 panels between knots need two at d = 7).
_LINE_PANELS = 20
_TAIL_KNOTS = [k / (8 - k) for k in range(1, 8)]


def integrate_real_line(
    f: Callable,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    *,
    knots: Sequence[float],
) -> QuadratureResult:
    """Integrate f over the whole real line.

    f takes a 1-D ndarray of points and returns an array of the same shape;
    any other shape raises ParameterError.  ``knots`` (required, nonempty)
    are finite breakpoints -- typically the centers of the bubbles involved;
    the two tails beyond the extreme knots are compactified algebraically,
    x = knot -+ t/(1-t).  The first pass evaluates 20 equal panels between
    each two consecutive knots and 8 equal panels in t on each tail (through
    the knots r = k/(8 - k)), all through one integrand.
    """
    ks = sorted({float(k) for k in knots})
    if not ks or not all(math.isfinite(k) for k in ks):
        raise ParameterError("integrate_real_line requires finite, nonempty knots")
    g = _lift(f)
    inner = np.linspace(ks[:-1], ks[1:], _LINE_PANELS, endpoint=False, axis=1)
    breaks = sorted(set(inner.ravel().tolist() + ks[-1:]))  # knots 1 ulp apart
    cells = [(0.0, 1.0, 1.0, 0.0, a, b) for a, b in zip(breaks[:-1], breaks[1:])]
    tails = [(ks[0], -1.0, math.inf, _TAIL_KNOTS), (ks[-1], 1.0, math.inf, _TAIL_KNOTS)]
    cells += _tail_cells(tails)
    gt, segments = _mapped(lambda rows, c, v, q: g(c + v) / (q * q), cells)
    return _integrate_segments(gt, segments, cfg)[0]


# A half-cell's initial breaks lie at most this ratio apart: on a panel from
# offset a to b >> a the outermost Kronrod node sits near a / 0.0043, so a
# wider gap would leave the panel's far end unseen.
_KNOT_RATIO = 64.0
# No break past this offset: its image lies so close to t = 1 that the nodes
# of a panel ending at 1 would round to 1.
_KNOT_MAX = 2.0**40


def _cells(centers: list[float], widths: list[float]) -> list[tuple]:
    """The axis cut midway between consecutive distinct centers, as tails
    (c, sign, length, knots) of _tail_cells from each half-cell's own
    center c.

    A feature at x of width w shows from c at the offset max(|x - c|, w); a
    half-cell breaks there, and a geometric ladder keeps its breaks within
    _KNOT_RATIO up to its end (a tail's: its last break)."""
    cs = sorted(set(centers))
    mids = [0.5 * a + 0.5 * b for a, b in zip(cs[:-1], cs[1:])]
    cells = []
    for c, lo, hi in zip(cs, [-math.inf] + mids, mids + [math.inf]):
        shows = {max(abs(x - c), w) for x, w in zip(centers, widths)}
        for sign, length in ((-1.0, c - lo), (1.0, hi - c)):
            if length == 0.0:
                continue  # the midpoint rounded onto c
            top = min(length, _KNOT_MAX)
            knots = sorted(r for r in shows if 0.0 < r < top)
            if length < math.inf:
                knots.append(top)
            ladder = list(knots)
            for a, b in zip(knots, knots[1:]):
                n = math.ceil((math.log(b) - math.log(a)) / math.log(_KNOT_RATIO))
                ladder += [a ** (1 - k / n) * b ** (k / n) for k in range(1, n)]
            cells.append((c, sign, length, ladder))
    return cells


def integrate_axisymmetric(
    f: Callable,
    amb: Ambient,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    *,
    centers: Sequence[float] = (0.0,),
    widths: Sequence[float] | None = None,
) -> QuadratureResult:
    """Integrate an axisymmetric integrand over R^d,

        |S^{d-2}| * int_R int_0^inf f(c, s, rho) rho^(d-2) drho dx,

    at axial position x = c + s and distance rho >= 0 from the axis (at d = 2
    the angular factor is |S^0| = 2; at d = 1 the result is int_R f(c, s, 0)).
    The axis is cut midway between consecutive ``centers`` (finite,
    nonempty) and each half-cell runs from its own center c, so f receives c
    and the offset s apart and can form the distance to a feature there
    exactly.  ``widths`` (one per center, > 0; 1 each by default) place the
    initial breaks (see _cells) and split each radial integral at a quarter,
    one and four widths.  f must broadcast over centers and offsets of shape
    (m, 1) and radii of shape (m, 15) to shape (m, 15).  The radial integrals
    at the nodes of all the axial panels one outer step evaluates refine as
    one lockstep batch, at 10x tighter tolerance, with the axial Jacobian
    inside so the inner abs_tol is on the outer scale.
    """
    xs = [float(x) for x in centers]
    ws = [1.0] * len(xs) if widths is None else [float(r) for r in widths]
    if not xs or len(ws) != len(xs) or not all(
        math.isfinite(x) and 0.0 < r < math.inf for x, r in zip(xs, ws)
    ):
        raise ParameterError(
            "integrate_axisymmetric requires finite, nonempty centers and one "
            "finite width > 0 per center"
        )
    inner_cfg = QuadratureConfig(rel_tol=cfg.rel_tol * 0.1, abs_tol=cfg.abs_tol * 0.1)
    w = amb.d - 2
    radial_knots = [k * r for r in ws for k in (0.25, 1.0, 4.0)]
    radial_cells = _tail_cells([(0.0, 1.0, math.inf, radial_knots)])
    inner_evals = 0

    def profile(rows: np.ndarray, c: np.ndarray, ss: np.ndarray, q: np.ndarray):
        nonlocal inner_evals
        if w < 0:
            return f(c, ss, np.zeros_like(ss)) / (q * q)
        # One radial integral per node, all refined as one batch.
        c_col = np.broadcast_to(c, ss.shape).reshape(-1, 1)
        s_col = ss.reshape(-1, 1)
        q2 = (q * q).reshape(-1, 1)

        def radial(rows: np.ndarray, _, rhos: np.ndarray, qr: np.ndarray):
            vals = np.asarray(f(c_col[rows], s_col[rows], rhos), dtype=float)
            return (vals * rhos**w if w else vals) / q2[rows] / (qr * qr)

        gt, segments = _mapped(radial, radial_cells)
        inner = _integrate_segments(gt, segments, inner_cfg, len(s_col))
        inner_evals += sum(r.evaluations for r in inner)
        return np.array([r.value for r in inner]).reshape(ss.shape)

    outer = _integrate_segments(*_mapped(profile, _tail_cells(_cells(xs, ws))), cfg)[0]
    area = 1.0 if w < 0 else sphere_area(amb.d - 1)
    evals = outer.evaluations + inner_evals
    return QuadratureResult(area * outer.value, area * outer.error_estimate, evals)
