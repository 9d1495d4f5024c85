"""Deterministic adaptive quadrature on the half-line, the real line, and
axisymmetric geometry about an axis through any number of centers.

One engine underlies everything: a 15-point Kronrod rule with its embedded
7-point Gauss estimate, applied to panels of a transformed integrand and
refined adaptively (worst panel first, split at the midpoint).  Semi-infinite
directions are compactified algebraically, r = t/(1-t), which maps the
algebraic decay of every integrand here (r^-(d+2s) or faster) to regular
endpoint behavior -- no cutoff parameter.  The axisymmetric integrator cuts
the axis midway between its centers and compactifies each half-cell the same
way from its own center, so each bubble is resolved however far the others.

The engine refines a batch of integrals over the same initial segments in
lockstep: each step splits the worst panel of every integral not yet
converged and evaluates all the new panels in one vectorized call.  Each
integral keeps the panel order and termination rule it would have alone, so
its result does not depend on the batch.  The radial integrals at the nodes
of an axial panel are one such batch.

Half-line and real-line integrands are numpy-vectorized: each call receives
a 1-D ndarray of nodes and must return an array of the same shape.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
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

_MAX_PANELS = 20000  # held by one call, over its whole batch
_MAX_SUBDIVISIONS = 30  # bisections of one panel


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
    """Lift a vectorized 1-D integrand to the engine's (rows, xs) contract."""

    def g(rows: np.ndarray, xs: np.ndarray) -> np.ndarray:
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
    panels: list[tuple], funcs: list[Callable]
) -> tuple[list[float], list[float]]:
    """Kronrod values and error estimates of panels (row, segment, a, b,
    depth), with one call per distinct integrand."""
    a = np.array([p[2] for p in panels])
    b = np.array([p[3] for p in panels])
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    xs = c[:, None] + h[:, None] * _NODES
    rows = np.array([p[0] for p in panels])
    gs = [funcs[p[1]] for p in panels]
    if all(g is gs[0] for g in gs):
        ys = gs[0](rows, xs)
    else:
        ys = np.empty_like(xs)
        for g in dict.fromkeys(gs):
            sel = np.array([x is g for x in gs])
            ys[sel] = g(rows[sel], xs[sel])
    ys = np.ascontiguousarray(ys, dtype=float)
    finite = np.isfinite(ys).all(axis=1)
    if not finite.all():
        _, _, pa, pb, _ = panels[int(finite.argmin())]
        raise ParameterError(
            f"integrand returned a non-finite value on panel [{pa}, {pb}]"
        )
    # vecdot sums each row as the 1-D dot product of a single panel does.
    k15 = h * np.vecdot(ys, _WK)
    g7 = h * np.vecdot(ys, _WGAUSS)
    return k15.tolist(), np.abs(k15 - g7).tolist()


# A running sum s <- fl(s + x) errs by at most 2^-53 |fl(s + x)| per step;
# the drift bound doubles that.  _SLACK absorbs the rounding of the cheap
# termination test itself.
_ULP = 2.0**-52
_SLACK = 1.0 + 2.0**-40


class _Row:
    """Refinement state of one integral of a lockstep batch."""

    __slots__ = ("heap", "evals", "val", "err", "dval", "derr")

    def __init__(self) -> None:
        # (-err, seq, a, b, depth, val, segment): the segment's index rather
        # than its integrand keeps the tuple out of the garbage collector's
        # traversals, which a 20000-panel heap makes costly.
        self.heap: list[tuple] = []
        self.evals = 0
        # Running totals over the live panels; dval and derr sum the
        # magnitudes of their partial results, so _ULP * dval bounds the
        # drift of val from the exact sum (likewise for err).
        self.val = self.err = self.dval = self.derr = 0.0

    def unmet(self, cfg: QuadratureConfig) -> bool:
        """True if even the drift-widened running totals miss the tolerance."""
        val, err = abs(self.val), abs(self.err)
        lo = err - _ULP * (self.derr + err)
        hi = max(cfg.rel_tol * (val + _ULP * (self.dval + val)), cfg.abs_tol)
        return lo > _SLACK * hi

    def exact(self) -> tuple[float, float]:
        """fsum totals of the live panels; resets the running totals."""
        val = math.fsum([p[5] for p in self.heap])
        err = math.fsum([-p[0] for p in self.heap])
        self.val, self.err, self.dval, self.derr = val, err, abs(val), err
        return val, err


def _integrate_segments(
    segments: Sequence[tuple[Callable, float, float]],
    cfg: QuadratureConfig,
    n: int = 1,
) -> list[QuadratureResult]:
    """Adaptive refinement of n integrals over shared initial (g, a, b) segments.

    ``g(rows, xs)`` evaluates at an (m, 15) array of nodes whose k-th row
    belongs to integral ``rows[k]``.  Each integral queues its panels by error
    estimate, largest first, and splits them at their midpoints until the
    fsum of its estimates meets max(rel_tol*|value|, abs_tol).  The integrals
    refine in lockstep: every step splits the worst panel of each integral
    still open and evaluates all new panels together.  An open integral
    raises QuadratureNonConvergence with its best estimate once its worst
    panel is at depth _MAX_SUBDIVISIONS or the batch holds _MAX_PANELS.
    """
    for _, a, b in segments:
        if not b > a:
            raise ParameterError("segment endpoints must be increasing")
    state = [_Row() for _ in range(n)]
    results: list[QuadratureResult] = [None] * n  # type: ignore[list-item]
    funcs = [g for g, _, _ in segments]
    new = [
        (i, k, float(a), float(b), 0)
        for i in range(n)
        for k, (_, a, b) in enumerate(segments)
    ]
    panels = 0
    active: Iterable[int] = range(n)
    while new:
        panels += len(new)
        for (i, k, a, b, depth), val, err in zip(new, *_evaluate(new, funcs)):
            row = state[i]
            # row.evals orders a row's panels by creation, as a sequence number.
            heapq.heappush(row.heap, (-err, row.evals, a, b, depth, val, k))
            row.evals += 15
            row.val += val
            row.dval += abs(row.val)
            row.err += err
            row.derr += abs(row.err)
        new, still = [], []
        for i in active:
            row = state[i]
            if not row.unmet(cfg):
                val, err = row.exact()
                if err <= max(cfg.rel_tol * abs(val), cfg.abs_tol):
                    results[i] = QuadratureResult(val, err, row.evals)
                    continue
            neg_err, _, a, b, depth, val, k = row.heap[0]
            if depth >= _MAX_SUBDIVISIONS or panels >= _MAX_PANELS:
                val, err = row.exact()
                limit = "depth" if depth >= _MAX_SUBDIVISIONS else "panel"
                raise QuadratureNonConvergence(
                    f"tolerance not met: error estimate {err:.3e} with "
                    f"{len(row.heap)} panels at the call's {limit} limit",
                    best=QuadratureResult(val, err, row.evals),
                )
            heapq.heappop(row.heap)
            panels -= 1
            row.val -= val
            row.dval += abs(row.val)
            row.err += neg_err
            row.derr += abs(row.err)
            mid = 0.5 * (a + b)
            new.append((i, k, a, mid, depth + 1))
            new.append((i, k, mid, b, depth + 1))
            still.append(i)
        active = still
    return results


def _tail(g: Callable, sign: float, length: float = math.inf) -> Callable:
    """g over the offsets sign * (0, length) as an integrand on t in (0, 1):
    the offset is sign * h t/q, q = 1 - (1 - h/length) t, h = min(1, length),
    with Jacobian h/q^2, of which g(rows, offset, q) applies 1/q^2.  An
    infinite length gives r = t/(1-t); a finite one ends at exactly the
    length, however far, and one shorter than 1 maps linearly."""
    h = min(1.0, length)
    kappa = 1.0 - h / length

    def gt(rows: np.ndarray, ts: np.ndarray) -> np.ndarray:
        q = 1.0 - kappa * ts
        return h * g(rows, sign * (h * ts / q), q)

    return gt


def _over_q2(g: Callable) -> Callable:
    """g(rows, x) as a _tail integrand, times the Jacobian."""
    return lambda rows, v, q: g(rows, v) / (q * q)


def _tail_segments(
    g: Callable,
    sign: float,
    knots: Iterable[float] | None,
    length: float = math.inf,
) -> list[tuple[Callable, float, float]]:
    """Initial segments of _tail(g, sign, length), split at t = 1/2 and at
    the image of every knot in (0, length)."""
    h = min(1.0, length)
    kappa = 1.0 - h / length
    breaks = {0.0, 0.5, 1.0}
    for r in map(float, knots or ()):
        if 0.0 < r < length:
            breaks.add(r / (h + kappa * r))
    breaks = sorted(breaks)
    gt = _tail(g, sign, length)
    return [(gt, a, b) for a, b in zip(breaks[:-1], breaks[1:])]


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
    QuadratureNonConvergence (carrying the best estimate) once the worst
    panel is at depth _MAX_SUBDIVISIONS or _MAX_PANELS are held, unconverged.
    """
    segments = _tail_segments(_over_q2(_lift(f)), 1.0, knots)
    return _integrate_segments(segments, cfg)[0]


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
    the two tails beyond the extreme knots are compactified algebraically.
    """
    ks = sorted({float(k) for k in knots})
    if not ks or not all(math.isfinite(k) for k in ks):
        raise ParameterError("integrate_real_line requires finite, nonempty knots")
    g = _lift(f)
    segments = [(g, a, b) for a, b in zip(ks[:-1], ks[1:])]
    lo, hi = ks[0], ks[-1]
    left = _tail(_over_q2(lambda rows, v: g(rows, lo + v)), -1.0)
    right = _tail(_over_q2(lambda rows, v: g(rows, hi + v)), 1.0)
    segments += [(left, 0.0, 1.0), (right, 0.0, 1.0)]
    return _integrate_segments(segments, cfg)[0]


# A half-cell's initial breaks lie at most this ratio apart: on a panel from
# offset a to b >> a the outermost Kronrod node sits near a / 0.0043, so a
# wider gap would leave the panel's far end unseen.
_KNOT_RATIO = 64.0
# No break past this offset: its image lies so close to t = 1 that the nodes
# of a panel ending at 1 would round to 1.
_KNOT_MAX = 2.0**40


def _cell_segments(
    profile: Callable, centers: list[float], widths: list[float]
) -> list[tuple[Callable, float, float]]:
    """Initial segments of the axis cut midway between consecutive distinct
    centers, each half-cell a _tail of profile(c) from its own center c.

    A feature at x of width w shows from c at the offset max(|x - c|, w); a
    half-cell breaks there, and a geometric ladder keeps its breaks within
    _KNOT_RATIO up to its end (a tail's: its last break)."""
    cs = sorted(set(centers))
    mids = [0.5 * a + 0.5 * b for a, b in zip(cs[:-1], cs[1:])]
    segments = []
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
            segments += _tail_segments(profile(c), sign, ladder, length)
    return segments


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
    initial breaks (see _cell_segments) and split each radial integral at a
    quarter, one and four widths.  f must broadcast over offsets of shape
    (m, 1) and radii of shape (m, 15) to shape (m, 15).  The radial integrals at the 15 nodes
    of an axial panel refine as one lockstep batch, at 10x tighter tolerance,
    with the axial Jacobian inside so the inner abs_tol is on the outer scale.
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
    inner_evals = 0

    def profile(c: float) -> Callable:
        if w < 0:
            return lambda rows, ss, q: f(c, ss, np.zeros_like(ss)) / (q * q)

        def g(rows: np.ndarray, ss: np.ndarray, q: np.ndarray) -> np.ndarray:
            nonlocal inner_evals
            out = np.empty_like(ss)
            # One batch per axial panel, so that when a radial integral cannot
            # converge, at most 14 others have refined alongside it.
            cols = zip(ss[:, :, None], (q * q)[:, :, None])
            for k, (s_col, q2) in enumerate(cols):

                def radial(rows: np.ndarray, rhos: np.ndarray) -> np.ndarray:
                    vals = np.asarray(f(c, s_col[rows], rhos), dtype=float)
                    return (vals * rhos**w if w else vals) / q2[rows]

                segments = _tail_segments(_over_q2(radial), 1.0, radial_knots)
                inner = _integrate_segments(segments, inner_cfg, len(s_col))
                inner_evals += sum(r.evaluations for r in inner)
                out[k] = [r.value for r in inner]
            return out

        return g

    outer = _integrate_segments(_cell_segments(profile, xs, ws), cfg)[0]
    area = 1.0 if w < 0 else sphere_area(amb.d - 1)
    return QuadratureResult(
        area * outer.value,
        area * outer.error_estimate,
        outer.evaluations + inner_evals,
    )
