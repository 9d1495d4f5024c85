"""Deterministic adaptive quadrature on the half-line, the real line, and
axisymmetric two-center geometry.

One engine underlies everything: a 15-point Kronrod rule with its embedded
7-point Gauss estimate, applied to panels of a transformed integrand and
refined adaptively (worst panel first, split at the midpoint).  Semi-infinite
directions are compactified with the algebraic substitution r = t/(1-t),
which maps the algebraic decay of every integrand in this toolkit (r^-(d+2s)
or faster) to regular integrable endpoint behavior -- no cutoff parameter.

The engine refines a batch of integrals over the same initial segments in
lockstep: each step splits the worst panel of every integral not yet
converged and evaluates all the new panels in one vectorized call.  Each
integral keeps the panel order, subdivision limits and termination rule it
would have alone, so its result does not depend on the batch.  The half-line
and real-line integrators are batches of one; the axisymmetric integrator
runs the radial integrals at the nodes of each axial panel as one batch.

Half-line and real-line integrands are numpy-vectorized: each call receives
a 1-D ndarray of nodes and must return an array of the same shape.
Multi-scale integrands (superpositions of bubbles at scales lambda_i) should
pass the characteristic radii through ``knots`` so the initial panels already
separate the scales.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .constants import Ambient, sphere_area
from .errors import GeometryError, ParameterError, QuadratureNonConvergence

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

_MAX_PANELS = 20000
# A panel is bisected at most this many times.
_MAX_SUBDIVISIONS = 30


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

    __slots__ = ("heap", "frozen", "panels", "evals", "val", "err", "dval", "derr")

    def __init__(self) -> None:
        # (-err, seq, a, b, depth, val, segment): the segment's index rather
        # than its integrand keeps the tuple out of the garbage collector's
        # traversals, which a 20000-panel heap makes costly.
        self.heap: list[tuple] = []
        self.frozen: list[tuple[float, float]] = []  # (val, err) at max depth
        self.panels = 0
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
        val = math.fsum([p[5] for p in self.heap] + [v for v, _ in self.frozen])
        err = math.fsum([-p[0] for p in self.heap] + [e for _, e in self.frozen])
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
    fsum of its estimates meets max(rel_tol*|value|, abs_tol); a panel may be
    bisected at most _MAX_SUBDIVISIONS times.  The integrals refine in
    lockstep: every step splits the worst panel of each integral still open
    and evaluates all new panels together.  The first integral that cannot
    converge raises QuadratureNonConvergence with its best estimate.
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
    active: Iterable[int] = range(n)
    while new:
        for (i, k, a, b, depth), val, err in zip(new, *_evaluate(new, funcs)):
            row = state[i]
            # row.evals orders a row's panels by creation, as a sequence number.
            heapq.heappush(row.heap, (-err, row.evals, a, b, depth, val, k))
            row.panels += 1
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
            # Locate the worst panel that can still be refined.
            split = None
            if row.panels < _MAX_PANELS:
                while row.heap:
                    panel = heapq.heappop(row.heap)
                    if panel[4] < _MAX_SUBDIVISIONS:
                        split = panel
                        break
                    row.frozen.append((panel[5], -panel[0]))  # cannot improve
            if split is None:
                val, err = row.exact()
                raise QuadratureNonConvergence(
                    f"tolerance not met: error estimate {err:.3e} with "
                    f"{row.panels} panels at max_subdivisions={_MAX_SUBDIVISIONS}",
                    best=QuadratureResult(val, err, row.evals),
                )
            neg_err, _, a, b, depth, val, k = split
            row.panels -= 1
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


def _half_line_breaks(knots: Iterable[float] | None) -> list[float]:
    """Initial panel boundaries in t-space for the r = t/(1-t) substitution."""
    ts = {0.0, 0.5, 1.0}
    if knots is not None:
        for r in knots:
            r = float(r)
            if r > 0.0 and math.isfinite(r):
                ts.add(r / (1.0 + r))
    return sorted(ts)


def _tail(g: Callable, origin: float, sign: float) -> Callable:
    """g over the ray origin + sign * (0, inf), as an integrand on t in (0, 1)
    under x = origin + sign * t/(1-t), with Jacobian 1/(1-t)^2."""

    def gt(rows: np.ndarray, ts: np.ndarray) -> np.ndarray:
        one_minus = 1.0 - ts
        return g(rows, origin + sign * (ts / one_minus)) / (one_minus * one_minus)

    return gt


def _half_line_segments(
    g: Callable, breaks: list[float]
) -> list[tuple[Callable, float, float]]:
    """Segments integrating g over (0, inf) under the substitution r = t/(1-t)."""
    gt = _tail(g, 0.0, 1.0)
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
    QuadratureNonConvergence (carrying the best estimate) if the tolerance
    cannot be met within the subdivision budget.
    """
    segments = _half_line_segments(_lift(f), _half_line_breaks(knots))
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
    segments.append((_tail(g, ks[0], -1.0), 0.0, 1.0))
    segments.append((_tail(g, ks[-1], 1.0), 0.0, 1.0))
    return _integrate_segments(segments, cfg)[0]


def integrate_axisymmetric(
    f: Callable,
    amb: Ambient,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    *,
    axial_knots: Sequence[float] = (0.0,),
    radial_knots: Iterable[float] | None = None,
) -> QuadratureResult:
    """Integrate an axisymmetric integrand f(t, rho) over R^d, d >= 2:

        integral = |S^{d-2}| * int_R int_0^inf f(t, rho) rho^(d-2) drho dt

    with t the axial coordinate and rho >= 0 the distance from the axis
    (for d = 2 the angular factor is |S^0| = 2 and the rho-weight is 1).
    f must broadcast over a column of axial values t, shape (m, 1), and a
    matrix of radii rho, shape (m, 15), returning shape (m, 15).  The radial
    integrals at the 15 nodes of an axial panel refine together as one
    lockstep batch, at 10x tighter relative tolerance so the outer error
    estimate stays meaningful.
    """
    if amb.d < 2:
        raise GeometryError(
            "axisymmetric reduction requires d >= 2; for d = 1 integrate over "
            "the real line split at the centers"
        )
    inner_cfg = QuadratureConfig(rel_tol=cfg.rel_tol * 0.1, abs_tol=cfg.abs_tol * 0.1)
    w = amb.d - 2
    breaks = _half_line_breaks(radial_knots)
    inner_evals = 0

    def radial(t_col: np.ndarray) -> list[QuadratureResult]:
        def g(rows: np.ndarray, rhos: np.ndarray) -> np.ndarray:
            vals = np.asarray(f(t_col[rows], rhos), dtype=float)
            return vals * rhos**w if w else vals

        segments = _half_line_segments(g, breaks)
        return _integrate_segments(segments, inner_cfg, len(t_col))

    def profile(ts: np.ndarray) -> np.ndarray:
        nonlocal inner_evals
        # One batch per axial panel, so that when a radial integral cannot
        # converge, at most 14 others have refined alongside it.
        inner = [r for tp in ts.reshape(-1, len(_NODES)) for r in radial(tp[:, None])]
        inner_evals += sum(r.evaluations for r in inner)
        return np.array([r.value for r in inner])

    outer = integrate_real_line(profile, cfg, knots=axial_knots)
    area = sphere_area(amb.d - 1)
    return QuadratureResult(
        area * outer.value,
        area * outer.error_estimate,
        outer.evaluations + inner_evals,
    )
