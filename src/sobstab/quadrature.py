"""Deterministic adaptive quadrature on the half-line, the real line, and
axisymmetric two-center geometry.

One engine underlies everything: a 15-point Kronrod rule with its embedded
7-point Gauss estimate, applied to panels of a transformed integrand and
refined adaptively (worst panel first, split at the midpoint).  Semi-infinite
directions are compactified with the algebraic substitution r = t/(1-t),
which maps the algebraic decay of every integrand in this toolkit (r^-(d+2s)
or faster) to regular integrable endpoint behavior -- no cutoff parameter.

Integrands may be written either as scalar functions or as numpy-vectorized
functions of an ndarray; the engine detects which on the first panel.  Multi-
scale integrands (superpositions of bubbles at scales lambda_i) should pass
the characteristic radii through ``knots`` so the initial panels already
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


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and refinement budget for one adaptive integration."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    max_subdivisions: int = 30

    def __post_init__(self) -> None:
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise ParameterError("rel_tol and abs_tol must be positive")
        if self.max_subdivisions < 1:
            raise ParameterError("max_subdivisions must be >= 1")


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


class _Integrand:
    """Wraps a user integrand; resolves scalar vs vectorized on first use."""

    def __init__(self, f: Callable, vectorized: bool | None = None):
        self._f = f
        self._vectorized = vectorized

    def __call__(self, xs: np.ndarray) -> np.ndarray:
        if self._vectorized is None:
            try:
                out = np.asarray(self._f(xs), dtype=float)
                if out.shape == xs.shape:
                    self._vectorized = True
                    return out
            except (TypeError, ValueError):
                pass
            self._vectorized = False
        if self._vectorized:
            return np.asarray(self._f(xs), dtype=float)
        return np.fromiter(
            (float(self._f(x)) for x in xs), dtype=float, count=len(xs)
        )


def _panel(g: Callable[[np.ndarray], np.ndarray], a: float, b: float):
    """Evaluate the Kronrod/Gauss pair on [a, b]; returns (value, error)."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    ys = g(c + h * _NODES)
    if not np.all(np.isfinite(ys)):
        raise ParameterError(
            f"integrand returned a non-finite value on panel [{a}, {b}]"
        )
    k15 = h * float(_WK @ ys)
    g7 = h * float(_WGAUSS @ ys)
    return k15, abs(k15 - g7)


def _integrate_segments(
    segments: Sequence[tuple[Callable, float, float]], cfg: QuadratureConfig
) -> QuadratureResult:
    """Adaptive refinement over initial (integrand, a, b) segments.

    Panels are queued by error estimate, largest first, and split at their
    midpoints until the summed estimate meets max(rel_tol*|value|, abs_tol).
    A panel may be bisected at most ``max_subdivisions`` times.
    """
    heap: list[tuple[float, int, Callable, float, float, int]] = []
    live: dict[int, tuple[float, float]] = {}
    seq = 0
    evals = 0

    def push(g, a, b, depth):
        nonlocal seq, evals
        val, err = _panel(g, a, b)
        evals += 15
        live[seq] = (val, err)
        heapq.heappush(heap, (-err, seq, g, a, b, depth))
        seq += 1

    for g, a, b in segments:
        if not b > a:
            raise ParameterError("segment endpoints must be increasing")
        push(g, a, b, 0)

    while True:
        total_val = math.fsum(v for v, _ in live.values())
        total_err = math.fsum(e for _, e in live.values())
        if total_err <= max(cfg.rel_tol * abs(total_val), cfg.abs_tol):
            return QuadratureResult(total_val, total_err, evals)
        # Locate the worst panel that can still be refined.
        split = None
        while heap:
            neg_err, sq, g, a, b, depth = heapq.heappop(heap)
            if sq not in live:
                continue  # stale entry from an earlier split
            if depth >= cfg.max_subdivisions:
                continue  # frozen: keeps contributing, cannot improve
            split = (sq, g, a, b, depth)
            break
        if split is None or len(live) >= _MAX_PANELS:
            raise QuadratureNonConvergence(
                f"tolerance not met: error estimate {total_err:.3e} with "
                f"{len(live)} panels at max_subdivisions={cfg.max_subdivisions}",
                best=QuadratureResult(total_val, total_err, evals),
            )
        sq, g, a, b, depth = split
        del live[sq]
        mid = 0.5 * (a + b)
        push(g, a, mid, depth + 1)
        push(g, mid, b, depth + 1)


def _half_line_breaks(knots: Iterable[float] | None) -> list[float]:
    """Initial panel boundaries in t-space for the r = t/(1-t) substitution."""
    ts = {0.0, 0.5, 1.0}
    if knots is not None:
        for r in knots:
            r = float(r)
            if r > 0.0 and math.isfinite(r):
                ts.add(r / (1.0 + r))
    return sorted(ts)


def integrate_half_line(
    f: Callable,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    *,
    knots: Iterable[float] | None = None,
    vectorized: bool | None = None,
) -> QuadratureResult:
    """Integrate f over (0, inf) under the substitution r = t/(1-t).

    ``knots`` lists characteristic radii at which initial panels are split;
    pass the turnover scales of a multi-scale integrand to keep refinement
    shallow.  Raises QuadratureNonConvergence (carrying the best estimate)
    if the tolerance cannot be met within the subdivision budget.
    """
    fw = _Integrand(f, vectorized)

    def g(ts: np.ndarray) -> np.ndarray:
        one_minus = 1.0 - ts
        return fw(ts / one_minus) / (one_minus * one_minus)

    breaks = _half_line_breaks(knots)
    segments = [(g, a, b) for a, b in zip(breaks[:-1], breaks[1:])]
    return _integrate_segments(segments, cfg)


def integrate_real_line(
    f: Callable,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    *,
    knots: Sequence[float],
    vectorized: bool | None = None,
) -> QuadratureResult:
    """Integrate f over the whole real line.

    ``knots`` (required, nonempty) are finite breakpoints -- typically the
    centers of the bubbles involved; the two tails beyond the extreme knots
    are compactified algebraically.
    """
    ks = sorted({float(k) for k in knots})
    if not ks or not all(math.isfinite(k) for k in ks):
        raise ParameterError("integrate_real_line requires finite, nonempty knots")
    fw = _Integrand(f, vectorized)
    lo, hi = ks[0], ks[-1]

    def g_left(us: np.ndarray) -> np.ndarray:
        one_minus = 1.0 - us
        return fw(lo - us / one_minus) / (one_minus * one_minus)

    def g_right(us: np.ndarray) -> np.ndarray:
        one_minus = 1.0 - us
        return fw(hi + us / one_minus) / (one_minus * one_minus)

    segments: list[tuple[Callable, float, float]] = []
    for a, b in zip(ks[:-1], ks[1:]):
        segments.append((fw, a, b))
    segments.append((g_left, 0.0, 1.0))
    segments.append((g_right, 0.0, 1.0))
    return _integrate_segments(segments, cfg)


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
    f must accept (scalar t, ndarray rho).  The inner radial integration runs
    at 10x tighter relative tolerance so the outer error estimate stays
    meaningful.
    """
    if amb.d < 2:
        raise GeometryError(
            "axisymmetric reduction requires d >= 2; for d = 1 integrate over "
            "the real line split at the centers"
        )
    inner_cfg = QuadratureConfig(
        rel_tol=cfg.rel_tol * 0.1,
        abs_tol=cfg.abs_tol * 0.1,
        max_subdivisions=cfg.max_subdivisions,
    )
    w = amb.d - 2
    inner_evals = [0]

    def profile(t: float) -> float:
        def g(rhos: np.ndarray) -> np.ndarray:
            vals = np.asarray(f(t, rhos), dtype=float)
            return vals * rhos**w if w else vals

        res = integrate_half_line(g, inner_cfg, knots=radial_knots, vectorized=True)
        inner_evals[0] += res.evaluations
        return res.value

    outer = integrate_real_line(profile, cfg, knots=axial_knots, vectorized=False)
    area = sphere_area(amb.d - 1)
    return QuadratureResult(
        area * outer.value,
        area * outer.error_estimate,
        outer.evaluations + inner_evals[0],
    )
