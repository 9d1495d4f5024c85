"""Central quantities of the stability analysis on bubble superpositions:
the best-pairing value m(f), the squared distance to the optimizer manifold,
the Sobolev quotient S(f), and the stability quotient E(f).

The distance never touches a derivative: with m(f) = sup_{h in M1} (f, h^(2*-1))^2
one has dist(f, M)^2 = ||f||_{H^s}^2 - S_d m(f), so everything reduces to the
closed-form pairings of the bubbles module plus a low-dimensional maximizer
search; only ||f||_{2*} takes a quadrature.

The m-search is heuristic-global (deterministic multi-start); a certified
global bound is out of scope.  For same-sign concentric superpositions the
maximizer center provably coincides with the common center (symmetric-
decreasing rearrangement), so the search is one-dimensional in log(scale);
sign-changing or collinear configurations get a derivative-free simplex
search over (axial coordinate, log scale) seeded at every term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .bubbles import (
    BubbleParam,
    Geometry,
    Superposition,
    _axis,
    _conformal_ratio,
    _pair_radial,
    hs_norm_sq,
    lp_norm,
    pair_against_bubble,  # noqa: F401 -- unused; bench/spans.py wraps it here
)
from .constants import sharp_constants
from .errors import GeometryError, OptimizerError
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, check_config

__all__ = [
    "MOptimum",
    "FunctionalReport",
    "m_value",
    "dist_sq",
    "sobolev_quotient",
    "be_quotient",
    "functional_report",
    "ON_MANIFOLD_REL_TOL",
]

# dist_sq below this fraction of hs_norm_sq counts as "on the manifold",
# where the stability quotient is ill-defined.
ON_MANIFOLD_REL_TOL = 1e-8

_LOG_DOMAIN_PAD = 12.0
_GOLDEN_XTOL = 1e-10
_CLUSTER_TOL = 1e-6
_TIE_TOL = 1e-10


@dataclass(frozen=True)
class MOptimum:
    """Result of the m(f) maximizer search.

    value            -- m(f), the squared best pairing
    maximizer        -- the optimal unit-coefficient bubble (ties broken
                        toward the smaller log scale)
    all_local_maxima -- every distinct local maximum found, as
                        (bubble, squared pairing), best first
    """

    value: float
    maximizer: BubbleParam
    all_local_maxima: tuple[tuple[BubbleParam, float], ...]


@dataclass(frozen=True)
class FunctionalReport:
    hs_norm_sq: float
    lp_norm: float
    m: MOptimum
    dist_sq: float
    sobolev_quotient: float
    be_quotient: float | None


def _golden_max(
    q: Callable[[float], float], a: float, b: float, xtol: float
) -> tuple[float, float]:
    """Golden-section maximization of a unimodal q on [a, b]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    invphi2 = 1.0 - invphi
    h = b - a
    x1 = a + invphi2 * h
    x2 = a + invphi * h
    f1 = q(x1)
    f2 = q(x2)
    while h > xtol:
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            h = b - a
            x1 = a + invphi2 * h
            f1 = q(x1)
        else:
            a, x1, f1 = x1, x2, f2
            h = b - a
            x2 = a + invphi * h
            f2 = q(x2)
    x = 0.5 * (a + b)
    return x, q(x)


def _expand_bracket(
    q: Callable[[float], float], x0: float, step: float, lo: float, hi: float
) -> tuple[float, float]:
    """Expand from x0 until a local maximum is bracketed (or a bound is hit)."""
    x0 = min(max(x0, lo), hi)
    xl, xr = max(lo, x0 - step), min(hi, x0 + step)
    fl, f0, fr = q(xl), q(x0), q(xr)
    if f0 >= fl and f0 >= fr:
        return xl, xr
    if fr >= fl:
        prev, cur, fprev, fcur, direction = x0, xr, f0, fr, 1.0
        anchor = xl
    else:
        prev, cur, fprev, fcur, direction = x0, xl, f0, fl, -1.0
        anchor = xr
    while True:
        step *= 2.0
        nxt = cur + direction * step
        nxt = min(max(nxt, lo), hi)
        if nxt == cur:  # pinned at a bound while still rising
            return (min(anchor, cur), max(anchor, cur))
        fnxt = q(nxt)
        if fnxt < fcur:
            return (min(prev, nxt), max(prev, nxt))
        anchor, prev, cur, fprev, fcur = prev, cur, nxt, fcur, fnxt


def _cluster_1d(
    cands: list[tuple[float, float]], tol: float
) -> list[tuple[float, float]]:
    """Merge (x, value) candidates closer than tol in x, keeping the best."""
    out: list[tuple[float, float]] = []
    for x, v in sorted(cands):
        if out and x - out[-1][0] <= tol:
            if v > out[-1][1]:
                out[-1] = (x, v)
        else:
            out.append((x, v))
    return out


def m_value(u: Superposition, cfg: QuadratureConfig = DEFAULT_CONFIG) -> MOptimum:
    """Global maximum of (u, B_{x,mu}^(2*-1))^2 over admissible (x, mu).

    Search domain for log mu: [log(min lambda_i) - 12, log(max lambda_i) + 12];
    the algebraic decay of the pairing in the scale ratio keeps the supremum
    interior for same-sign configurations.
    """
    check_config(cfg)
    amb = u.ambient
    geo = u.geometry
    if geo is Geometry.GENERAL:
        raise GeometryError("m_value requires concentric or collinear centers")
    log_scales = sorted(math.log(t.scale) for t in u.terms)
    lo = log_scales[0] - _LOG_DOMAIN_PAD
    hi = log_scales[-1] + _LOG_DOMAIN_PAD
    coeffs = [t.coeff for t in u.terms]
    same_sign = all(c > 0 for c in coeffs) or all(c < 0 for c in coeffs)

    if geo is Geometry.CONCENTRIC and same_sign:
        x0 = u.terms[0].center
        cls = [(t.coeff, t.scale) for t in u.terms]

        def q(lm: float) -> float:
            p = _pair_radial(amb, cls, math.exp(lm))
            return p * p

        starts = list(log_scales)
        starts += [0.5 * (a + b) for a, b in zip(log_scales[:-1], log_scales[1:])]
        cands = []
        for s0 in sorted(set(starts)):
            a, b = _expand_bracket(q, s0, 0.5, lo, hi)
            cands.append(_golden_max(q, a, b, _GOLDEN_XTOL))
        local = _cluster_1d(cands, _CLUSTER_TOL)
        bubbles = [
            (BubbleParam(1.0, x0, math.exp(lm)), v) for lm, v in local
        ]
    else:
        from scipy import optimize  # only this branch needs it

        centers = u._centers()
        p0, e, ts = _axis(centers)
        axial = [(t.coeff, float(ts[i]), t.scale) for i, t in enumerate(u.terms)]

        # Pairings go through the conformal invariant: the term at axial
        # position t_i contributes c_i F(t_i) for the probe at (a, mu).
        def q2(z: Sequence[float]) -> float:
            a, lm = float(z[0]), float(z[1])
            lm = min(max(lm, -700.0), 700.0)
            mu = math.exp(lm)
            cls = [
                (c, _conformal_ratio(lam, mu, (ti - a) ** 2))
                for c, ti, lam in axial
            ]
            p = _pair_radial(amb, cls, 1.0)
            return p * p

        cands2: list[tuple[float, float, float]] = []
        best_failed = None
        for i, t in enumerate(u.terms):
            seed = np.array([ts[i], math.log(t.scale)])
            res = optimize.minimize(
                lambda z: -q2(z),
                seed,
                method="Nelder-Mead",
                options=dict(xatol=1e-9, fatol=1e-13, maxiter=600, maxfev=900),
            )
            if not res.success:
                res = optimize.minimize(
                    lambda z: -q2(z),
                    res.x,
                    method="Nelder-Mead",
                    options=dict(xatol=1e-9, fatol=1e-13, maxiter=2000, maxfev=3000),
                )
            if res.success:
                cands2.append((float(res.x[0]), float(res.x[1]), -float(res.fun)))
            else:
                best_failed = (float(res.x[0]), float(res.x[1]), -float(res.fun))
        if not cands2:
            a, lm, v = best_failed
            partial = MOptimum(
                v,
                BubbleParam(1.0, tuple(p0 + a * e), math.exp(lm)),
                (),
            )
            raise OptimizerError(
                "maximizer search did not converge from any start", best=partial
            )
        merged: list[tuple[float, float, float]] = []
        for a, lm, v in sorted(cands2):
            dup = False
            for k, (am, lmm, vm) in enumerate(merged):
                if abs(a - am) <= _CLUSTER_TOL and abs(lm - lmm) <= _CLUSTER_TOL:
                    if v > vm:
                        merged[k] = (a, lm, v)
                    dup = True
                    break
            if not dup:
                merged.append((a, lm, v))
        bubbles = [
            (BubbleParam(1.0, tuple(p0 + a * e), math.exp(lm)), v)
            for a, lm, v in merged
        ]

    bubbles.sort(key=lambda bv: (-bv[1], math.log(bv[0].scale)))
    best_value = bubbles[0][1]
    tied = [b for b, v in bubbles if v >= best_value - _TIE_TOL]
    maximizer = min(tied, key=lambda b: b.scale)
    return MOptimum(best_value, maximizer, tuple(bubbles))


def dist_sq(u: Superposition, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Squared H^s distance to the manifold: hs_norm_sq - S_d * m(u),
    clamped at 0 when the subtraction lands within quadrature noise of 0."""
    hs = hs_norm_sq(u, cfg)
    mopt = m_value(u, cfg)
    return _dist_sq_from(u, hs, mopt)


def _dist_sq_from(u: Superposition, hs: float, mopt: MOptimum) -> float:
    value = math.fsum([hs, -sharp_constants(u.ambient).S_d * mopt.value])
    return value if value > 0.0 else 0.0


def sobolev_quotient(u: Superposition, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """S(u) = hs_norm_sq / lp_norm^2; always >= S_d up to quadrature noise."""
    lp = lp_norm(u, cfg)
    return hs_norm_sq(u, cfg) / (lp * lp)


def be_quotient(
    u: Superposition, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> float | None:
    """Stability quotient (hs_norm_sq - S_d lp_norm^2)/dist_sq, or None when
    u lies on the manifold (dist_sq < 1e-8 * hs_norm_sq) and the quotient is
    ill-defined."""
    return functional_report(u, cfg).be_quotient


def functional_report(
    u: Superposition, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> FunctionalReport:
    """All functional-level quantities of u in one pass."""
    amb = u.ambient
    cst = sharp_constants(amb)
    hs = hs_norm_sq(u, cfg)
    lp = lp_norm(u, cfg)
    mopt = m_value(u, cfg)
    d2 = _dist_sq_from(u, hs, mopt)
    sob = hs / (lp * lp)
    if d2 < ON_MANIFOLD_REL_TOL * hs:
        be = None
    else:
        be = math.fsum([hs, -cst.S_d * lp * lp]) / d2
    return FunctionalReport(
        hs_norm_sq=hs,
        lp_norm=lp,
        m=mopt,
        dist_sq=d2,
        sobolev_quotient=sob,
        be_quotient=be,
    )
