"""Central quantities of the stability analysis on bubble superpositions:
the best-pairing value m(f), the squared distance to the optimizer manifold,
the Sobolev quotient S(f), and the stability quotient E(f).

The distance never touches a derivative: with m(f) = sup_{h in M1} (f, h^(2*-1))^2
one has dist(f, M)^2 = ||f||_{H^s}^2 - S_d m(f), so everything reduces to the
closed-form pairings of the bubbles module plus a low-dimensional maximizer
search; only ||f||_{2*} takes a quadrature.

The m-search is heuristic-global (a fixed grid scan of the closed-form
objective over (axial position, log scale), every grid peak polished by
Newton steps on the objective's exact gradient and Hessian, which the
pairing kernel's derivative rows give in closed form); a certified global
bound is out of scope.  For same-sign concentric superpositions the
maximizer center provably coincides with the common center
(symmetric-decreasing rearrangement), so there the grid is one column in
log(scale).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bubbles import (
    BubbleParam,
    Geometry,
    Superposition,
    _frame,
    _pair_radial,
    hs_norm_sq,
    lp_norm,
    pair_against_bubble,  # noqa: F401 -- unused; bench/spans.py wraps it here
)
from .constants import sharp_constants
from .errors import GeometryError, ParameterError
from .quadrature import DEFAULT_CONFIG, QuadratureConfig

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
_CLUSTER_TOL = 1e-6
_TIE_TOL = 1e-10
# m-search scan: grid points per unit of log scale, and axial points per
# term over its center +- _AXIAL_REACH widths.
_Z_PER_UNIT = 3
_AXIAL_PER_TERM = 25
_AXIAL_REACH = 4.0
# m-search polish: the step below which a start counts as converged (its
# Newton step then leaves an error of order its square, below 2^-50), the
# step below which a Newton step is not taken (an ulp of the probe width or
# log scale), the roundoff in P^2 a step may lose and still be taken, and a
# step cap.
_POLISH_TOL = 2.0**-25
_POLISH_ULP = 2.0**-52
_ROUNDOFF = 2.0**-50
_POLISH_ITERS = 60


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class FunctionalReport:
    hs_norm_sq: float
    lp_norm: float
    m: MOptimum
    dist_sq: float
    sobolev_quotient: float
    be_quotient: float | None


def _grid_peaks(q: np.ndarray) -> np.ndarray:
    """Mask of the positive grid points that no 8-neighbour exceeds."""
    n, k = q.shape
    pad = np.pad(q, 1, constant_values=-np.inf)
    peak = q > 0.0  # False at NaN
    for i in range(3):
        for j in range(3):
            if (i, j) != (1, 1):
                peak &= q >= pad[i : i + n, j : j + k]
    return peak


def _polish(
    amb, axial: tuple, a: np.ndarray, z: np.ndarray, rb: np.ndarray,
    rz: float, z_lo: float, z_hi: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Newton ascent of P(a, z)^2 from every start (a[k], z[k]) at once.

    Every step evaluates P with its exact gradient and Hessian in (b, z), b
    the axial offset in probe widths e^-z (_pair_radial), at the trial
    points of all starts in one objective call.  A trial that lowers P^2 by
    more than roundoff is rejected and its step halved.  Otherwise it
    becomes the start's point, and its next step is Newton's where sign(P)
    times the Hessian is negative definite, else uphill along the gradient;
    either is shrunk whole into one grid cell (rb, rz), and z stays in
    [z_lo, z_hi].  A start stops once its step is below _POLISH_TOL.  A
    Newton step that small is still taken, unevaluated, as it leaves an
    error of the order of its square, unless it is below _POLISH_ULP.
    Returns the polished points and their values P^2.
    """
    q = np.full(len(a), -np.inf)
    ta, tz, sb, sz = a, z, 0.0, 0.0  # trial points, their steps from (a, z)
    done = np.zeros(len(a), dtype=bool)
    for _ in range(_POLISH_ITERS):
        rows = _pair_radial(amb, axial, ta, tz, True)
        p = rows[0]
        up = p * p >= q * (1.0 - _ROUNDOFF)
        a, z, q = np.where(up, ta, a), np.where(up, tz, z), np.where(up, p * p, q)
        gb, gz, hbb, hbz, hzz = np.sign(p) * rows[1:]
        det = hbb * hzz - hbz * hbz
        newton = (hbb < 0) & (det > 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            db = (gz * hbz - gb * hzz) / det
            dz = (gb * hbz - gz * hbb) / det
            if not newton.all():
                # Elsewhere the unit gradient, pushed one unit uphill along
                # the axis where P is not concave in b: on the axis of a
                # concentric u the axial slope vanishes by symmetry, and the
                # gradient alone would stay at a saddle there.
                gn = np.hypot(gb, gz)
                push = ((hbb >= 0) & (rb > 0)) * np.copysign(1.0, gb)
                db = np.where(newton, db, np.nan_to_num(gb / gn) + push)
                dz = np.where(newton, dz, np.nan_to_num(gz / gn))
            # the step's length in grid cells; rb = 0 freezes b
            cells = np.fmax(np.abs(db) / rb, np.abs(dz) / rz)
            fit = 1.0 / np.maximum(cells, newton)
        sb = np.where(up, fit * db, 0.5 * sb)
        sz = np.where(up, fit * dz, 0.5 * sz)
        ta = a + sb * np.exp(-z)
        tz = np.clip(z + sz, z_lo, z_hi)
        size = np.fmax(np.abs(sb), np.abs(sz))
        small = ~(size >= _POLISH_TOL)  # so is a NaN step: no ascent left
        last = small & up & newton & (size >= _POLISH_ULP) & ~done
        a, z = np.where(last, ta, a), np.where(last, tz, z)
        done |= small
        if done.all():
            break
        ta, tz = np.where(done, a, ta), np.where(done, z, tz)
    return a, z, q


def m_value(u: Superposition) -> MOptimum:
    """Global maximum of (u, B_{x,mu}^(2*-1))^2 over admissible (x, mu).

    The probe center runs along the axis of u's centers (for concentric u
    any axis through the common center), its log scale over
    [log(min lambda_i) - 12, log(max lambda_i) + 12].  The closed-form
    objective is scanned on one grid, _Z_PER_UNIT points per unit of log
    scale times an axial set: for same-sign concentric u the common center
    alone, where symmetric-decreasing rearrangement puts the maximizer;
    otherwise _AXIAL_PER_TERM points over each center +- _AXIAL_REACH widths
    1/lambda_i and as many over the whole cloud.  Every positive grid point
    that no neighbour exceeds is polished by Newton steps on the exact
    derivatives (_polish).  The search runs in the frame dilated by the power
    of two that centers the log2 scales on 0, so that no probe scale leaves
    the float range; the maximizers are dilated back.
    all_local_maxima lists the polished peaks, those closer than
    _CLUSTER_TOL in both axial position (in probe widths) and log scale
    merged to the best.  No positive grid value means the terms of u
    cancel, and raises ParameterError.
    """
    geo, p0, e, pos = _frame(u)
    if geo is Geometry.GENERAL:
        raise GeometryError("m_value requires concentric or collinear centers")
    amb = u.ambient
    # m is dilation invariant, and a dilation by 2^-shift is exact.
    shift = round(sum(math.log2(t.scale) for t in u.terms) / len(u.terms))
    coeffs = np.array([t.coeff for t in u.terms])
    lams = np.ldexp([t.scale for t in u.terms], -shift)
    pos = np.ldexp(pos, shift)
    axial = (coeffs, pos, lams)
    lo = math.log(lams.min()) - _LOG_DOMAIN_PAD
    hi = math.log(lams.max()) + _LOG_DOMAIN_PAD
    zs = np.linspace(lo, hi, math.ceil(_Z_PER_UNIT * (hi - lo)) + 1)
    if geo is Geometry.CONCENTRIC and (all(coeffs > 0) or all(coeffs < 0)):
        axis_pts = np.zeros(1)
    else:
        reach = _AXIAL_REACH / lams
        spans = list(zip(pos - reach, pos + reach))
        spans.append(((pos - reach).min(), (pos + reach).max()))
        axis_pts = np.unique(
            np.concatenate([np.linspace(l, r, _AXIAL_PER_TERM) for l, r in spans])
        )
    grid = _pair_radial(amb, axial, axis_pts[:, None], zs)
    ia, iz = np.nonzero(_grid_peaks(grid * grid))
    if not ia.size:
        raise ParameterError(
            "the terms of u cancel: no probe bubble pairs with u, so m has "
            "no maximizer"
        )
    # A step spans at most one grid cell, and along the axis at least half a
    # probe width, since a cell sized by the terms is tiny against a wide probe.
    gaps = np.diff(axis_pts, prepend=axis_pts[0], append=axis_pts[-1])
    cell = np.maximum(gaps[:-1], gaps[1:])[ia]
    z0 = zs[iz]
    rb = np.where(cell > 0, np.maximum(cell * np.exp(z0), 0.5), 0.0)
    pa, pz, pv = _polish(amb, axial, axis_pts[ia], z0, rb, zs[1] - zs[0], lo, hi)

    merged: list[tuple[float, float, float]] = []
    for a, lm, v in sorted(zip(pa.tolist(), pz.tolist(), pv.tolist())):
        for k, (am, lmm, vm) in enumerate(merged):
            if (
                abs(a - am) * math.exp(max(lm, lmm)) <= _CLUSTER_TOL
                and abs(lm - lmm) <= _CLUSTER_TOL
            ):
                if v > vm:
                    merged[k] = (a, lm, v)
                break
        else:
            merged.append((a, lm, v))
    bubbles = [
        (BubbleParam(1.0, tuple(p0 + math.ldexp(a, -shift) * e),
                     math.ldexp(math.exp(lm), shift)), v)
        for a, lm, v in merged
    ]
    bubbles.sort(key=lambda bv: (-bv[1], math.log(bv[0].scale)))
    best_value = bubbles[0][1]
    tied = [b for b, v in bubbles if v >= best_value - _TIE_TOL]
    maximizer = min(tied, key=lambda b: b.scale)
    return MOptimum(best_value, maximizer, tuple(bubbles))


def dist_sq(u: Superposition) -> float:
    """Squared H^s distance to the manifold: hs_norm_sq - S_d * m(u),
    clamped at 0 when the rounding of its closed-form terms takes the
    difference below 0."""
    return _dist_sq_from(u, hs_norm_sq(u), m_value(u))


def _dist_sq_from(u: Superposition, hs: float, mopt: MOptimum) -> float:
    value = math.fsum([hs, -sharp_constants(u.ambient).S_d * mopt.value])
    return value if value > 0.0 else 0.0


def _nonzero_hs_norm_sq(u: Superposition) -> float:
    """hs_norm_sq(u), or ParameterError when it rounds to 0 or below."""
    hs = hs_norm_sq(u)
    if not hs > 0.0:
        raise ParameterError(
            f"the terms of u cancel: hs_norm_sq is {hs!r}, so no quotient "
            "is defined"
        )
    return hs


def sobolev_quotient(u: Superposition, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """S(u) = hs_norm_sq / lp_norm^2; always >= S_d up to quadrature noise."""
    hs = _nonzero_hs_norm_sq(u)
    lp = lp_norm(u, cfg)
    return hs / (lp * lp)


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
    """All functional-level quantities of u in one pass; ParameterError if
    the terms of u cancel (hs_norm_sq not positive)."""
    amb = u.ambient
    cst = sharp_constants(amb)
    hs = _nonzero_hs_norm_sq(u)
    lp = lp_norm(u, cfg)
    mopt = m_value(u)
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
