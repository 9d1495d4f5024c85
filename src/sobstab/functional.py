"""Central quantities of the stability analysis on bubble superpositions:
the best-pairing value m(f), the squared distance to the optimizer manifold,
the Sobolev quotient S(f), and the stability quotient E(f).

The distance never touches a derivative: with m(f) = sup_{h in M1} (f, h^(2*-1))^2
one has dist(f, M)^2 = ||f||_{H^s}^2 - S_d m(f), so everything reduces to the
closed-form pairings of the bubbles module plus a low-dimensional maximizer
search; only ||f||_{2*} takes a quadrature.

A probe bubble (x, mu) is the point (x, 1/mu) of hyperbolic space H^(d+1),
and two bubbles pair as F(rho) of their distance rho (e = 2 cosh rho - 2).
F is strictly decreasing and log-concave in rho, as the cross-correlation of
the log-concave profile (2 cosh v)^(-a) with its (2*-1)-th power
(Prekopa-Leindler).  For a pair, grad P = c1 F'(rho_1) grad rho_1 +
c2 F'(rho_2) grad rho_2 vanishes only where the two distance gradients are
parallel: on the geodesic through the terms' points.  There the second
variation across it, sum c_i F'(rho_i) coth(rho_i) (the Hessian of rho is
coth(rho) (g - d rho d rho)), makes the point a maximum of P^2 across it:
between the points c1 and c2 share a sign, beyond them log-concavity gives
P the nearer term's.  So a pair's local maxima are those along that one
geodesic, and P there depends on the distances to the two points alone:
every pair is searched as its canonical concentric pair, c1 and c2 on one
center at log scales -rho/2 and rho/2 (rho the distance of the terms'
points), along that center's column in log(scale), and each maximum at log
scale z is mapped to the point at arc length z from the midpoint of the
input's geodesic.  Same-sign concentric u of three or more terms has its
maximizer at the common center (symmetric-decreasing rearrangement), so
its scan is that column too.  Any other u of three or more terms is
searched heuristic-global, on a grid over (axial position, log scale).
Every scan peak is polished by Newton steps on the objective's exact
gradient and Hessian, which the kernel's derivative rows give in closed
form; a certified global bound is out of scope.
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
    _hyperbolic_distance,
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


def _geodesic(
    pos: np.ndarray, lams: np.ndarray, rho: float, z: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Points (axial position, log scale) at arc lengths z from the midpoint
    of the geodesic through the points (x_i, 1/lambda_i) of a pair, rho
    apart, toward the first for z < 0: the images of the log scales z of
    the pair's canonical column.

    Each half is laid out from its own term, in its units (it at (0, 1), the
    other at (x, y)), at arc length s = |z| - rho/2 from it, s > 0 away from
    the other: with tan(theta) = c + R sign(x) the geodesic's end beyond the
    other, c its center and R = hypot(c, 1), the point is
    (-sign(s) sin cos (1 - k^2), k) / D, k = e^-|s|,
    D = k^2 + (1 - k^2) sin^2, cos^2 for s < 0: nothing cancels near a term.
    When the terms share a center (so at rho = 0) the geodesic is their
    column, where the log scale moves by s exactly and the center stays.
    """
    (x1, x2), (l1, l2) = pos.tolist(), lams.tolist()
    half = (z > 0).astype(int)  # 0 on the first term's half, 1 on the second's
    s = np.abs(z) - 0.5 * rho
    lam = lams[half]
    if x1 == x2:  # the column: scales grow away from a wider other
        return pos[half], np.log(lam) + np.where(lam > lams[1 - half], s, -s)
    tans = []
    for xi, li, xj, lj in ((x1, l1, x2, l2), (x2, l2, x1, l1)):
        x, y = li * (xj - xi), li / lj
        c = 0.5 * x + 0.5 * (y - 1.0) * (y + 1.0) / x
        r = abs(c) + math.hypot(c, 1.0)  # c + R sign(x) = -1/(c - R sign(x))
        tans.append(math.copysign(r if (c < 0.0) == (x < 0.0) else 1.0 / r, x))
    theta = np.arctan(tans)[half]
    sn, cs = np.sin(theta), np.cos(theta)
    k2, m1 = np.exp(-2.0 * np.abs(s)), np.expm1(-2.0 * np.abs(s))  # m1 = k^2 - 1
    d = k2 - m1 * np.where(s > 0, sn * sn, cs * cs)
    a = pos[half] + np.sign(s) * sn * cs * m1 / d / lam
    return a, np.log(lam) + np.abs(s) + np.log(d)


def _polish(
    amb, axial: tuple, a: np.ndarray, z: np.ndarray, rb: np.ndarray | float,
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
                # gradient alone would stay at a saddle there.  With b frozen
                # the push goes along z, where P^2 is not concave in it: a
                # column point can sit on the minimum between two mirror
                # peaks of a symmetric pair, where the slope in z is 0.
                gn = np.hypot(gb, gz)
                push = ((hbb >= 0) & (rb > 0)) * np.copysign(1.0, gb)
                lift = ((hzz >= 0) & (rb == 0)) * np.copysign(1.0, gz)
                db = np.where(newton, db, np.nan_to_num(gb / gn) + push)
                dz = np.where(newton, dz, np.nan_to_num(gz / gn) + lift)
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
    any axis through the common center).  A pair is scanned on its
    canonical column (see the module docstring): _Z_PER_UNIT log scales per
    unit from each term out to _LOG_DOMAIN_PAD beyond it, and the midpoint
    between them, so that the probes mirror each other about it; its
    polished maxima are mapped onto the geodesic through its terms' points
    (_geodesic).  Other u scan _Z_PER_UNIT log scales per unit over
    [log(min lambda_i) - 12, log(max lambda_i) + 12] times an axial set: for
    same-sign concentric u the common center alone, otherwise
    _AXIAL_PER_TERM points over each center +- _AXIAL_REACH widths
    1/lambda_i and as many over the whole cloud.  Every positive scan point
    that no neighbour exceeds is polished (_polish), with b frozen on a
    column.  The search runs in the frame dilated by the power of two that
    centers the log2 scales on 0, so that no probe scale leaves the float
    range; the maximizers are dilated back.  all_local_maxima lists the
    polished peaks, those closer than _CLUSTER_TOL in both axial position
    (in probe widths) and log scale merged to the best.  No positive scan
    value means the terms of u cancel, and raises ParameterError.
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
    axis_pts = np.zeros(1)
    if len(coeffs) == 2:
        # The canonical column: both terms at 0, at log scales -+rho/2.
        rho = _hyperbolic_distance(*u.terms)
        axial = (coeffs, np.zeros(2), np.exp([-0.5 * rho, 0.5 * rho]))
        steps = np.arange(
            1 - math.ceil(0.5 * _Z_PER_UNIT * rho), _Z_PER_UNIT * _LOG_DOMAIN_PAD + 1
        ) / _Z_PER_UNIT
        zs = np.concatenate([-0.5 * rho - steps[::-1], [0.0], 0.5 * rho + steps])
    else:
        axial = (coeffs, pos, lams)
        lo = math.log(lams.min()) - _LOG_DOMAIN_PAD
        hi = math.log(lams.max()) + _LOG_DOMAIN_PAD
        zs = np.linspace(lo, hi, math.ceil(_Z_PER_UNIT * (hi - lo)) + 1)
        if geo is Geometry.COLLINEAR or not (all(coeffs > 0) or all(coeffs < 0)):
            reach = _AXIAL_REACH / lams
            spans = list(zip(pos - reach, pos + reach))
            spans.append(((pos - reach).min(), (pos + reach).max()))
            axis_pts = np.unique(
                np.concatenate([np.linspace(l, r, _AXIAL_PER_TERM) for l, r in spans])
            )
    lo, hi, rz = zs[0], zs[-1], zs[1] - zs[0]
    grid = _pair_radial(amb, axial, axis_pts[:, None], zs)
    ia, iz = np.nonzero(_grid_peaks(grid * grid))
    if not ia.size:
        raise ParameterError(
            "the terms of u cancel: no probe bubble pairs with u, so m has "
            "no maximizer"
        )
    a0, z0 = axis_pts[ia], zs[iz]
    rb = 0.0  # b stays frozen on a column
    if axis_pts.size > 1:
        # A step spans at most one grid cell, and along the axis at least
        # half a probe width: a cell sized by the terms is tiny to a wide probe.
        gaps = np.diff(axis_pts, prepend=axis_pts[0], append=axis_pts[-1])
        rb = np.maximum(np.maximum(gaps[:-1], gaps[1:])[ia] * np.exp(z0), 0.5)
    pa, pz, pv = _polish(amb, axial, a0, z0, rb, rz, lo, hi)
    if len(coeffs) == 2:
        pa, pz = _geodesic(pos, lams, rho, pz)

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
