"""Central quantities of the stability analysis on bubble superpositions:
the best-pairing value m(f), the squared distance to the optimizer manifold,
the Sobolev quotient S(f), and the stability quotient E(f).

The distance never touches a derivative: with m(f) = sup_{h in M1} (f, h^(2*-1))^2
one has dist(f, M)^2 = ||f||_{H^s}^2 - S_d m(f), so everything reduces to the
closed-form pairings of the bubbles module plus a low-dimensional maximizer
search; only ||f||_{2*} takes a quadrature.

The m-search is heuristic-global (a fixed grid scan of the closed-form
objective over (axial position, log scale), every grid peak polished by
Newton steps); a certified global bound is out of scope.  For same-sign
concentric superpositions the maximizer center provably coincides with the
common center (symmetric-decreasing rearrangement), so there the grid is one
column in log(scale).
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
# m-search polish: central-difference step (in log scale and in probe
# widths), the step below which a peak counts as converged, and a step cap.
_FD_STEP = 1e-5
_POLISH_TOL = 1e-9
_POLISH_ITERS = 60
# Stencil offsets (axial, log scale), flattened from [b offset, z offset]
# with offsets ordered (0, -1, +1).
_DB, _DZ = np.array([(i, j) for i in (0, -1, 1) for j in (0, -1, 1)], float).T


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
    rz: np.ndarray, z_lo: float, z_hi: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Newton ascent of P(a, z)^2 from every start (a[k], z[k]) at once.

    Gradient and Hessian come from a 3x3 central-difference stencil in
    (b, z), b the axial offset in probe widths e^-z; the stencils of all
    starts go into one objective call per step.  A step is clipped to the
    trust box (rb, rz) and to [z_lo, z_hi], and accepted only if the value
    does not decrease.  The box then doubles, up to its initial size;
    after a rejection it shrinks to half the rejected step.  A start is
    done once its step is below _POLISH_TOL.  Returns the polished points
    and their values.
    """
    h = _FD_STEP
    q = np.full(len(a), -np.inf)
    ta, tz = a.copy(), z.copy()  # trial points
    rb0, rz0 = rb.copy(), rz.copy()
    grad = np.zeros((len(a), 2))
    hess = np.zeros((len(a), 3))  # (bb, zz, bz)
    live = np.arange(len(a))
    for _ in range(_POLISH_ITERS):
        if not live.size:
            break
        w = np.exp(-tz[live, None])
        qs = _pair_radial(
            amb, axial, ta[live, None] + h * w * _DB, tz[live, None] + h * _DZ
        )
        qs = (qs * qs).reshape(-1, 3, 3)  # [k, b offset (0, -1, +1), z offset]
        up = qs[:, 0, 0] >= q[live]
        acc, rej = live[up], live[~up]
        rb[rej] = 0.5 * np.abs(ta[rej] - a[rej]) * np.exp(z[rej])
        rz[rej] = 0.5 * np.abs(tz[rej] - z[rej])
        rb[acc] = np.minimum(2.0 * rb[acc], rb0[acc])
        rz[acc] = np.minimum(2.0 * rz[acc], rz0[acc])
        qa = qs[up]
        a[acc], z[acc], q[acc] = ta[acc], tz[acc], qa[:, 0, 0]
        grad[acc] = np.stack(
            [qa[:, 2, 0] - qa[:, 1, 0], qa[:, 0, 2] - qa[:, 0, 1]], 1
        ) / (2 * h)
        hess[acc] = np.stack(
            [
                qa[:, 2, 0] - 2 * qa[:, 0, 0] + qa[:, 1, 0],
                qa[:, 0, 2] - 2 * qa[:, 0, 0] + qa[:, 0, 1],
                0.25 * (qa[:, 2, 2] - qa[:, 2, 1] - qa[:, 1, 2] + qa[:, 1, 1]),
            ],
            1,
        ) / (h * h)

        (gb, gz), (hbb, hzz, hbz) = grad[live].T, hess[live].T
        rbl, rzl = rb[live], rz[live]
        det = hbb * hzz - hbz * hbz
        newton = (hbb < 0) & (det > 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            # Newton where the Hessian is negative definite, else a 1-D
            # Newton step per coordinate, or the box edge uphill
            db = np.where(
                newton, (gz * hbz - gb * hzz) / det,
                np.where(hbb < 0, -gb / hbb, np.copysign(np.inf, gb)),
            )
            dz = np.where(
                newton, (gb * hbz - gz * hbb) / det,
                np.where(hzz < 0, -gz / hzz, np.copysign(np.inf, gz)),
            )
            db[rbl == 0] = 0.0
            # a Newton step is shrunk into the box whole, which keeps it an
            # ascent direction; the per-coordinate steps are clipped
            fit = np.fmin(1.0, np.fmin(rbl / np.abs(db), rzl / np.abs(dz)))
        fit[~newton] = 1.0
        db = np.clip(fit * db, -rbl, rbl)
        ta[live] = a[live] + db * np.exp(-z[live])
        tz[live] = np.clip(z[live] + np.clip(fit * dz, -rzl, rzl), z_lo, z_hi)
        live = live[
            (np.abs(db) > _POLISH_TOL) | (np.abs(tz[live] - z[live]) > _POLISH_TOL)
        ]
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
    that no neighbour exceeds is polished by trust-region Newton steps
    (_polish).
    all_local_maxima lists the polished peaks, those closer than
    _CLUSTER_TOL in both axial position (in probe widths) and log scale
    merged to the best.  No positive grid value means the terms of u
    cancel, and raises ParameterError.
    """
    geo, p0, e, pos = _frame(u)
    if geo is Geometry.GENERAL:
        raise GeometryError("m_value requires concentric or collinear centers")
    amb = u.ambient
    coeffs = np.array([t.coeff for t in u.terms])
    lams = np.array([t.scale for t in u.terms])
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
    # Trust box: one grid cell, and along the axis at least half a probe
    # width, since a cell sized by the terms is tiny against a wide probe.
    gaps = np.diff(axis_pts, prepend=axis_pts[0], append=axis_pts[-1])
    cell = np.maximum(gaps[:-1], gaps[1:])[ia]
    z0 = zs[iz]
    rb = np.where(cell > 0, np.maximum(cell * np.exp(z0), 0.5), 0.0)
    pa, pz, pv = _polish(
        amb, axial, axis_pts[ia], z0, rb, np.full(len(ia), zs[1] - zs[0]), lo, hi
    )

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
        (BubbleParam(1.0, tuple(p0 + a * e), math.exp(lm)), v)
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
