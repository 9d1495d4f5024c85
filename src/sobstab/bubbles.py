"""Talenti bubble algebra: parameterized bubbles, conformal actions,
pointwise evaluation, and the pairings/norms of finite superpositions.

Every H^s quantity is computed through the eigenvalue identity
(-Delta)^s B_{x,lambda} = S_d B_{x,lambda}^(2*-1): inner products reduce to
weighted L^2-type pairings (B_i, B_j^(2*-1)), and the fractional Laplacian is
never discretized.  A pairing depends only on the conformal invariant of its
two bubbles and is evaluated in closed form, as a Gauss hypergeometric
function summed by numpy series whose coefficients are computed once per
ambient (_pair_kernel).  The critical norm ||u||_{2*} has no closed form and
is integrated by quadrature: radial for CONCENTRIC configurations (all
centers coincide) and for every pair, which is conformally equivalent to the
concentric pair at its conformal ratio; over (axial position, distance from
the axis) for COLLINEAR configurations of three or more terms (all centers
on one line; at distance 0 when d = 1).  Any two centers lie on one line, so
every two-bubble configuration has such a frame: _frame computes it once per
call (geometry class, origin, unit axis, axial positions) for
Superposition.geometry, lp_norm and the m-search.  The pairings hold for any
centers; lp_norm and the m-search reject GENERAL center clouds.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Sequence

import numpy as np

from .constants import Ambient, sharp_constants, sphere_area
from .errors import GeometryError, ParameterError, SchemaError
from .quadrature import (
    DEFAULT_CONFIG,
    QuadratureConfig,
    check_config,
    integrate_axisymmetric,
    integrate_real_line,
)

__all__ = [
    "BubbleParam",
    "Superposition",
    "Geometry",
    "evaluate",
    "dilate",
    "invert",
    "pair_against_bubble",
    "hs_inner",
    "hs_norm_sq",
    "lp_norm",
    "superposition_from_dict",
    "superposition_to_dict",
]

# Centers closer than this to the first (relative to the cloud size or the
# narrowest bubble's width) coincide; offsets from the axis below this
# (relative to the cloud's extent) lie on it.
_CENTER_TOL = 1e-14
_ZERO = 0.0


class Geometry(Enum):
    CONCENTRIC = "CONCENTRIC"
    COLLINEAR = "COLLINEAR"
    GENERAL = "GENERAL"


@dataclass(frozen=True, slots=True)
class BubbleParam:
    """One weighted, translated, scaled bubble: coeff * B_{center, scale}."""

    coeff: float
    center: tuple[float, ...]
    scale: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeff", float(self.coeff))
        object.__setattr__(self, "scale", float(self.scale))
        # Exact +0.0 coordinates share one float (an on-axis maximizer has
        # d - 1 of them); -0.0 keeps its sign.
        center = map(float, np.atleast_1d(self.center))
        object.__setattr__(self, "center", tuple(
            _ZERO if c == 0.0 and math.copysign(1.0, c) > 0.0 else c for c in center
        ))
        if self.coeff == 0.0 or not math.isfinite(self.coeff):
            raise ParameterError(f"coeff must be finite and nonzero, got {self.coeff}")
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise ParameterError(f"scale must be finite and > 0, got {self.scale}")
        if not all(math.isfinite(c) for c in self.center):
            raise ParameterError("center coordinates must be finite")


@dataclass(frozen=True)
class Superposition:
    """A finite bubble superposition in a fixed ambient (d, s)."""

    ambient: Ambient
    terms: tuple[BubbleParam, ...]

    def __post_init__(self) -> None:
        terms = tuple(self.terms)
        if not terms:
            raise ParameterError("a superposition needs at least one term")
        for i, t in enumerate(terms):
            if len(t.center) != self.ambient.d:
                raise ParameterError(
                    f"terms[{i}].center has length {len(t.center)}, "
                    f"expected d = {self.ambient.d}"
                )
        object.__setattr__(self, "terms", terms)

    @property
    def geometry(self) -> Geometry:
        return _frame(self)[0]


def _frame(u: Superposition) -> tuple[Geometry, np.ndarray, np.ndarray, np.ndarray]:
    """Geometry class and collinear frame of u's centers: the origin (the
    first center), the unit axis and the axial position of every center.

    The axis points from the first center to the farthest one; when all
    centers coincide it is the first basis vector, so the same frame serves
    searches around the common center.  The cloud is CONCENTRIC when every
    center lies within _CENTER_TOL of the first, relative to the larger of
    the cloud size and the width 1/lambda of its narrowest bubble, and
    COLLINEAR when every offset from the axis lies within _CENTER_TOL of the
    cloud's extent.
    """
    centers = np.array([t.center for t in u.terms], dtype=float)
    p0 = centers[0]
    diffs = centers - p0
    # hypot, unlike a sum of squares, cannot overflow on finite offsets.
    norms = np.hypot.reduce(diffs, axis=1)
    extent = norms.max()
    if extent == 0.0:
        e = np.zeros(len(p0))
        e[0] = 1.0
        return Geometry.CONCENTRIC, p0, e, np.zeros(len(centers))
    e = diffs[int(norms.argmax())] / extent
    pos = diffs @ e
    width = 1.0 / max(t.scale for t in u.terms)
    if extent <= _CENTER_TOL * max(width, float(np.abs(centers).max())):
        geo = Geometry.CONCENTRIC
    elif np.hypot.reduce(diffs - pos[:, None] * e, 1).max() <= _CENTER_TOL * extent:
        geo = Geometry.COLLINEAR
    else:
        geo = Geometry.GENERAL
    return geo, p0, e, pos


def evaluate(u: Superposition, y: Sequence[float]) -> float:
    """Pointwise value sum_i c_i lambda_i^((d-2s)/2) B(lambda_i (x_i - y))."""
    amb = u.ambient
    yv = np.atleast_1d(np.asarray(y, dtype=float))
    if yv.shape != (amb.d,):
        raise ParameterError(f"point must have {amb.d} coordinates")
    cst = sharp_constants(amb)
    bexp = amb.beta_exp
    total = 0.0
    for t in u.terms:
        r = t.scale * np.linalg.norm(np.asarray(t.center) - yv)
        total += t.coeff * t.scale**bexp * cst.c_d * (1.0 + r * r) ** (-bexp)
    return total


def dilate(u: Superposition, mu: float) -> Superposition:
    """Conformal dilation: each (c, x, lambda) -> (c, x/mu, mu*lambda)."""
    mu = float(mu)
    if not (mu > 0.0 and math.isfinite(mu)):
        raise ParameterError(f"dilation factor must be finite and > 0, got {mu}")
    return Superposition(
        u.ambient,
        tuple(
            BubbleParam(t.coeff, tuple(c / mu for c in t.center), mu * t.scale)
            for t in u.terms
        ),
    )


def invert(u: Superposition, tau: float) -> Superposition:
    """Conformal inversion about the sphere of radius tau:
    each origin-centered (c, 0, lambda) -> (c, 0, tau^-2 lambda^-1)."""
    tau = float(tau)
    if not (tau > 0.0 and math.isfinite(tau)):
        raise ParameterError(f"inversion radius must be finite and > 0, got {tau}")
    if any(c != 0.0 for t in u.terms for c in t.center):
        raise GeometryError(
            "inversion is implemented for origin-centered terms only"
        )
    return Superposition(
        u.ambient,
        tuple(
            BubbleParam(t.coeff, t.center, 1.0 / (tau * tau * t.scale))
            for t in u.terms
        ),
    )


# ---------------------------------------------------------------------------
# pairing / norm kernels
# ---------------------------------------------------------------------------


def _log_profile(bexp: float, log_lam: float, vs: np.ndarray) -> np.ndarray:
    """log of lambda^beta (1 + (lambda e^v)^2)^(-beta), stable for all v.

    In the log-radius variable v = log r each bubble is a bump of O(1) width
    centered at v = -log lambda, which keeps multi-scale superpositions
    resolvable by the adaptive rule no matter how the scales are spread.
    """
    return bexp * log_lam - bexp * np.logaddexp(0.0, 2.0 * (vs + log_lam))


def _conformal_invariant(l1, l2, dist):
    """e = t + 1/t - 2 = (l1 - l2)^2/(l1 l2) + l1 l2 dist^2 of bubbles with
    scales l1, l2 at center distance dist (scalars or broadcasting arrays),
    and its legs (l1 - l2)/g and g dist, g = sqrt(l1) sqrt(l2).

    The H^s pairing of two bubbles is conformally invariant, hence a function
    of e alone; t >= 1 is the scale ratio of the concentric pair with the
    same e.  The legs stay finite for every scale in the float range, where
    l1 l2 may not; e, the sum of their squares, is inf past it (F = 0).
    """
    g = np.sqrt(l1) * np.sqrt(l2)
    with np.errstate(over="ignore"):
        p, q = (l1 - l2) / g, g * dist
        return p * p + q * q, (p, q)


def _hyperbolic_distance(b1: BubbleParam, b2: BubbleParam) -> float:
    """Distance rho = log t of the points (x_i, 1/lambda_i) of two bubbles in
    hyperbolic space H^(d+1), from the legs of their conformal invariant
    e = 4 sinh(rho/2)^2: c1 B_1 + c2 B_2 is conformally the concentric pair
    c1 B_{0,1} + c2 B_{0,e^rho}."""
    _, legs = _conformal_invariant(b1.scale, b2.scale, math.dist(b1.center, b2.center))
    return 2.0 * math.asinh(0.5 * math.hypot(*legs))


# Stirling's series for log Gamma: the coefficients B_2k / (2k (2k - 1)),
# summed from _STIRLING_FROM on, where the first omitted term is below 1e-17.
_STIRLING = (
    1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156,
    -3617 / 122400,
)
_STIRLING_FROM = 10.0
# A kernel series stops once a coefficient times 2^-k is below _TERM_TOL
# while the coefficients fall by a ratio under 3/2: its arguments are at most
# 1/2, so the rest is below 4 _TERM_TOL against a sum of at least 1.
_TERM_TOL = 2.0**-60
# Powers of the argument formed per call; the giant steps take the rest.
_BABY_STEPS = 16
# The derivative rows sum the near series down to w = _FAR_DERIVS: just
# under w = 1/2 the far series would cost F'' up to 1.4e-10 relative at
# d = 12 (its coefficients carry the rounding error of delta), 2e-11 here.
_FAR_DERIVS = 0.4


def _log1p_slope(x: float, eps: float) -> float:
    """log(1 + eps/x) / eps, and its limit 1/x at eps = 0."""
    return math.log1p(eps / x) / eps if eps else 1.0 / x


def _lgamma_slope(x: float, eps: float) -> float:
    """(log Gamma(x + eps) - log Gamma(x)) / eps for x, x + eps > 0, and its
    limit digamma(x) at eps = 0, with no cancellation as eps -> 0: the
    recurrence Gamma(x + 1) = x Gamma(x) carries x to _STIRLING_FROM, where
    Stirling's series is differenced term by term."""
    shift = 0.0
    while x < _STIRLING_FROM:
        shift += _log1p_slope(x, eps)
        x += 1.0
    val = (x - 0.5) * _log1p_slope(x, eps) + math.log(x + eps) - 1.0
    for k, c in enumerate(_STIRLING, 1):
        n = 2 * k - 1
        step = math.expm1(-n * math.log1p(eps / x)) / eps if eps else -n / x
        val += c * x**-n * step
    return val - shift


def _near_series(A: float, B: float, C: float, reach: float) -> list:
    """Maclaurin coefficients of 2F1(A, B; C; x) up to the first one that,
    times reach^k, is below _TERM_TOL while the coefficients fall by a ratio
    under 3/2: for |x| <= reach <= 0.6 the rest is below 10 _TERM_TOL
    against a sum of at least 1."""
    near = [1.0]
    r = A * B / C
    while near[-1] * reach ** (len(near) - 1) >= _TERM_TOL or r >= 1.5:
        k = len(near)
        near.append(near[-1] * r)
        r = (A + k) * (B + k) / ((C + k) * (k + 1))
    return near


def _block_table(series: list) -> np.ndarray:
    """Coefficient lists as one table whose row n b + j, n = len(series),
    holds the coefficients _BABY_STEPS b, ..., _BABY_STEPS (b + 1) - 1 of
    series j."""
    blocks = -(-max(map(len, series)) // _BABY_STEPS)
    table = np.zeros((len(series), blocks * _BABY_STEPS))
    for row, coeffs in zip(table, series):
        row[: len(coeffs)] = coeffs
    table = table.reshape(len(series), blocks, _BABY_STEPS).transpose(1, 0, 2)
    return np.ascontiguousarray(table.reshape(-1, _BABY_STEPS))


@lru_cache(maxsize=None)
def _kernel_series(amb: Ambient) -> tuple[float, np.ndarray, np.ndarray]:
    """The series that _pair_kernel sums for one ambient: eps = s - m in
    [-1/4, 3/4) with m an integer (so P stays finite for every float w > 0),
    the _block_table of the near series, S_a and S_b (see _pair_kernel), and
    that of their T and T^2 for the derivative rows."""
    a = amb.beta_exp
    A, B, C = 0.5 * a, 0.5 * a + 0.5, 0.5 * amb.d + 0.5
    m = math.floor(amb.s + 0.25)
    eps = amb.s - m
    lg = math.lgamma
    near = _near_series(A, B, C, 0.5)

    # Below w^m: the regular part of the connection formula.
    far_a = [0.0] * m
    far_b = [0.0] * m
    if m:
        far_a[0] = math.exp(lg(C) + lg(amb.s) - lg(B + amb.s) - lg(A + amb.s))
        for k in range(m - 1):
            ratio = (A + k) * (B + k) / ((k + 1 - m - eps) * (k + 1))
            far_a[k + 1] = far_a[k] * ratio
    # From w^m on: the paired terms k = m + j of both connection series,
    # c_j w^(m+j) (1 - w^eps f_j(eps)/f_j(0)) / eps, where
    # f_j(e) = G(A+m+j+e) G(B+m+j+e) / (G(1+m+j+e) G(1+j-eps+e)), G = Gamma,
    # and delta = (log f_j(eps) - log f_j(0)) / eps.  With w^eps = 1 + eps P
    # the pair is c_j w^(m+j) (-P e^(eps delta) - expm1(eps delta)/eps).
    sinc = math.pi * eps / math.sin(math.pi * eps) if eps else 1.0
    c = (-1) ** m * sinc * math.exp(
        lg(C) + lg(A + m) + lg(B + m) - lg(1 + m) - lg(1 - eps)
        - lg(A) - lg(B) - lg(A + amb.s) - lg(B + amb.s)
    )
    delta = (
        _lgamma_slope(A + m, eps) + _lgamma_slope(B + m, eps)
        - _lgamma_slope(1 + m, eps) - _lgamma_slope(1 - eps, eps)
    )
    j = 0
    while True:
        far_a.append(-c * (math.expm1(eps * delta) / eps if eps else delta))
        far_b.append(c * math.exp(eps * delta))
        r = (A + m + j) * (B + m + j) / ((1 + m + j) * (1 + j - eps))
        size = (abs(far_a[-1]) + abs(far_b[-1])) * 0.5 ** (m + j)
        if size < _TERM_TOL and r < 1.5:
            break
        delta += (
            _log1p_slope(A + m + j, eps) + _log1p_slope(B + m + j, eps)
            - _log1p_slope(1 + m + j, eps) - _log1p_slope(1 + j - eps, eps)
        )
        c *= r
        j += 1

    # T = w d/dw + A term by term: the coefficient of w^k gains the factor
    # k + A; the near series, in 1 - w, turns into (k + A) c_k - (k+1) c_(k+1).
    series = [_near_series(A, B, C, 1.0 - _FAR_DERIVS), far_a, far_b]
    for _ in range(2):
        nc = series[-3] + [0.0]
        series.append(
            [(k + A) * nc[k] - (k + 1) * nc[k + 1] for k in range(len(nc) - 1)]
        )
        series += [[(k + A) * ck for k, ck in enumerate(s)] for s in series[-3:-1]]
    return eps, _block_table([near, far_a, far_b]), _block_table(series[3:])


def _powers(x: np.ndarray, k: int) -> np.ndarray:
    """Rows x^0, ..., x^(k-1) of the 1-D array x, k >= 2: each block
    x^h, ..., x^(2h-1) is the block below times x^h, formed by squaring."""
    p = np.empty((k, x.size))
    p[0] = 1.0
    p[1] = x
    h, square = 2, x
    while h < k:
        square = square * square
        top = min(2 * h, k)
        np.multiply(p[: top - h], square, out=p[h:top])
        h = top
    return p


def _sum_series(table: np.ndarray, x: np.ndarray, n: int) -> np.ndarray:
    """The n power series of a _block_table at the 1-D array x: baby steps
    by one matrix product, giant steps by Horner's rule."""
    powers = _powers(x, _BABY_STEPS)
    terms = (table @ powers).reshape(-1, n, x.size)
    v = terms[-1]
    giant = powers[-1] * x
    for block in terms[-2::-1]:
        v *= giant
        v += block
    return v


def _pair_kernel(amb: Ambient, e, derivs: bool = False) -> np.ndarray:
    """Normalized two-bubble pairing F = (B_{x1,l1}, B_{x2,l2}^(2*-1)) at
    conformal invariant e = t + 1/t - 2 >= 0 (see _conformal_invariant),
    vectorized over e; F = 0 at e = inf.

    Euler's integral gives F = t^a 2F1(a, d/2; d; 1 - t^2) with
    a = (d-2s)/2 (DLMF 15.6.1), and F = 1 at e = 0.  Because c = 2b, the
    quadratic transformation DLMF 15.8.13 turns it into

        F = w^A 2F1(A, B; C; 1 - w),   w = sech(u)^2,  u = log t,

    with A = a/2, B = A + 1/2, C = (d+1)/2, C - A - B = s and
    sech(u) = 2/(2 + e).  Near, while
    tanh(u)^2 = 1 - w <= 1/2, the Maclaurin series in 1 - w is summed.  Far,
    while w <= 1/2, the connection formula DLMF 15.8.4 expands 2F1 in powers
    of w and w^s.  Write s = m + eps with m an integer: both of its series
    carry a factor 1/sin(pi eps), and their terms in w^(m+j) cancel to O(1)
    as eps -> 0.  Summed in pairs, with the Gamma-function differences taken
    as difference quotients in eps (Forrey, J. Comput. Phys. 137, 1997), they
    give the far value S_a(w) - P S_b(w), P = expm1(eps log w)/eps, two
    power series whose accuracy does not depend on eps; at eps = 0 this is
    the logarithmic case DLMF 15.8.10.  The coefficients depend on the
    ambient only (_kernel_series); a call sums all three series at once.

    With derivs, the rows F, dF/de and d^2F/de^2.  As dw/de = -sech^3 and
    d^2w/de^2 = 1.5 sech^4, d/de = -sech theta with theta = w d/dw, and
    theta F = w^A T f, theta^2 F = w^A T^2 f for F = w^A f, T = theta + A.
    The series of T f and T^2 f are those of f differentiated term by term
    (DLMF 15.5.1), with the near series summed down to w = _FAR_DERIVS.
    """
    eps, table, dtable = _kernel_series(amb)
    e = np.asarray(e, dtype=float)
    sech = (2.0 / (2.0 + e)).ravel()  # 0 at e = inf
    w = sech * sech
    v = _sum_series(table, np.minimum(w, 1.0 - w), 3)
    # At e = inf, where sech^a = 0, log w is clipped to its value at the
    # largest finite e.
    log_w = 2.0 * np.log(np.maximum(sech, 2.0 / sys.float_info.max))
    p = np.expm1(eps * log_w) / eps if eps else log_w
    f = np.where(w > 0.5, v[0], v[1] - p * v[2])
    power = sech**amb.beta_exp
    if not derivs:
        return (power * f).reshape(e.shape)
    # far, T (P g) = w^eps g + P T g, as theta P = w^eps = 1 + eps P
    near = w > _FAR_DERIVS
    dv = _sum_series(dtable, np.where(near, 1.0 - w, w), 6)
    w_eps = 1.0 + eps * p
    tf = np.where(near, dv[0], dv[1] - p * dv[2] - w_eps * v[2])
    ttf = np.where(
        near, dv[3], dv[4] - p * dv[5] - w_eps * (eps * v[2] + 2.0 * dv[2])
    )
    d1 = -sech * power  # dF/de = -sech w^A T f
    d2 = -sech * d1 * (0.5 * tf + ttf)  # sech^2 w^A (T f / 2 + T^2 f)
    return np.stack([power * f, d1 * tf, d2]).reshape((3,) + e.shape)


def _pairings(
    amb: Ambient, us: tuple[BubbleParam, ...], vs: tuple[BubbleParam, ...]
) -> np.ndarray:
    """Matrix (B_i, B_j^(2*-1)) of the unit-coefficient bubbles of us and vs."""
    terms = us + vs
    centers = np.array([b.center for b in terms])
    scales = np.array([b.scale for b in terms])
    n = len(us)
    dist = np.hypot.reduce(centers[:n, None] - centers[n:], axis=-1)
    e, _ = _conformal_invariant(scales[:n, None], scales[n:], dist)
    return _pair_kernel(amb, e)


# Kernel elements (probes x terms) per _pair_radial block: the kernel's power
# table stays at 128 KiB, glibc's default mmap threshold, and so page-fault free.
_PAIR_BLOCK = 1024


def _pair_radial(
    amb: Ambient, axial: tuple, a, z, derivs: bool = False
) -> np.ndarray:
    """Pairings P = (u, B_{a, e^z}^(2*-1)) = sum_i c_i F(e_i) of the bubbles
    axial = (coeffs, positions, scales) on one axis with the unit probes of
    axial position a and log scale z on that axis, vectorized over the
    broadcast shape of a and z.  This is the m-search objective; the
    traced benchmark (bench/spans.py) counts its calls under this name.

    With derivs, the rows P, P_b, P_z, P_bb, P_bz, P_zz, where b is the
    axial offset in probe widths e^-z0 about the probe (a = a0 + b e^-z0)
    and z its log scale.  They follow from F' and F'' of _pair_kernel by the
    chain rule through e_i, with rho_i^2 = lambda_i e^-z and q_i the axial
    leg of e_i (_conformal_invariant): e_b = -2 q rho, e_bb = 2 rho^2,
    e_z = e + 2 - 2 rho^2 (= q^2 - p sqrt(p^2 + 4) in both legs),
    e_zz = e + 2 and e_bz = e_b.
    """
    coeffs, pos, lams = axial
    a, z = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(z, dtype=float))
    shape, a, z = a.shape, a.ravel(), z.ravel()
    out = np.empty((6 if derivs else 1, a.size))
    step = max(1, _PAIR_BLOCK // len(coeffs))
    for k in range(0, a.size, step):
        mu = np.exp(z[k : k + step])
        dist = pos[:, None] - a[k : k + step]
        e, (_, q) = _conformal_invariant(lams[:, None], mu, dist)
        if not derivs:
            out[0, k : k + step] = coeffs @ _pair_kernel(amb, e)
            continue
        f, f1, f2 = _pair_kernel(amb, e, derivs=True)
        # Where e = inf, F' = F'' = 0 and q and lambda/mu may overflow; where
        # e is finite, so is lambda/mu <= e + 2.
        fin = np.isfinite(e)
        r2 = np.where(fin, lams[:, None], 0.0) / mu  # rho^2
        e_b = np.where(fin, -2.0 * q, 0.0) * np.sqrt(r2)
        e_bb = 2.0 * r2
        e_z = np.where(fin, e, 0.0) + 2.0 - e_bb
        f1_bb, g = f1 * e_bb, f2 * e_z + f1  # as e_bz = e_b, e_zz = e_z + e_bb
        rows = (f, f1 * e_b, f1 * e_z, f2 * e_b * e_b + f1_bb, g * e_b,
                g * e_z + f1_bb)
        out[:, k : k + step] = coeffs @ np.stack(rows)
    return out.reshape((6,) + shape) if derivs else out.reshape(shape)


def pair_against_bubble(u: Superposition, h: BubbleParam) -> float:
    """The pairing (u, h^(2*-1)) = integral of u * h^(2*-1) over R^d,
    for a unit-coefficient bubble h: sum_i c_i F(t_i), in closed form for
    any centers.
    """
    if h.coeff != 1.0:
        raise ParameterError("pair_against_bubble expects a unit-coefficient h")
    if len(h.center) != u.ambient.d:
        raise ParameterError("h.center dimension does not match the ambient")
    coeffs = [t.coeff for t in u.terms]
    return math.fsum(coeffs * _pairings(u.ambient, u.terms, (h,))[:, 0])


def hs_inner(u: Superposition, v: Superposition) -> float:
    """H^s inner product via the eigenvalue identity, for any centers:

        <sum c_i B_i, sum e_j B_j> = S_d * sum_ij c_i e_j F(t_ij).
    """
    if u.ambient != v.ambient:
        raise ParameterError("superpositions live in different ambients")
    cu = np.array([t.coeff for t in u.terms])
    cv = np.array([t.coeff for t in v.terms])
    k = _pairings(u.ambient, u.terms, v.terms)
    return sharp_constants(u.ambient).S_d * math.fsum((cu[:, None] * cv * k).ravel())


def hs_norm_sq(u: Superposition) -> float:
    """Squared H^s seminorm ||(-Delta)^(s/2) u||_2^2."""
    return hs_inner(u, u)


def _radial_norm(amb: Ambient, cfg: QuadratureConfig, log_lams: list) -> float:
    """||sum c_i B_{0, e^(l_i)}||_{2*} of concentric bubbles given as
    (c_i, l_i) pairs, integrated radially in log-radius.  The largest
    log-profile is factored out so the e^(d v) weight can never meet an
    underflowed sum (0 * inf)."""
    two_star = amb.two_star
    bexp = amb.beta_exp
    c_d = sharp_constants(amb).c_d
    d = amb.d

    def f(vs: np.ndarray) -> np.ndarray:
        ls = np.stack([_log_profile(bexp, ll, vs) for _, ll in log_lams])
        top = ls.max(axis=0)
        acc = np.zeros_like(vs)
        for (c, _), li in zip(log_lams, ls):
            acc += c * np.exp(li - top)
        return np.abs(c_d * acc) ** two_star * np.exp(two_star * top + d * vs)

    knots = [-ll for _, ll in log_lams]
    if len(log_lams) == 2 and log_lams[0][0] * log_lams[1][0] < 0.0:
        # The kink of |u|^(2*) where a signed pair changes sign is a knot: with
        # a = log|c2/c1|/beta, b = l1 - l2 <= 0, if |a| < -b, at
        # e^(2v) = e^(-l1-l2) (e^a - e^b)/(1 - e^(a+b)).
        (c1, l1), (c2, l2) = sorted(log_lams, key=lambda cl: cl[1])
        a, b = (math.log(abs(c2)) - math.log(abs(c1))) / bexp, l1 - l2
        if abs(a) < -b:
            gap = math.log(-math.expm1(b - a)) - math.log(-math.expm1(a + b))
            knots.append(0.5 * (a + gap - l1 - l2))
    res = integrate_real_line(f, cfg, knots=knots)
    total = sphere_area(d) * res.value
    return total ** (1.0 / two_star)


def lp_norm(u: Superposition, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Critical Lebesgue norm ||u||_{2*} (signed coefficients supported).

    The one quantity without a closed form: integrated by adaptive
    quadrature.  Every pair, concentric or not, integrates radially as its
    concentric pair c1 B_{0,1} + c2 B_{0,e^rho} (_hyperbolic_distance):
    ||.||_{2*} is conformally invariant, and the log scales 0 and rho do not
    depend on the input's.  Three or more concentric centers integrate
    radially at their own log scales, three or more collinear ones by the
    axisymmetric quadrature, in cells around each center, for every d;
    other clouds are rejected.
    """
    check_config(cfg)
    amb = u.ambient
    if len(u.terms) == 2:
        b1, b2 = u.terms
        rho = _hyperbolic_distance(b1, b2)
        return _radial_norm(amb, cfg, [(b1.coeff, 0.0), (b2.coeff, rho)])
    geo, _, _, pos = _frame(u)
    if geo is Geometry.CONCENTRIC:
        return _radial_norm(amb, cfg, [(t.coeff, math.log(t.scale)) for t in u.terms])
    if geo is Geometry.GENERAL:
        raise GeometryError("lp_norm requires concentric or collinear centers")

    two_star = amb.two_star
    bexp = amb.beta_exp
    cst = sharp_constants(amb)
    # ||.||_{2*} is dilation-invariant, and a dilation by a power of two is
    # exact: the frame dilated by 2^-k centers the log2 scales on 0.
    k = round(sum(math.log2(t.scale) for t in u.terms) / len(u.terms))
    axial = [
        (t.coeff, math.ldexp(x, k), math.ldexp(t.scale, -k))
        for t, x in zip(u.terms, pos)
    ]

    # Each term's factor coeff * lambda^beta, position and lambda^2.
    scaled = [(c * lam**bexp, x, lam * lam) for c, x, lam in axial]

    def f(c: np.ndarray, s: np.ndarray, rhos: np.ndarray) -> np.ndarray:
        """|u|^(2*) at axial position c + s and distance rho from the axis,
        broadcast over the three."""
        rho2 = rhos * rhos
        acc = 0.0
        with np.errstate(over="ignore"):  # a far bubble's profile is then 0
            for k, x, lam2 in scaled:
                z = (1.0 + lam2 * (s + (c - x)) ** 2) + lam2 * rho2
                acc = acc + k * z**-bexp
        return np.abs(cst.c_d * acc) ** two_star

    centers, widths = zip(*[(x, 1.0 / lam) for _, x, lam in axial])
    res = integrate_axisymmetric(f, amb, cfg, centers=centers, widths=widths)
    return res.value ** (1.0 / two_star)


# ---------------------------------------------------------------------------
# JSON schema
# ---------------------------------------------------------------------------


def _is_finite_number(x: object) -> bool:
    """A JSON number in the finite float range: not NaN or +-Infinity, which
    json accepts, nor an integer too large to convert."""
    return (
        isinstance(x, (int, float))
        and not isinstance(x, bool)
        and -sys.float_info.max <= x <= sys.float_info.max
    )


def superposition_from_dict(doc: dict) -> Superposition:
    """Build a Superposition from the JSON schema

    ``{"d": int, "s": float, "terms": [{"coeff", "center", "lambda"}, ...]}``

    raising SchemaError messages that name the offending field.
    """
    if not isinstance(doc, dict):
        raise SchemaError("document: expected a JSON object")
    if "d" not in doc:
        raise SchemaError("d: missing")
    if "s" not in doc:
        raise SchemaError("s: missing")
    d = doc["d"]
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise SchemaError(f"d: expected a positive integer, got {d!r}")
    if not _is_finite_number(d):
        raise SchemaError("d: too large to convert to a float")
    s = doc["s"]
    if not _is_finite_number(s):
        raise SchemaError(f"s: expected a finite number, got {s!r}")
    if not 0.0 < float(s) < d / 2.0:
        raise SchemaError(f"s: must satisfy 0 < s < d/2 = {d / 2.0}, got {s}")
    amb = Ambient(d, float(s))
    raw_terms = doc.get("terms")
    if not isinstance(raw_terms, list) or not raw_terms:
        raise SchemaError("terms: expected a nonempty array")
    terms = []
    for i, rt in enumerate(raw_terms):
        if not isinstance(rt, dict):
            raise SchemaError(f"terms[{i}]: expected an object")
        for field in ("coeff", "center", "lambda"):
            if field not in rt:
                raise SchemaError(f"terms[{i}].{field}: missing")
        coeff = rt["coeff"]
        if not _is_finite_number(coeff) or coeff == 0:
            raise SchemaError(f"terms[{i}].coeff: expected a finite nonzero number")
        center = rt["center"]
        if not isinstance(center, list) or not all(map(_is_finite_number, center)):
            raise SchemaError(f"terms[{i}].center: expected an array of finite numbers")
        if len(center) != d:
            raise SchemaError(
                f"terms[{i}].center: length {len(center)} does not match d = {d}"
            )
        lam = rt["lambda"]
        if not _is_finite_number(lam) or not lam > 0:
            raise SchemaError(f"terms[{i}].lambda: expected a finite number > 0")
        terms.append(BubbleParam(float(coeff), tuple(center), float(lam)))
    return Superposition(amb, tuple(terms))


def superposition_to_dict(u: Superposition) -> dict:
    return {
        "d": u.ambient.d,
        "s": u.ambient.s,
        "terms": [
            {"coeff": t.coeff, "center": list(t.center), "lambda": t.scale}
            for t in u.terms
        ],
    }
