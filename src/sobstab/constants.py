"""Closed-form constants of the sharp fractional Sobolev inequality.

All quantities are driven by the normalized extremal profile

    B(x) = c_d (1 + |x|^2)^(-(d-2s)/2),    ||B||_{2*} = 1,   2* = 2d/(d-2s),

which satisfies the eigenvalue identity (-Delta)^s B = S_d B^(2*-1).  The
module evaluates every constant through Gamma-function reductions of the
half-line Beta integral; log-Gamma (math.lgamma) is used internally so ratios
stay finite for dimensions well beyond anything the toolkit is run at.

A note on S_d: the sharp constant is *derived* here, not copied from a table.
The action of (-Delta)^s on the profile (1+|x|^2)^(-(d-2s)/2) is
A_ds * (1+|x|^2)^(-(d+2s)/2) with A_ds = 2^(2s) Gamma((d+2s)/2)/Gamma((d-2s)/2),
and rescaling by the normalization c_d forces S_d = A_ds * c_d^(2-2*).  For
s = 1 the value is cross-checked against a direct gradient-norm quadrature in
the test suite.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

from .errors import ParameterError

__all__ = [
    "Ambient",
    "SharpConstants",
    "beta_half_line",
    "sphere_area",
    "normalization_c",
    "sharp_constant",
    "appendix_constants",
    "sharp_constants",
]


@dataclass(frozen=True)
class Ambient:
    """Dimension d and fractional order s of the inequality, 0 < s < d/2."""

    d: int
    s: float

    def __post_init__(self) -> None:
        if not isinstance(self.d, int) or isinstance(self.d, bool):
            raise ParameterError(f"d must be an integer, got {self.d!r}")
        if self.d < 1:
            raise ParameterError(f"d must be >= 1, got {self.d}")
        if self.d > sys.float_info.max:
            raise ParameterError("d is too large to convert to a float")
        s = float(self.s)
        if not math.isfinite(s) or not 0.0 < s < self.d / 2.0:
            raise ParameterError(
                f"s must satisfy 0 < s < d/2 = {self.d / 2.0}, got {self.s}"
            )
        object.__setattr__(self, "s", s)

    @property
    def two_star(self) -> float:
        """Critical exponent 2* = 2d/(d-2s) > 2."""
        return 2.0 * self.d / (self.d - 2.0 * self.s)

    @property
    def beta_exp(self) -> float:
        """Profile decay exponent (d-2s)/2: B ~ c_d |x|^(-2*beta_exp)."""
        return (self.d - 2.0 * self.s) / 2.0


@dataclass(frozen=True)
class SharpConstants:
    """All closed-form constants attached to one ambient (d, s).

    c_d      -- profile normalization making ||B||_{2*} = 1
    A_ds     -- eigen-factor of (-Delta)^s on (1+|x|^2)^(-(d-2s)/2)
    S_d      -- sharp Sobolev constant, A_ds * c_d^(2-2*)
    c0       -- leading interaction coefficient, B(0) * integral of B^(2*-1)
    a_d      -- second derivative constant of the concentric pairing at scale 1
    b_d      -- cross-term derivative constant
    """

    ambient: Ambient
    c_d: float
    A_ds: float
    S_d: float
    c0: float
    a_d: float
    b_d: float

    @property
    def radial_slice_factor(self) -> float:
        """Angular factor |S^{d-1}| (d+2s)/2 relating a_d, b_d to the
        fully-normalized pairing derivatives.

        The closed forms a_d and b_d are stated per unit of this factor: the
        fully-normalized pairing F(mu) = (B, B_mu^(2*-1)) satisfies
        F''(1) = radial_slice_factor * a_d, and the cross pairing satisfies
        G_lambda'(1) = radial_slice_factor * b_d * lambda^((d-2s)/2) + o(...).
        An exact consequence used as a self-check: factor * b_d = -c0 (d-2s)/2.
        """
        amb = self.ambient
        return sphere_area(amb.d) * (amb.d + 2.0 * amb.s) / 2.0


def _gamma_ratio(num, den, base: float = 1.0, power: float = 0.0) -> float:
    """base^power prod Gamma(num) / prod Gamma(den), for positive arguments."""
    logs = sum(map(math.lgamma, num)) - sum(map(math.lgamma, den))
    return math.exp(power * math.log(base) + logs)


def beta_half_line(p: float, q: float) -> float:
    """Evaluate the half-line Beta integral
    ``integral_0^inf r^p (1+r^2)^(-q) dr`` in closed form.

    Equals ``0.5 * Gamma((p+1)/2) * Gamma(q-(p+1)/2) / Gamma(q)`` for
    p > -1 and q > (p+1)/2; computed through log-Gamma.
    """
    p = float(p)
    q = float(q)
    if not (math.isfinite(p) and math.isfinite(q)):
        raise ParameterError("beta_half_line arguments must be finite")
    if p <= -1.0:
        raise ParameterError(f"beta_half_line requires p > -1, got p={p}")
    if q <= (p + 1.0) / 2.0:
        raise ParameterError(
            f"beta_half_line requires q > (p+1)/2 = {(p + 1.0) / 2.0}, got q={q}"
        )
    a = (p + 1.0) / 2.0
    return 0.5 * _gamma_ratio((a, q - a), (q,))


def sphere_area(d: int) -> float:
    """Surface measure |S^{d-1}| = 2 pi^(d/2) / Gamma(d/2); |S^0| = 2."""
    if d < 1:
        raise ParameterError(f"sphere_area requires d >= 1, got {d}")
    return 2.0 * _gamma_ratio((), (0.5 * d,), math.pi, 0.5 * d)


def normalization_c(amb: Ambient) -> float:
    """Profile normalization c_d with ||B||_{2*} = 1 (see sharp_constants)."""
    return sharp_constants(amb).c_d


def sharp_constant(amb: Ambient) -> float:
    """Sharp Sobolev constant S_d = A_ds * c_d^(2-2*) (see sharp_constants)."""
    return sharp_constants(amb).S_d


def appendix_constants(amb: Ambient) -> tuple[float, float, float]:
    """Interaction constants (c0, a_d, b_d) for the two-bubble expansion
    (see sharp_constants); a_d and b_d are negative for every (d, s)."""
    cst = sharp_constants(amb)
    return cst.c0, cst.a_d, cst.b_d


@lru_cache(maxsize=None)
def sharp_constants(amb: Ambient) -> SharpConstants:
    """All constants for one ambient, each one Gamma ratio, cached.

    The unit-norm condition c_d^{2*} |S^{d-1}| beta_half_line(d-1, d) = 1
    gives the primary form c_d^{2*} = Gamma(d) / (pi^(d/2) Gamma(d/2)), and
    S_d = A_ds (c_d^{2*})^(-2s/d) is Lieb's form.  The appendix constants

        c0  = c_d^{2*} |S^{d-1}| beta_half_line(d-1, (d+2s)/2)
            = Gamma(d) Gamma(s) / (Gamma(d/2) Gamma((d+2s)/2)),
        a_d = -c_d^{2*} (d-2s)/(2(d+1)) Gamma((d+2)/2) Gamma(d/2) / Gamma(d+1)
            = -(d-2s)/(4(d+1)) Gamma(d/2) / pi^(d/2),
        b_d = -c_d^{2*} (d-2s)/(2(d+2s)) Gamma(d/2) Gamma(s) / Gamma((d+2s)/2)
            = -(d-2s)/(2(d+2s)) Gamma(d) Gamma(s) / (pi^(d/2) Gamma((d+2s)/2)),

    take no power of a rounded c_d, and Gamma(s) is taken at s itself, since
    (d+2s)/2 - d/2 would lose digits as s -> 0.  Raises ParameterError when
    d is so large that a constant leaves the float range (overflows, or
    underflows to 0).
    """
    d, s = amb.d, amb.s
    try:
        c_pow = _gamma_ratio((d,), (d / 2.0,), math.pi, -d / 2.0)
        up, down = (d + 2.0 * s) / 2.0, (d - 2.0 * s) / 2.0
        A_ds = _gamma_ratio((up,), (down,), 2.0, 2.0 * s)
        values = (
            c_pow ** (1.0 / amb.two_star),
            A_ds,
            A_ds * c_pow ** (-2.0 * s / d),
            _gamma_ratio((d, s), (d / 2.0, up)),
            -down / (2.0 * (d + 1.0)) * _gamma_ratio((d / 2.0,), (), math.pi, -d / 2.0),
            -down / (2.0 * up) * _gamma_ratio((d, s), (up,), math.pi, -d / 2.0),
        )
    except (OverflowError, ZeroDivisionError):
        values = (math.nan,)
    if not all(math.isfinite(v) and v != 0.0 for v in values):
        raise ParameterError(
            f"d = {amb.d} is too large: the sharp constants at s = {amb.s} "
            "are not finite nonzero floats"
        )
    return SharpConstants(amb, *values)
