"""Independent reference values for the benchmark's correctness checks.

Everything here is computed with mpmath at ``DPS`` decimal digits from the
closed forms of the sharp fractional Sobolev inequality, and shares no code
with ``sobstab``:

* the normalized two-bubble pairing (B_{x1,l1}, B_{x2,l2}^(2*-1)) = F(t) with
  F(t) = t^a 2F1(a, d/2; d; 1 - t^2), a = (d-2s)/2, where t >= 1 solves the
  conformal invariant t + 1/t = l1/l2 + l2/l1 + l1 l2 |x1-x2|^2.  It is
  evaluated in the Pfaff form t^-a 2F1(a, d/2; d; 1 - 1/t^2), whose argument
  lies in [0, 1);
* Lieb's sharp constant
  S_d = 2^(2s) pi^s G((d+2s)/2)/G((d-2s)/2) (G(d/2)/G(d))^(2s/d);
* the interaction constant c0 = B(d/2, s) / B(d/2, d/2);
* hs_norm_sq(sum c_i B_i) = S_d sum_ij c_i c_j F(t_ij), and the pairing of a
  superposition against a unit bubble, sum_i c_i F(t_i), which is linear in
  the superposition.

``bench/selftest.py`` runs ``_self_test`` on these formulas.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

import mpmath as mp

DPS = 30

# A term is (coeff, center, scale) with center a sequence of d floats.
Term = tuple[float, Sequence[float], float]


def conformal_t(l1: float, l2: float, x1: Sequence[float], x2: Sequence[float]) -> mp.mpf:
    """The ratio t >= 1 with t + 1/t = l1/l2 + l2/l1 + l1 l2 |x1 - x2|^2."""
    with mp.workdps(DPS):
        l1m, l2m = mp.mpf(l1), mp.mpf(l2)
        r2 = mp.fsum((mp.mpf(a) - mp.mpf(b)) ** 2 for a, b in zip(x1, x2))
        excess = (l1m - l2m) ** 2 / (l1m * l2m) + l1m * l2m * r2  # t + 1/t - 2
        return 1 + (excess + mp.sqrt(excess * (excess + 4))) / 2


def pairing_F(t, d: int, s: float) -> mp.mpf:
    """F(t) = t^a 2F1(a, d/2; d; 1 - t^2) for t >= 1, with F(1) = 1."""
    with mp.workdps(DPS):
        t = mp.mpf(t)
        a = (mp.mpf(d) - 2 * mp.mpf(s)) / 2
        return t ** (-a) * mp.hyp2f1(a, mp.mpf(d) / 2, d, 1 - 1 / (t * t))


@lru_cache(maxsize=None)
def sharp_constant(d: int, s: float) -> mp.mpf:
    """Lieb's sharp constant S_d of the fractional Sobolev inequality."""
    with mp.workdps(DPS):
        d_, s_ = mp.mpf(d), mp.mpf(s)
        return (
            mp.power(2, 2 * s_)
            * mp.power(mp.pi, s_)
            * mp.gamma((d_ + 2 * s_) / 2)
            / mp.gamma((d_ - 2 * s_) / 2)
            * mp.power(mp.gamma(d_ / 2) / mp.gamma(d_), 2 * s_ / d_)
        )


@lru_cache(maxsize=None)
def c0(d: int, s: float) -> mp.mpf:
    """Leading interaction coefficient c0 = B(d/2, s) / B(d/2, d/2)."""
    with mp.workdps(DPS):
        return mp.beta(mp.mpf(d) / 2, mp.mpf(s)) / mp.beta(mp.mpf(d) / 2, mp.mpf(d) / 2)


def pair_against_bubble(
    terms: Sequence[Term], center: Sequence[float], scale: float, d: int, s: float
) -> mp.mpf:
    """(sum c_i B_i, B_{center,scale}^(2*-1)) = sum_i c_i F(t_i)."""
    with mp.workdps(DPS):
        return mp.fsum(
            mp.mpf(c) * pairing_F(conformal_t(lam, scale, x, center), d, s)
            for c, x, lam in terms
        )


def hs_norm_sq(terms: Sequence[Term], d: int, s: float) -> tuple[mp.mpf, mp.mpf]:
    """S_d sum_ij c_i c_j F(t_ij), and the same sum over |c_i c_j F(t_ij)|.

    The second value is the scale against which the rounding and quadrature
    error of a signed sum is judged.
    """
    with mp.workdps(DPS):
        parts = []
        for i, (ci, xi, li) in enumerate(terms):
            for j in range(i, len(terms)):
                cj, xj, lj = terms[j]
                weight = 1 if i == j else 2
                f = pairing_F(conformal_t(li, lj, xi, xj), d, s)
                parts.append(weight * mp.mpf(ci) * mp.mpf(cj) * f)
        sd = sharp_constant(d, s)
        return sd * mp.fsum(parts), sd * mp.fsum(abs(p) for p in parts)


def threshold(d: int, s: float) -> mp.mpf:
    """The two-peak limit 2 - 2^((d-2s)/d)."""
    with mp.workdps(DPS):
        return 2 - mp.power(2, (mp.mpf(d) - 2 * mp.mpf(s)) / d)


def predicted_coefficient(d: int, s: float) -> mp.mpf:
    """Leading deficit coefficient (2^(2/2* + 1) - 2) c0 with 2/2* = (d-2s)/d."""
    with mp.workdps(DPS):
        return (mp.power(2, (mp.mpf(d) - 2 * mp.mpf(s)) / d + 1) - 2) * c0(d, s)


def rel_err(value: float, reference) -> float:
    """|value - reference| / |reference| in double precision."""
    with mp.workdps(DPS):
        return float(abs(mp.mpf(value) - reference) / abs(reference))


def _self_test() -> list[str]:
    """Closed-form spot checks of the oracle itself."""
    errors = []
    with mp.workdps(DPS):
        tol = mp.mpf(10) ** (5 - DPS)
        for d in (3, 5, 7):
            if abs(pairing_F(1, d, 1.0) - 1) > tol:
                errors.append(f"F(1) != 1 at d={d}")
        if abs(c0(3, 1.0) - 16 / (3 * mp.pi)) > tol:
            errors.append("c0(3, 1) != 16/(3 pi)")
        if abs(sharp_constant(3, 1.0) - mp.mpf(3) / 4 * (2 * mp.pi**2) ** (mp.mpf(2) / 3)) > tol:
            errors.append("S_3 != (3/4)(2 pi^2)^(2/3)")
        # The Pfaff form against the defining form, at a few ratios.
        for d in (3, 5, 7):
            a = (mp.mpf(d) - 2) / 2
            for t in (mp.mpf("1.5"), mp.mpf(40), mp.mpf("1e7")):
                direct = t**a * mp.hyp2f1(a, mp.mpf(d) / 2, d, 1 - t * t)
                if abs(pairing_F(t, d, 1.0) / direct - 1) > tol:
                    errors.append(f"Pfaff form disagrees at d={d}, t={t}")
        # Conformal invariant: a concentric pair gives the scale ratio, and
        # unit bubbles a distance 2 apart give t + 1/t = 6.
        if abs(conformal_t(1.0, 0.125, (0.0,), (0.0,)) - 8) > tol:
            errors.append("conformal_t(1, 1/8, same center) != 8")
        if abs(conformal_t(1.0, 1.0, (0.0, 2.0), (0.0, 0.0)) - (3 + mp.sqrt(8))) > tol:
            errors.append("conformal_t(1, 1, distance 2) != 3 + sqrt(8)")
    if not math.isclose(float(threshold(3, 1.0)), 2 - 2 ** (1 / 3), rel_tol=1e-15):
        errors.append("threshold(3, 1) != 2 - 2^(1/3)")
    return errors

