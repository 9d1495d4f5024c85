"""Executable forms of two elementary inequalities used by the stability
analysis: strict convexity of g(t) = (1 + t^(p/2))^(2/p) for p > 2, and the
mediant chain A/B >= (A+C)/(B+D) >= (A+E)/(B+F) for positive sextuples with
A/B >= C/D >= E/F and D <= F.

Pure functions; no quadrature involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import HypothesisError, ParameterError

__all__ = [
    "convex_g",
    "monotone_quotient",
    "QuotientSextuple",
    "QuotientVerdict",
    "quotient_compare",
]


def convex_g(p: float, t: float) -> float:
    """g(t) = (1 + t^(p/2))^(2/p); strictly convex on t > 0 when p > 2."""
    if not p > 2.0:
        raise ParameterError(f"p must be > 2, got {p}")
    if not t > 0.0:
        raise ParameterError(f"t must be > 0, got {t}")
    return (1.0 + t ** (p / 2.0)) ** (2.0 / p)


def monotone_quotient(p: float, eta: float) -> float:
    """((1 + eta^p)^(2/p) - 1) / eta^2, strictly increasing in eta for p > 2.

    Below eta = 1 the numerator goes through expm1/log1p, which keeps its
    relative accuracy however small eta^p is (the naive form rounds
    1 + eta^p to 1); for eta >= 1 the whole quotient is rescaled by eta^-2
    so that eta^p can never overflow.
    """
    if not p > 2.0:
        raise ParameterError(f"p must be > 2, got {p}")
    if not eta > 0.0:
        raise ParameterError(f"eta must be > 0, got {eta}")
    q = 2.0 / p
    if eta >= 1.0:
        inv2 = 1.0 / (eta * eta)
        return (1.0 + inv2 ** (p / 2.0)) ** q - inv2
    return math.expm1(q * math.log1p(eta**p)) / (eta * eta)


@dataclass(frozen=True)
class QuotientSextuple:
    """Six positive reals, hypothesized to satisfy A/B >= C/D >= E/F, D <= F.

    The hypothesis flags are evaluated by cross-multiplication so that no
    division noise enters the comparisons.
    """

    A: float
    B: float
    C: float
    D: float
    E: float
    F: float

    def __post_init__(self) -> None:
        for name in ("A", "B", "C", "D", "E", "F"):
            val = getattr(self, name)
            if not val > 0.0:
                raise ParameterError(f"{name} must be > 0, got {val}")

    @property
    def hyp_first(self) -> bool:
        """A/B >= C/D."""
        return self.A * self.D >= self.B * self.C

    @property
    def hyp_second(self) -> bool:
        """C/D >= E/F."""
        return self.C * self.F >= self.D * self.E

    @property
    def hyp_third(self) -> bool:
        """D <= F."""
        return self.D <= self.F


@dataclass(frozen=True)
class QuotientVerdict:
    """The mediant chain values and the strictness the hypotheses certify.

    Strictness flags record the sufficient conditions only: a False flag
    does not assert equality of the adjacent chain values.
    """

    first: float
    second: float
    third: float
    first_strict: bool
    second_strict: bool


def quotient_compare(q: QuotientSextuple) -> QuotientVerdict:
    """Evaluate A/B >= (A+C)/(B+D) >= (A+E)/(B+F) for a sextuple satisfying
    the hypotheses; raise HypothesisError otherwise.

    The first inequality is strict iff A/B > C/D; the second is strict if
    C/D > E/F or D < F.
    """
    if not q.hyp_first:
        raise HypothesisError(
            f"hypothesis A/B >= C/D violated: {q.A}/{q.B} < {q.C}/{q.D}"
        )
    if not q.hyp_second:
        raise HypothesisError(
            f"hypothesis C/D >= E/F violated: {q.C}/{q.D} < {q.E}/{q.F}"
        )
    if not q.hyp_third:
        raise HypothesisError(f"hypothesis D <= F violated: D={q.D} > F={q.F}")
    return QuotientVerdict(
        first=q.A / q.B,
        second=(q.A + q.C) / (q.B + q.D),
        third=(q.A + q.E) / (q.B + q.F),
        first_strict=q.A * q.D > q.B * q.C,
        second_strict=(q.C * q.F > q.D * q.E) or (q.D < q.F),
    )
