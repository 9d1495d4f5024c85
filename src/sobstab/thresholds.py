"""Comparison of the two mechanisms that bound the stability constant from
above: the spectral bound 4s/(d+2s+2) coming from the linearization around a
single optimizer, and the two-peak bound 2 - 2^((d-2s)/d) realized
asymptotically by weakly-interacting superpositions of two optimizers.

The binding (smaller) bound is the certified upper bound on the stability
constant.  For s = 1 the comparison flips between d = 6 and d = 7: spectral
binds in low dimension, the two-peak mechanism in high dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .constants import Ambient
from .errors import ParameterError

__all__ = [
    "Binding",
    "ThresholdReport",
    "CrossoverScan",
    "spectral_threshold",
    "two_peak_threshold",
    "compare",
    "crossover_scan",
]

_TIE_TOL = 1e-14


class Binding(str, Enum):
    SPECTRAL = "SPECTRAL"
    TWO_PEAK = "TWO_PEAK"
    TIE = "TIE"


def spectral_threshold(amb: Ambient) -> float:
    """4s/(d+2s+2), the gap of the linearized quotient at a single optimizer."""
    return 4.0 * amb.s / (amb.d + 2.0 * amb.s + 2.0)


def two_peak_threshold(amb: Ambient) -> float:
    """2 - 2^((d-2s)/d), the limiting quotient of two separating optimizers,
    as -2 expm1(-(2s/d) log 2), which keeps its digits as s/d -> 0."""
    return -2.0 * math.expm1(-(2.0 * amb.s / amb.d) * math.log(2.0))


@dataclass(frozen=True)
class ThresholdReport:
    ambient: Ambient
    c_spec: float
    c_two_peak: float
    binding: Binding
    upper_bound_on_cBE: float
    d1_caveat: bool


def compare(amb: Ambient) -> ThresholdReport:
    """Evaluate both thresholds and report which one binds.

    Values within 1e-14 of each other are reported as TIE.  In d = 1 the
    spectral-side analysis degenerates (no translation modes transverse to
    the line), so the report carries a caveat flag; the formulas themselves
    are still evaluated.
    """
    c_spec = spectral_threshold(amb)
    c_two = two_peak_threshold(amb)
    if abs(c_spec - c_two) < _TIE_TOL:
        binding = Binding.TIE
    elif c_spec < c_two:
        binding = Binding.SPECTRAL
    else:
        binding = Binding.TWO_PEAK
    return ThresholdReport(
        ambient=amb,
        c_spec=c_spec,
        c_two_peak=c_two,
        binding=binding,
        upper_bound_on_cBE=min(c_spec, c_two),
        d1_caveat=amb.d == 1,
    )


@dataclass(frozen=True)
class CrossoverScan:
    s: float
    reports: tuple[ThresholdReport, ...]
    crossover_d: int | None
    exploratory: bool


def crossover_scan(s: float, d_min: int = 3, d_max: int = 12) -> CrossoverScan:
    """Scan dimensions d_min..d_max at fixed order s and locate the largest
    dimension where the spectral bound still binds.

    crossover_d is None when the two-peak bound already binds at d_min.
    Scans at s != 1 are marked exploratory: the spectral formula is only
    backed by a full linearization argument at s = 1.
    """
    if d_min > d_max:
        raise ParameterError(f"d_min={d_min} exceeds d_max={d_max}")
    if d_min < 1:
        raise ParameterError(f"d_min must be >= 1, got {d_min}")
    reports = []
    for d in range(d_min, d_max + 1):
        if not 0.0 < s < d / 2.0:
            raise ParameterError(
                f"s={s} is not admissible at d={d} (need 0 < s < d/2); "
                "restrict the dimension range"
            )
        reports.append(compare(Ambient(d, s)))
    spectral_ds = [
        r.ambient.d for r in reports if r.binding is Binding.SPECTRAL
    ]
    return CrossoverScan(
        s=float(s),
        reports=tuple(reports),
        crossover_d=max(spectral_ds) if spectral_ds else None,
        exploratory=(s != 1.0),
    )
