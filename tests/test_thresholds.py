"""Spectral vs two-peak upper bounds and the dimension crossover."""

from fractions import Fraction

import pytest

from sobstab.constants import Ambient
from sobstab.errors import ParameterError
from sobstab.thresholds import (
    Binding,
    compare,
    crossover_scan,
    spectral_threshold,
    two_peak_threshold,
)


class TestClosedForms:
    @pytest.mark.parametrize(
        "d, expected",
        [
            (3, Fraction(4, 7)),
            (4, Fraction(1, 2)),
            (5, Fraction(4, 9)),
            (6, Fraction(2, 5)),
            (7, Fraction(4, 11)),
        ],
    )
    def test_spectral_is_exact_rational_at_s1(self, d, expected):
        assert spectral_threshold(Ambient(d, 1.0)) == float(expected)

    @pytest.mark.parametrize(
        "d, frozen",
        [
            (3, 0.7400789501051269),
            (5, 0.4842834334896002),
        ],
    )
    def test_two_peak_frozen_values(self, d, frozen):
        assert two_peak_threshold(Ambient(d, 1.0)) == pytest.approx(
            frozen, rel=1e-15
        )

    def test_two_peak_equals_exponent_identity(self):
        amb = Ambient(4, 1.0)
        assert two_peak_threshold(amb) == pytest.approx(
            2.0 - 2.0 ** (2.0 / amb.two_star), rel=1e-15
        )

    @pytest.mark.parametrize(
        "d, s", [(12, 1e-8), (3, 1.0), (7, 1.0), (12, 1.0), (2, 0.5)]
    )
    def test_two_peak_matches_mpmath(self, d, s):
        """At d = 12, s = 1e-8, 2 - 2^((d-2s)/d) is off by a relative 3.8e-8:
        the subtraction cancels 8 digits."""
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            ref = 2 - mp.power(2, (mp.mpf(d) - 2 * mp.mpf(s)) / d)
            err = abs(two_peak_threshold(Ambient(d, s)) - ref) / ref
        assert err <= 1e-14

    def test_fractional_order_moves_both(self):
        a = compare(Ambient(3, 0.5))
        assert a.c_spec == pytest.approx(2.0 / 6.0)
        assert a.c_two_peak == pytest.approx(2.0 - 2.0 ** (2.0 / 3.0))


class TestCompare:
    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_spectral_binds_low_dimension(self, d):
        rep = compare(Ambient(d, 1.0))
        assert rep.binding is Binding.SPECTRAL
        assert rep.upper_bound_on_cBE == rep.c_spec

    @pytest.mark.parametrize("d", [7, 8, 9, 10, 11, 12])
    def test_two_peak_binds_high_dimension(self, d):
        rep = compare(Ambient(d, 1.0))
        assert rep.binding is Binding.TWO_PEAK
        assert rep.upper_bound_on_cBE == rep.c_two_peak

    def test_upper_bound_is_min_and_below_one(self):
        for d in range(3, 13):
            rep = compare(Ambient(d, 1.0))
            assert rep.upper_bound_on_cBE == min(rep.c_spec, rep.c_two_peak)
            assert 0.0 < rep.upper_bound_on_cBE < 1.0

    def test_equal_thresholds_tie(self):
        """At d = 7 the two thresholds cross near s = 1.1418650286; the s
        found there by bisection puts them 5.6e-17 apart, within the tie
        tolerance, and either value is the bound."""
        rep = compare(Ambient(7, 1.141865028605656))
        assert rep.binding is Binding.TIE
        assert abs(rep.c_spec - rep.c_two_peak) < 1e-14
        assert rep.upper_bound_on_cBE == min(rep.c_spec, rep.c_two_peak)

    def test_d1_caveat_flag(self):
        assert compare(Ambient(1, 0.25)).d1_caveat is True
        assert compare(Ambient(3, 1.0)).d1_caveat is False


class TestCrossoverScan:
    def test_s1_default_scan(self):
        scan = crossover_scan(1.0)
        assert scan.crossover_d == 6
        assert scan.exploratory is False
        assert len(scan.reports) == 10
        bindings = {r.ambient.d: r.binding for r in scan.reports}
        for d in range(3, 7):
            assert bindings[d] is Binding.SPECTRAL
        for d in range(7, 13):
            assert bindings[d] is Binding.TWO_PEAK

    def test_no_crossover_when_scan_starts_high(self):
        scan = crossover_scan(1.0, d_min=7, d_max=9)
        assert scan.crossover_d is None

    def test_exploratory_flag_for_fractional_s(self):
        scan = crossover_scan(0.5, d_min=2, d_max=4)
        assert scan.exploratory is True

    def test_order_window_validation(self):
        with pytest.raises(ParameterError):
            crossover_scan(1.0, d_min=8, d_max=3)
        with pytest.raises(ParameterError):
            crossover_scan(1.0, d_min=0, d_max=3)
        with pytest.raises(ParameterError, match="restrict the dimension range"):
            crossover_scan(1.0, d_min=2, d_max=5)

    def test_scan_values_monotone_in_d(self):
        """At fixed s both thresholds decrease in d, and their gap changes
        sign exactly once."""
        scan = crossover_scan(1.0, d_min=3, d_max=12)
        spec = [r.c_spec for r in scan.reports]
        two = [r.c_two_peak for r in scan.reports]
        assert all(a > b for a, b in zip(spec, spec[1:]))
        assert all(a > b for a, b in zip(two, two[1:]))
        signs = [s_ < t_ for s_, t_ in zip(spec, two)]
        assert signs == sorted(signs, reverse=True)
