"""Elementary inequality kernels: the convex profile g, the normalized
quotient, and the mediant comparison chain."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sobstab.errors import HypothesisError, ParameterError
from sobstab.inequalities import (
    QuotientSextuple,
    QuotientVerdict,
    convex_g,
    monotone_quotient,
    quotient_compare,
)

positive = st.floats(
    min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False
)
p_values = st.floats(
    min_value=2.1, max_value=20.0, allow_nan=False, allow_infinity=False
)


class TestConvexG:
    def test_known_value(self):
        assert convex_g(4.0, 1.0) == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_endpoints(self):
        assert convex_g(6.0, 1e-12) == pytest.approx(1.0, rel=1e-11)
        # for large t, g(t) ~ t
        assert convex_g(6.0, 1e6) == pytest.approx(1e6, rel=1e-6)

    @given(p=p_values, t1=positive, t2=positive)
    @settings(max_examples=200)
    def test_midpoint_convexity(self, p, t1, t2):
        mid = convex_g(p, 0.5 * (t1 + t2))
        assert mid <= 0.5 * (convex_g(p, t1) + convex_g(p, t2)) * (1.0 + 1e-12)

    def test_second_derivative_matches_closed_form(self):
        """Central second differences against the closed form
        g''(t) = (q-1) t^(q-2) (1+t^q)^(1/q-2), q = p/2."""
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            p = float(rng.uniform(2.2, 12.0))
            t = float(rng.uniform(0.2, 5.0))
            h = 1e-4 * t
            fd = (convex_g(p, t + h) - 2.0 * convex_g(p, t) + convex_g(p, t - h)) / (
                h * h
            )
            q = p / 2.0
            closed = (q - 1.0) * t ** (q - 2.0) * (1.0 + t**q) ** (1.0 / q - 2.0)
            assert fd == pytest.approx(closed, rel=5e-5, abs=1e-12)
            assert closed > 0.0

    @pytest.mark.parametrize("p, t", [(2.0, 1.0), (1.5, 1.0), (3.0, 0.0), (3.0, -1.0)])
    def test_domain(self, p, t):
        with pytest.raises(ParameterError):
            convex_g(p, t)


class TestMonotoneQuotient:
    def test_known_value(self):
        assert monotone_quotient(6.0, 1.0) == pytest.approx(
            2.0 ** (1.0 / 3.0) - 1.0, rel=1e-15
        )

    def test_series_matches_longdouble_direct_at_seam(self):
        """Just below eta = 1e-4, where a three-term binomial series once
        took over, the quotient must agree with an extended-precision
        expm1/log1p evaluation (the naive direct form loses ~10 digits to
        cancellation there and cannot serve as an oracle)."""
        for p in (2.5, 3.0, 4.0, 6.0, 10.0):
            for eta in (9.999e-5, 5e-5, 1e-5):
                got = monotone_quotient(p, eta)
                e = np.longdouble(eta)
                q = np.longdouble(2.0) / np.longdouble(p)
                direct = float(np.expm1(q * np.log1p(e**p)) / (e * e))
                assert got == pytest.approx(direct, rel=1e-13)

    def test_small_eta_matches_mpmath(self):
        """Over eta in [1e-12, 1e-4] and p in [2.001, 20] against 50 digits.
        The oracle needs expm1/log1p too: at 50 digits (1 + x)^q - 1 with
        x = eta^p still rounds to 0."""
        mp = pytest.importorskip("mpmath")
        worst = 0.0
        with mp.workdps(50):
            for p in (2.001, 2.1, 2.5, 3.0, 4.0, 7.0, 12.0, 20.0):
                for eta in np.geomspace(1e-12, 1e-4, 17):
                    eta = float(eta)
                    e, q = mp.mpf(eta), 2 / mp.mpf(p)
                    ref = mp.expm1(q * mp.log1p(e**p)) / (e * e)
                    err = abs(monotone_quotient(p, eta) - ref) / ref
                    worst = max(worst, float(err))
        assert worst <= 2e-15

    @pytest.mark.parametrize("p", [2.5, 3.0, 4.0, 6.0, 10.0])
    def test_strictly_increasing(self, p):
        etas = np.geomspace(1e-6, 1e3, 120)
        vals = [monotone_quotient(p, float(e)) for e in etas]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_limits(self):
        # eta -> 0 limit is 0, eta -> inf limit is 1
        assert monotone_quotient(3.0, 1e-8) < 1e-7
        assert monotone_quotient(3.0, 1e8) == pytest.approx(1.0, rel=1e-8)

    @pytest.mark.parametrize("p, eta", [(2.0, 1.0), (3.0, 0.0), (3.0, -0.5)])
    def test_domain(self, p, eta):
        with pytest.raises(ParameterError):
            monotone_quotient(p, eta)


def sextuple_from_quotients(a_over_b, c_over_d, e_over_f, B, D, F):
    return QuotientSextuple(
        A=a_over_b * B, B=B, C=c_over_d * D, D=D, E=e_over_f * F, F=F
    )


class TestQuotientCompare:
    def test_chain_example(self):
        q = QuotientSextuple(A=6.0, B=2.0, C=3.0, D=2.0, E=1.0, F=4.0)
        v = quotient_compare(q)
        assert isinstance(v, QuotientVerdict)
        assert v.first == pytest.approx(3.0)
        assert v.second == pytest.approx(2.25)
        assert v.third == pytest.approx(7.0 / 6.0)
        assert v.first >= v.second >= v.third
        assert v.first_strict and v.second_strict

    def test_all_equal_quotients_not_strict(self):
        q = QuotientSextuple(A=2.0, B=1.0, C=4.0, D=2.0, E=8.0, F=4.0)
        v = quotient_compare(q)
        assert v.first == v.second == v.third == 2.0
        assert not v.first_strict
        # D < F certifies strictness of the second comparison even with
        # equal quotients... but here it is vacuous since second == third;
        # the flag records the sufficient condition, which does hold
        assert v.second_strict

    def test_equal_everything_no_strictness(self):
        q = QuotientSextuple(A=1.0, B=1.0, C=1.0, D=1.0, E=1.0, F=1.0)
        v = quotient_compare(q)
        assert not v.first_strict
        assert not v.second_strict

    @pytest.mark.parametrize(
        "kwargs, fragment",
        [
            (dict(A=1.0, B=1.0, C=2.0, D=1.0, E=1.0, F=1.0), "A/B >= C/D"),
            (dict(A=4.0, B=1.0, C=1.0, D=1.0, E=2.0, F=1.0), "C/D >= E/F"),
            (dict(A=4.0, B=1.0, C=2.0, D=2.0, E=1.0, F=1.5), "D <= F"),
        ],
    )
    def test_hypothesis_violations_named(self, kwargs, fragment):
        with pytest.raises(HypothesisError) as exc:
            quotient_compare(QuotientSextuple(**kwargs))
        assert fragment in str(exc.value)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(A=0.0, B=1.0, C=1.0, D=1.0, E=1.0, F=1.0),
            dict(A=1.0, B=-1.0, C=1.0, D=1.0, E=1.0, F=1.0),
            dict(A=1.0, B=1.0, C=1.0, D=1.0, E=1.0, F=math.nan),
        ],
    )
    def test_positivity_enforced(self, kwargs):
        with pytest.raises(ParameterError):
            QuotientSextuple(**kwargs)

    @given(
        ab=st.floats(min_value=0.5, max_value=10.0),
        drop1=st.floats(min_value=0.0, max_value=0.4),
        drop2=st.floats(min_value=0.0, max_value=0.4),
        B=positive,
        D=positive,
        grow=st.floats(min_value=1.0, max_value=10.0),
    )
    @settings(max_examples=300)
    def test_chain_holds_for_generated_hypothesis_sets(
        self, ab, drop1, drop2, B, D, grow
    ):
        """Any sextuple built to satisfy the hypotheses yields a decreasing
        chain (up to roundoff)."""
        cd = ab * (1.0 - drop1)
        ef = cd * (1.0 - drop2)
        q = sextuple_from_quotients(ab, cd, ef, B, D, D * grow)
        # boundary draws (drop ~ 0, grow ~ 1) can land a rounding ulp on the
        # wrong side of a hypothesis; those are correctly rejected upstream
        assume(q.hyp_first and q.hyp_second and q.hyp_third)
        v = quotient_compare(q)
        eps = 1e-12 * max(v.first, 1.0)
        assert v.first >= v.second - eps
        assert v.second >= v.third - eps

    @given(
        ab=st.floats(min_value=0.5, max_value=10.0),
        gap=st.floats(min_value=1e-3, max_value=0.4),
        B=positive,
        D=positive,
    )
    @settings(max_examples=200)
    def test_strictness_flags_sound(self, ab, gap, B, D):
        """When A/B exceeds C/D by a real margin the first comparison is
        flagged strict and the chain strictly decreases."""
        cd = ab * (1.0 - gap)
        q = sextuple_from_quotients(ab, cd, cd, B, D, D)
        v = quotient_compare(q)
        assert v.first_strict
        assert v.first > v.second
