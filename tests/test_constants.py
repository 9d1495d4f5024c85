"""Closed-form constants: exact values, cross-identities, and domains."""

import math
from fractions import Fraction

import pytest

from sobstab.constants import (
    Ambient,
    appendix_constants,
    beta_half_line,
    normalization_c,
    sharp_constant,
    sharp_constants,
    sphere_area,
)
from sobstab.errors import ParameterError

AMB31 = Ambient(3, 1.0)
AMB51 = Ambient(5, 1.0)


class TestAmbient:
    def test_two_star(self):
        assert Ambient(3, 1.0).two_star == 6.0
        assert Ambient(5, 1.0).two_star == pytest.approx(10.0 / 3.0, rel=1e-15, abs=0.0)
        assert Ambient(2, 0.5).two_star == 4.0

    def test_beta_exp(self):
        assert Ambient(3, 1.0).beta_exp == 0.5
        assert Ambient(5, 1.0).beta_exp == 1.5

    @pytest.mark.parametrize(
        "d, s",
        [(0, 0.5), (3, 0.0), (3, 1.5), (3, -1.0), (2, 1.0), (3, math.inf)],
    )
    def test_rejects_inadmissible(self, d, s):
        with pytest.raises(ParameterError):
            Ambient(d, s)

    def test_rejects_non_integer_dimension(self):
        with pytest.raises(ParameterError):
            Ambient(3.0, 1.0)


class TestSphereArea:
    @pytest.mark.parametrize(
        "d, expected",
        [
            (1, 2.0),
            (2, 2.0 * math.pi),
            (3, 4.0 * math.pi),
            (4, 2.0 * math.pi**2),
        ],
    )
    def test_known_values(self, d, expected):
        assert sphere_area(d) == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_rejects_zero(self):
        with pytest.raises(ParameterError):
            sphere_area(0)


class TestBetaHalfLine:
    @pytest.mark.parametrize(
        "p, q",
        [(0.0, 1.0), (2.0, 3.0), (1.0, 1.5), (4.0, 3.0), (2.5, 7.0), (-0.5, 2.0)],
    )
    def test_against_direct_quadrature(self, p, q):
        quad = pytest.importorskip("scipy.integrate").quad
        closed = beta_half_line(p, q)
        direct, err = quad(
            lambda r: r**p * (1.0 + r * r) ** (-q), 0.0, math.inf, limit=200
        )
        assert closed == pytest.approx(direct, rel=1e-10)

    def test_simple_exact_value(self):
        # integral of (1+r^2)^-1 over (0, inf) = pi/2
        assert beta_half_line(0.0, 1.0) == pytest.approx(math.pi / 2.0, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize(
        "p, q",
        [(-1.0, 2.0), (2.0, 1.5), (0.0, 0.5), (math.nan, 2.0), (0.0, math.inf)],
    )
    def test_domain_errors(self, p, q):
        with pytest.raises(ParameterError):
            beta_half_line(p, q)


class TestClosedForms:
    """Frozen closed forms at (3, 1), reduced by hand before the build."""

    def test_c_d(self):
        assert normalization_c(AMB31) == pytest.approx(
            (2.0 / math.pi) ** (1.0 / 3.0), rel=1e-14
        )

    def test_sharp_constant(self):
        assert sharp_constant(AMB31) == pytest.approx(
            3.0 * (math.pi / 2.0) ** (4.0 / 3.0), rel=1e-13
        )

    def test_appendix_constants(self):
        c0, a_d, b_d = appendix_constants(AMB31)
        assert c0 == pytest.approx(16.0 / (3.0 * math.pi), rel=1e-13, abs=0.0)
        assert a_d == pytest.approx(-1.0 / (32.0 * math.pi), rel=1e-13, abs=0.0)
        assert b_d == pytest.approx(-4.0 / (15.0 * math.pi**2), rel=1e-13, abs=0.0)

    def test_eigen_factor_integer_values_for_s1(self):
        # For s = 1 the Gamma ratio collapses to d(d-2).
        assert sharp_constants(AMB31).A_ds == pytest.approx(3.0, rel=1e-13, abs=0.0)
        assert sharp_constants(AMB51).A_ds == pytest.approx(15.0, rel=1e-13, abs=0.0)
        assert sharp_constants(Ambient(7, 1.0)).A_ds == pytest.approx(
            35.0, rel=1e-13
        )

    def test_spectral_rational_value(self):
        # sanity anchor also used by the thresholds module
        assert Fraction(4, 7) == Fraction(4, 3 + 2 + 2)

    @pytest.mark.parametrize(
        "d, s",
        [
            (3, 1.0), (5, 1.0), (12, 1.0), (4, 1.3), (12, 0.05), (3, 1e-8),
            (12, 1e-8), (11, 5.4),
        ],
    )
    def test_all_constants_match_mpmath(self, d, s):
        """Every constant against its Gamma-function form at 40 digits; at
        s = 1e-8, c0 used to be 6e-9 off through the argument (d+2s)/2 - d/2,
        and at (11, 5.4), where 2* = 110, a power of a rounded c_d puts S_d,
        c0, a_d and b_d 1.3e-14 to 1.5e-14 off."""
        mp = pytest.importorskip("mpmath")
        cst = sharp_constants(Ambient(d, s))
        with mp.workdps(40):
            d_, s_ = mp.mpf(d), mp.mpf(s)
            g = mp.gamma
            area = 2 * mp.pi ** (d_ / 2) / g(d_ / 2)
            p = 2 * d_ / (d_ - 2 * s_)
            c_d = (area * g(d_ / 2) ** 2 / g(d_) / 2) ** (-1 / p)
            A = 4**s_ * g((d_ + 2 * s_) / 2) / g((d_ - 2 * s_) / 2)
            cross = g(d_ / 2) * g(s_) / g((d_ + 2 * s_) / 2)
            ref = {
                "c_d": c_d,
                "A_ds": A,
                "S_d": A * c_d ** (2 - p),
                "c0": c_d**p * area * cross / 2,
                "a_d": -(c_d**p) * (d_ - 2 * s_) / (2 * (d_ + 1))
                * g((d_ + 2) / 2) * g(d_ / 2) / g(d_ + 1),
                "b_d": -(c_d**p) * (d_ - 2 * s_) / (2 * (d_ + 2 * s_)) * cross,
            }
            for name, value in ref.items():
                err = abs(getattr(cst, name) - value) / abs(value)
                assert err <= 1e-14, (name, float(err))


class TestCrossIdentities:
    @pytest.mark.parametrize(
        "d, s", [(3, 1.0), (4, 1.0), (5, 1.0), (2, 0.5), (3, 0.75), (6, 2.5)]
    )
    def test_radial_slice_factor_ties_b_to_c0(self, d, s):
        """factor * b_d = -c0 (d-2s)/2 exactly (Beta-function identity)."""
        cst = sharp_constants(Ambient(d, s))
        lhs = cst.radial_slice_factor * cst.b_d
        rhs = -cst.c0 * (d - 2.0 * s) / 2.0
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("d, s", [(3, 1.0), (5, 1.0), (2, 0.5), (3, 0.75)])
    def test_constants_signs(self, d, s):
        cst = sharp_constants(Ambient(d, s))
        assert cst.c_d > 0 and cst.S_d > 0 and cst.c0 > 0
        assert cst.a_d < 0 and cst.b_d < 0

    @pytest.mark.parametrize("d", [3, 5])
    def test_sharp_constant_from_gradient_norm(self, d):
        """s = 1 cross-check: S_d = integral |grad B|^2 over R^d directly.

        B is the Sobolev optimizer with unit critical norm, so its Dirichlet
        energy equals the sharp constant exactly.
        """
        quad = pytest.importorskip("scipy.integrate").quad
        amb = Ambient(d, 1.0)
        cst = sharp_constants(amb)
        bexp = amb.beta_exp
        c = cst.c_d

        def grad_sq(r):
            # |B'(r)|^2 with B = c (1+r^2)^(-beta)
            return (2.0 * bexp * c * r) ** 2 * (1.0 + r * r) ** (-2.0 * bexp - 2.0)

        val, _ = quad(
            lambda r: grad_sq(r) * r ** (d - 1), 0.0, math.inf, limit=200
        )
        assert sphere_area(d) * val == pytest.approx(cst.S_d, rel=1e-10)

    @pytest.mark.parametrize("s", [1.0, 2.5e307], ids=["s1", "s-quarter-d"])
    def test_float_range_d_names_d(self, s):
        """At d = 1e308, (d + 2s)/2 rounds to d/2 and the log-Gamma sums are
        inf - inf; the error must name d, with no numpy warning."""
        with pytest.raises(ParameterError, match=r"^d = 10+ is too large"):
            sharp_constants(Ambient(10**308, s))

    def test_last_dimension_in_range(self):
        """At s = 1, d = 327 is the last dimension whose c_d^(2*) is a float,
        and every constant is finite up to it: none is formed through a
        product that overflows before c_d^(2*) does."""
        cst = sharp_constants(Ambient(327, 1.0))
        assert all(
            math.isfinite(v) and v != 0.0
            for v in (cst.c_d, cst.A_ds, cst.S_d, cst.c0, cst.a_d, cst.b_d)
        )
        with pytest.raises(ParameterError, match=r"^d = 328 is too large"):
            sharp_constants(Ambient(328, 1.0))

    @pytest.mark.parametrize(
        "fn", [normalization_c, sharp_constant, appendix_constants]
    )
    def test_readers_raise_where_the_set_does(self, fn):
        with pytest.raises(ParameterError, match=r"^d = 328 is too large"):
            fn(Ambient(328, 1.0))

    def test_cache_returns_same_object(self):
        assert sharp_constants(AMB31) is sharp_constants(Ambient(3, 1.0))
