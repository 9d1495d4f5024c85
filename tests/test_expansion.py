"""Two-bubble interaction functions F, G, H, the finite-difference
derivative checks, and the small-lambda deficit sweep."""

import math
import warnings

import numpy as np
import pytest

from sobstab.constants import Ambient, sharp_constants
from sobstab.errors import ParameterError
from sobstab.expansion import (
    ExpansionPoint,
    F_of,
    G_of,
    H_of,
    assemble_report,
    default_lambda_grid,
    derivative_check,
    predicted_coefficient,
    sweep,
    sweep_point,
    two_bubble,
)
from sobstab.quadrature import QuadratureConfig
from sobstab.thresholds import two_peak_threshold

AMB31 = Ambient(3, 1.0)
AMB51 = Ambient(5, 1.0)


class TestInteractionFunctions:
    def test_f_at_one_is_unit(self):
        assert F_of(1.0, AMB31) == pytest.approx(1.0, rel=1e-10)

    @pytest.mark.parametrize("mu", [2.0, 7.5, 0.04])
    def test_f_ratio_symmetry(self, mu):
        assert F_of(mu, AMB31) == pytest.approx(F_of(1.0 / mu, AMB31), rel=1e-9)

    @pytest.mark.parametrize("mu", [0.3, 1.0, 0.05])
    def test_h_inversion_symmetry(self, mu):
        lam = 1e-2
        assert H_of(lam, mu, AMB31) == pytest.approx(
            H_of(lam, lam / mu, AMB31), rel=1e-9
        )

    def test_g_is_f_of_ratio(self):
        lam, mu = 1e-3, 0.7
        assert G_of(lam, mu, AMB31) == pytest.approx(
            F_of(lam / mu, AMB31), rel=1e-10
        )

    def test_h_is_sum(self):
        lam, mu = 1e-2, 0.4
        assert H_of(lam, mu, AMB31) == pytest.approx(
            F_of(mu, AMB31) + G_of(lam, mu, AMB31), rel=1e-12
        )

    def test_f_decay_constant(self):
        """F(mu) ~ c0 mu^(-(d-2s)/2) as the scales separate."""
        cst = sharp_constants(AMB31)
        mu = 1e4
        assert F_of(mu, AMB31) * mu**AMB31.beta_exp == pytest.approx(
            cst.c0, rel=1e-4
        )


    @pytest.mark.parametrize("mu", [0.0, -1.0, math.nan])
    def test_f_rejects_nonpositive_ratio(self, mu):
        with pytest.raises(ParameterError, match="mu must be > 0"):
            F_of(mu, AMB31)

    @pytest.mark.parametrize("lam, mu", [(0.0, 1.0), (1.0, -0.5), (math.nan, 1.0)])
    def test_g_rejects_nonpositive_scales(self, lam, mu):
        with pytest.raises(ParameterError, match="must be > 0"):
            G_of(lam, mu, AMB31)


class TestDerivativeCheck:
    def test_within_tolerances_at_3_1(self):
        dc = derivative_check(AMB31)
        assert abs(dc.f_prime) < 1e-7
        assert dc.f_second_rel_err < 1e-4
        assert dc.g_prime_rel_err < 1e-3
        assert dc.g_value_rel_err < 5e-3

    def test_closed_form_reference_values(self):
        dc = derivative_check(AMB31)
        assert dc.a_closed == pytest.approx(-1.0 / (32.0 * math.pi), rel=1e-13, abs=0.0)
        assert dc.b_closed == pytest.approx(-4.0 / (15.0 * math.pi**2), rel=1e-13, abs=0.0)
        assert dc.c0_closed == pytest.approx(16.0 / (3.0 * math.pi), rel=1e-13)

    def test_richardson_consistency(self):
        """The half-step stencil must agree with the full step well within
        the acceptance tolerance (both are O(h^2) accurate)."""
        dc = derivative_check(AMB31)
        assert abs(dc.f_second_half - dc.f_second) < 2e-4 * abs(dc.a_closed)
        assert abs(dc.g_prime_scaled_half - dc.g_prime_scaled) < 2e-3 * abs(
            dc.b_closed
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lam": 0.0},
            {"lam": 0.5},
            {"h_fd": 1e-6},
            {"h_fd": 1e-2},
        ],
    )
    def test_parameter_validation(self, kwargs):
        with pytest.raises(ParameterError):
            derivative_check(AMB31, **kwargs)


class TestTwoBubbleFamily:
    def test_terms(self):
        u = two_bubble(1e-3, AMB31)
        scales = sorted(t.scale for t in u.terms)
        assert scales == [1e-3, 1.0]
        assert all(t.coeff == 1.0 for t in u.terms)

    def test_lambda_one_is_on_manifold(self):
        """u_1 = 2*B is a manifold point: the quotient is undefined there."""
        pt = sweep_point(1.0, AMB31)
        assert pt.be_value is None
        assert pt.dist_sq <= 1e-8 * pt.hs_norm_sq

    @pytest.mark.parametrize("lam", [0.0, -1.0, 1.5])
    def test_domain(self, lam):
        with pytest.raises(ParameterError):
            two_bubble(lam, AMB31)


class TestThresholdAndPrediction:
    def test_threshold_closed_form(self):
        amb = AMB31
        assert two_peak_threshold(amb) == pytest.approx(
            2.0 - 2.0 ** ((amb.d - 2.0 * amb.s) / amb.d), rel=1e-15
        )

    def test_predicted_coefficient_sign_and_form(self):
        cst = sharp_constants(AMB31)
        expected = (2.0 ** (2.0 / AMB31.two_star + 1.0) - 2.0) * cst.c0
        assert predicted_coefficient(AMB31) == pytest.approx(expected, rel=1e-15, abs=0.0)
        assert predicted_coefficient(AMB31) > 0.0


class TestDefaultGrid:
    def test_3_1_grid(self):
        grid = default_lambda_grid(AMB31)
        assert grid[0] == pytest.approx(1e-2)
        assert grid[-1] == pytest.approx(1e-5)
        assert len(grid) == 16
        assert all(a > b for a, b in zip(grid, grid[1:]))

    def test_5_1_grid_raises_ceiling_and_floor(self):
        grid = default_lambda_grid(AMB51)
        assert grid[0] == pytest.approx(1e-1)
        assert grid[-1] == pytest.approx(1e-4)

    def test_loose_tolerance_rejected(self):
        with pytest.raises(ParameterError) as exc:
            default_lambda_grid(AMB31, QuadratureConfig(rel_tol=1e-4, abs_tol=1e-9))
        assert "tighten rel_tol" in str(exc.value)


def synthetic_point(amb, lam, be, mu=None):
    return ExpansionPoint(
        lam=lam,
        hs_norm_sq=1.0,
        lp_norm_sq_2star=1.0,
        m_value=1.0,
        mu_of_lambda=1.0 + 2.0 * lam**amb.beta_exp if mu is None else mu,
        dist_sq=1.0,
        be_value=be,
    )


class TestAssembleReport:
    """Exclusion and fitting logic probed with synthetic points, where the
    exact answer is known to machine precision."""

    def lam_grid(self):
        return list(np.geomspace(1e-2, 1e-5, 10))

    def test_recovers_exact_power_law(self):
        amb = AMB31
        thr = two_peak_threshold(amb)
        coef = 0.875
        pts = [
            synthetic_point(amb, lam, thr - coef * lam**amb.beta_exp)
            for lam in self.lam_grid()
        ]
        rep = assemble_report(amb, pts)
        assert rep.fitted_exponent == pytest.approx(amb.beta_exp, rel=1e-10)
        assert rep.fitted_coefficient == pytest.approx(coef, rel=1e-10)
        assert rep.residual_max < 1e-10
        assert rep.mu_bound_constant == pytest.approx(2.0, rel=1e-12)
        assert rep.excluded == ()

    def test_on_manifold_points_excluded(self):
        amb = AMB31
        thr = two_peak_threshold(amb)
        pts = [
            synthetic_point(amb, lam, thr - 0.9 * lam**amb.beta_exp)
            for lam in self.lam_grid()
        ]
        pts.append(synthetic_point(amb, 1.0, None))
        rep = assemble_report(amb, pts)
        assert rep.excluded == ((1.0, "on-manifold (be_quotient undefined)"),)

    def test_nonpositive_deficit_warns_and_excludes(self):
        amb = AMB31
        thr = two_peak_threshold(amb)
        pts = [
            synthetic_point(amb, lam, thr - 0.9 * lam**amb.beta_exp)
            for lam in self.lam_grid()
        ]
        pts.insert(0, synthetic_point(amb, 0.9, thr + 0.01))
        with pytest.warns(UserWarning, match="threshold"):
            rep = assemble_report(amb, pts)
        assert (0.9, "deficit non-positive") in rep.excluded

    def test_noise_floor_exclusion(self):
        amb = AMB31
        thr = two_peak_threshold(amb)
        pts = [
            synthetic_point(amb, lam, thr - 0.9 * lam**amb.beta_exp)
            for lam in self.lam_grid()
        ]
        pts.append(synthetic_point(amb, 1e-16, thr - 1e-8))
        rep = assemble_report(amb, pts)
        assert (1e-16, "deficit below noise floor") in rep.excluded

    def test_too_few_points_rejected(self):
        amb = AMB31
        thr = two_peak_threshold(amb)
        pts = [
            synthetic_point(amb, lam, thr - 0.9 * lam**amb.beta_exp)
            for lam in (1e-2, 1e-3, 1e-4)
        ]
        with pytest.raises(ParameterError, match="at least 4"):
            assemble_report(amb, pts)

    def test_narrow_span_rejected(self):
        amb = AMB31
        thr = two_peak_threshold(amb)
        pts = [
            synthetic_point(amb, lam, thr - 0.9 * lam**amb.beta_exp)
            for lam in np.geomspace(1e-3, 5e-3, 6)
        ]
        with pytest.raises(ParameterError, match="two decades"):
            assemble_report(amb, pts)


class TestSweep:
    def test_grid_validation(self):
        with pytest.raises(ParameterError):
            sweep(AMB31, lam_grid=[])
        with pytest.raises(ParameterError):
            sweep(AMB31, lam_grid=[1e-2, 2.0, 1e-4])

    def test_small_sweep_matches_leading_order(self):
        """A short real sweep at (5, 1): working in the fast-decay regime the
        fitted exponent must already sit near (d-2s)/2 = 3/2."""
        amb = AMB51
        grid = tuple(np.geomspace(1e-3, 1e-5, 9))
        rep = sweep(amb, lam_grid=grid)
        assert rep.predicted_exponent == pytest.approx(1.5)
        assert rep.fitted_exponent == pytest.approx(1.5, rel=0.05)
        assert rep.fitted_coefficient == pytest.approx(
            rep.predicted_coefficient, rel=0.15
        )
        assert rep.excluded == ()
        for pt in rep.points:
            assert pt.be_value is not None
            assert pt.be_value < rep.threshold
            assert pt.mu_of_lambda == pytest.approx(1.0, abs=0.05)
        assert rep.mu_bound_constant < 50.0
