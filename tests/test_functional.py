"""Distance-to-manifold machinery: the m(f) maximizer search, dist_sq,
and the stability quotient."""

import math

import numpy as np
import pytest

from sobstab.bubbles import BubbleParam, Superposition, pair_against_bubble
from sobstab.constants import Ambient, sharp_constants
from sobstab.errors import ParameterError
from sobstab.functional import (
    ON_MANIFOLD_REL_TOL,
    MOptimum,
    be_quotient,
    dist_sq,
    functional_report,
    m_value,
    sobolev_quotient,
)

AMB31 = Ambient(3, 1.0)
ORIGIN3 = (0.0, 0.0, 0.0)


def concentric(amb, *pairs):
    return Superposition(
        amb,
        tuple(BubbleParam(c, (0.0,) * amb.d, lam) for c, lam in pairs),
    )


class TestSingleBubble:
    def test_m_equals_coeff_squared(self):
        u = concentric(AMB31, (2.0, 3.0))
        mopt = m_value(u)
        assert mopt.value == pytest.approx(4.0, rel=1e-9)
        assert mopt.maximizer.scale == pytest.approx(3.0, rel=1e-6)

    def test_distance_vanishes(self):
        u = concentric(AMB31, (2.0, 3.0))
        rep = functional_report(u)
        assert rep.dist_sq <= ON_MANIFOLD_REL_TOL * rep.hs_norm_sq
        assert rep.be_quotient is None

    def test_be_quotient_helper_agrees(self):
        u = concentric(AMB31, (1.0, 1.0))
        assert be_quotient(u) is None

    def test_negative_coefficient(self):
        """m is a squared pairing; the maximizer of a negative bubble pairs
        negatively but m stays coeff^2."""
        u = concentric(AMB31, (-1.5, 1.0))
        assert m_value(u).value == pytest.approx(2.25, rel=1e-9)


class TestTwoBubbleConcentric:
    def test_branches_near_each_scale(self):
        lam = 1e-3
        u = concentric(AMB31, (1.0, 1.0), (1.0, lam))
        mopt = m_value(u)
        scales = sorted(b.scale for b, _ in mopt.all_local_maxima)
        assert len(scales) == 2
        # each branch tracks one of the two bubbles, pulled slightly toward
        # the partner; by inversion symmetry of the equal-coefficient pair
        # the two branch scales multiply exactly to lam
        assert scales[0] == pytest.approx(lam, rel=0.15)
        assert scales[1] == pytest.approx(1.0, rel=0.15)
        assert scales[0] * scales[1] == pytest.approx(lam, rel=1e-6)

    def test_branch_values_agree_for_symmetric_pair(self):
        """u = B_lambda + B_(1/lambda) is inversion symmetric, so the two
        branches of the maximization carry equal values."""
        lam = 40.0
        u = concentric(AMB31, (1.0, lam), (1.0, 1.0 / lam))
        mopt = m_value(u)
        assert len(mopt.all_local_maxima) == 2
        v0, v1 = (v for _, v in mopt.all_local_maxima)
        assert v0 == pytest.approx(v1, rel=1e-8)

    def test_tie_break_prefers_smaller_scale(self):
        lam = 40.0
        u = concentric(AMB31, (1.0, lam), (1.0, 1.0 / lam))
        mopt = m_value(u)
        assert mopt.maximizer.scale < 1.0

    def test_m_exceeds_single_branch(self):
        u = concentric(AMB31, (1.0, 1.0), (1.0, 1e-4))
        mopt = m_value(u)
        # each branch must beat the bare diagonal pairing of its own bubble
        assert mopt.value > 1.0
        for _, v in mopt.all_local_maxima:
            assert v > 1.0 - 1e-12

    def test_maximizer_is_stationary(self):
        """Re-pairing the reported maximizer through the public path
        reproduces sqrt(m) and nearby scales do not beat it."""
        u = concentric(AMB31, (1.0, 1.0), (1.0, 0.01))
        mopt = m_value(u)
        b = mopt.maximizer
        p = pair_against_bubble(u, b)
        assert p * p == pytest.approx(mopt.value, rel=1e-10)
        for bump in (0.999, 1.001):
            nb = BubbleParam(1.0, b.center, b.scale * bump)
            q = pair_against_bubble(u, nb)
            assert q * q <= mopt.value * (1.0 + 1e-9)

    def test_mixed_sign_concentric(self):
        u = concentric(AMB31, (1.0, 1.0), (-0.6, 25.0))
        rep = functional_report(u)
        assert rep.m.value > 0.0
        assert rep.dist_sq > 0.0
        assert rep.be_quotient is not None and rep.be_quotient > 0.0


class TestCollinear:
    def test_interacting_pair_branches_are_symmetric(self):
        """At separation 6 the two branch maximizers are pulled well inside
        the segment but stay mirror images about the midpoint with equal
        values and scales."""
        u = Superposition(
            AMB31,
            (
                BubbleParam(1.0, (0.0, 0.0, 0.0), 1.0),
                BubbleParam(1.0, (6.0, 0.0, 0.0), 1.0),
            ),
        )
        mopt = m_value(u)
        branches = sorted(mopt.all_local_maxima, key=lambda bv: bv[0].center[0])
        assert len(branches) == 2
        (b0, v0), (b1, v1) = branches
        assert 0.0 < b0.center[0] < 3.0 < b1.center[0] < 6.0
        assert b0.center[0] + b1.center[0] == pytest.approx(6.0, abs=1e-4)
        assert v0 == pytest.approx(v1, rel=1e-8)
        assert b0.scale == pytest.approx(b1.scale, rel=1e-5)
        for b, _ in mopt.all_local_maxima:
            assert b.center[1] == 0.0 and b.center[2] == 0.0

    def test_far_separated_pair_branches_sit_at_centers(self):
        u = Superposition(
            AMB31,
            (
                BubbleParam(1.0, (0.0, 0.0, 0.0), 1.0),
                BubbleParam(1.0, (60.0, 0.0, 0.0), 1.0),
            ),
        )
        mopt = m_value(u)
        xs = sorted(b.center[0] for b, _ in mopt.all_local_maxima)
        assert len(xs) == 2
        assert xs[0] == pytest.approx(0.0, abs=0.5)
        assert xs[1] == pytest.approx(60.0, abs=0.5)

    def test_dist_positive_for_separated_pair(self):
        u = Superposition(
            AMB31,
            (
                BubbleParam(1.0, (0.0, 0.0, 0.0), 1.0),
                BubbleParam(1.0, (6.0, 0.0, 0.0), 1.0),
            ),
        )
        rep = functional_report(u)
        assert rep.dist_sq > 0.1 * rep.hs_norm_sq
        assert rep.be_quotient is not None

    def test_single_offcenter_bubble_found(self):
        u = Superposition(AMB31, (BubbleParam(1.0, (2.0, 2.0, 0.0), 5.0),))
        mopt = m_value(u)
        assert mopt.value == pytest.approx(1.0, rel=1e-8)
        assert np.linalg.norm(np.subtract(mopt.maximizer.center, (2, 2, 0))) < 1e-3
        assert mopt.maximizer.scale == pytest.approx(5.0, rel=1e-3)


class TestIdentities:
    def test_dist_sq_identity(self):
        u = concentric(AMB31, (1.0, 1.0), (1.0, 0.05))
        from sobstab.bubbles import hs_norm_sq

        hs = hs_norm_sq(u)
        mopt = m_value(u)
        d2 = dist_sq(u)
        assert d2 == pytest.approx(
            hs - sharp_constants(AMB31).S_d * mopt.value, rel=1e-12
        )

    @pytest.mark.parametrize(
        "pairs",
        [
            ((1.0, 1.0),),
            ((1.0, 1.0), (1.0, 0.1)),
            ((1.0, 1.0), (-0.5, 10.0)),
        ],
    )
    def test_sobolev_quotient_at_least_sharp(self, pairs):
        u = concentric(AMB31, *pairs)
        assert sobolev_quotient(u) >= sharp_constants(AMB31).S_d * (1.0 - 1e-8)

    def test_quotient_invariance_under_dilation(self):
        from sobstab.bubbles import dilate

        u = concentric(AMB31, (1.0, 1.0), (1.0, 1e-2))
        v = dilate(u, 7.3)
        ru, rv = functional_report(u), functional_report(v)
        assert rv.m.value == pytest.approx(ru.m.value, rel=1e-7)
        assert rv.dist_sq == pytest.approx(ru.dist_sq, rel=1e-6)
        assert rv.be_quotient == pytest.approx(ru.be_quotient, rel=1e-6)


class TestFrozenValues:
    def test_two_bubble_quotient_at_lambda_1em4(self):
        """Frozen regression value for E(B_1 + B_lambda) at lambda = 1e-4,
        cross-checked against the independent sweep machinery."""
        u = concentric(AMB31, (1.0, 1.0), (1.0, 1e-4))
        rep = functional_report(u)
        assert rep.be_quotient == pytest.approx(0.7304844750, abs=2e-6)

    def test_m_against_brute_force_grid(self):
        """Dense log-scale grid plus local refinement as an independent
        oracle for the concentric maximizer search."""
        u = concentric(AMB31, (1.0, 1.0), (0.7, 0.02))
        mopt = m_value(u)

        def q(logmu):
            b = BubbleParam(1.0, ORIGIN3, math.exp(logmu))
            p = pair_against_bubble(u, b)
            return p * p

        grid = np.linspace(math.log(0.02) - 6, 6.0, striding := 161)
        vals = [q(x) for x in grid]
        k = int(np.argmax(vals))
        a, b = grid[max(0, k - 1)], grid[min(len(grid) - 1, k + 1)]
        gr = (math.sqrt(5.0) - 1.0) / 2.0
        for _ in range(80):
            m1 = b - gr * (b - a)
            m2 = a + gr * (b - a)
            if q(m1) < q(m2):
                a = m1
            else:
                b = m2
        brute = q(0.5 * (a + b))
        assert mopt.value == pytest.approx(brute, rel=1e-8)
        assert striding == 161


class TestValidation:
    def test_report_rejects_general_geometry(self):
        from sobstab.errors import GeometryError

        u = Superposition(
            AMB31,
            (
                BubbleParam(1.0, (0.0, 0.0, 0.0), 1.0),
                BubbleParam(1.0, (1.0, 0.0, 0.0), 1.0),
                BubbleParam(1.0, (0.0, 1.0, 0.0), 1.0),
            ),
        )
        with pytest.raises(GeometryError):
            functional_report(u)

    def test_m_value_rejects_general_geometry(self):
        from sobstab.errors import GeometryError

        u = Superposition(
            AMB31,
            (
                BubbleParam(1.0, (0.0, 0.0, 0.0), 1.0),
                BubbleParam(1.0, (1.0, 0.0, 0.0), 1.0),
                BubbleParam(1.0, (0.0, 1.0, 0.0), 1.0),
            ),
        )
        with pytest.raises(GeometryError):
            m_value(u)

    @pytest.mark.parametrize("pairs", [((1.0, 1.0),), ((1.0, 1.0), (-0.5, 2.0))])
    def test_bad_config_is_parameter_error(self, pairs):
        with pytest.raises(ParameterError):
            m_value(concentric(AMB31, *pairs), cfg="not a config")
        with pytest.raises(ParameterError):
            functional_report(concentric(AMB31, *pairs), cfg="not a config")

    def test_moptimum_is_frozen(self):
        u = concentric(AMB31, (1.0, 1.0))
        mopt = m_value(u)
        assert isinstance(mopt, MOptimum)
        with pytest.raises(AttributeError):
            mopt.value = 0.0  # type: ignore[misc]

    def test_bad_config_type_propagates(self):
        with pytest.raises((ParameterError, AttributeError, TypeError)):
            m_value(concentric(AMB31, (1.0, 1.0)), cfg="not a config")
