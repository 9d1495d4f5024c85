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
        reproduces sqrt(m) and nearby scales do not beat it, for a
        concentric and a signed collinear pair."""
        collinear = Superposition(
            AMB31,
            (
                BubbleParam(1.0, (0.0, 0.0, 0.0), 1.0),
                BubbleParam(-0.6, (1.5, 0.0, 0.0), 0.4),
            ),
        )
        for u in (concentric(AMB31, (1.0, 1.0), (1.0, 0.01)), collinear):
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

    @pytest.mark.parametrize("sep", [1e160, 1e200])
    def test_far_pair_where_separation_squared_overflows(self, sep):
        """Past sep ~ 1e154 the squared separation overflows.  The pair
        (1 at 0, -0.5 at sep e_1), lambda 1, has decoupled as it has at
        sep = 1e20: m is the unit bubble's own pairing, 1, and the only other
        maximum is the second bubble's, 0.25, not a plateau of pairings that
        underflow to 0."""

        def report(x):
            return functional_report(
                Superposition(
                    AMB31,
                    (
                        BubbleParam(1.0, ORIGIN3, 1.0),
                        BubbleParam(-0.5, (x, 0.0, 0.0), 1.0),
                    ),
                )
            )

        rep = report(sep)
        assert rep.m.value == pytest.approx(1.0, abs=1e-12)
        assert rep.be_quotient == pytest.approx(report(1e20).be_quotient, abs=1e-12)
        best = rep.m.maximizer
        assert best.center == pytest.approx(ORIGIN3, abs=1e-12)
        assert best.scale == pytest.approx(1.0, abs=1e-12)
        values = [v for _, v in rep.m.all_local_maxima]
        assert values == pytest.approx([1.0, 0.25], abs=1e-12)

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


def _collinear_draws(d, count, seed):
    """Seeded signed superpositions of 2 and 3 terms on the first axis: one
    negative coefficient, magnitudes 10^U(-0.3, 0), offsets U(-3, 3),
    scales 10^U(-1.5, 1.5)."""
    rng = np.random.default_rng(seed)
    amb = Ambient(d, 0.5 if d == 2 else 1.0)
    out = []
    for k in range(count):
        n = 2 + k % 2
        neg = rng.integers(n)
        out.append(
            Superposition(
                amb,
                tuple(
                    BubbleParam(
                        10.0 ** rng.uniform(-0.3, 0.0) * (-1.0 if i == neg else 1.0),
                        (rng.uniform(-3.0, 3.0),) + (0.0,) * (d - 1),
                        10.0 ** rng.uniform(-1.5, 1.5),
                    )
                    for i in range(n)
                ),
            )
        )
    return out


_CONCENTRIC_PAIRS = (
    ((1.0, 1.0), (1.0, 0.01)),
    ((1.0, 1.0), (0.5, 20.0)),
    ((1.0, 1.0), (-0.7, 0.1)),
    ((1.0, 1.0), (-1.0, 0.7)),
)


def _search_corpus(count):
    """count collinear draws per d in {2, 3, 5, 7}, plus same-sign and
    signed concentric pairs at d = 3 and 5."""
    cases = [
        pytest.param(u, id=f"col-d{d}-{k}")
        for d in (2, 3, 5, 7)
        for k, u in enumerate(_collinear_draws(d, count, seed=d))
    ]
    cases += [
        pytest.param(
            concentric(Ambient(d, 1.0), *pairs),
            id=f"conc-d{d}-{pairs[1][0]:g}@{pairs[1][1]:g}",
        )
        for d in (3, 5)
        for pairs in _CONCENTRIC_PAIRS
    ]
    return cases


def _squared_pairing(u, x, log_scale):
    center = (x,) + (0.0,) * (u.ambient.d - 1)
    p = pair_against_bubble(u, BubbleParam(1.0, center, math.exp(log_scale)))
    return p * p


class TestSearchOracle:
    """m_value against the public pairing on probes the test chooses:
    unit bubbles centered on the first axis, which carries every center."""

    @pytest.mark.parametrize("u", _search_corpus(4))
    def test_m_dominates_dense_grid(self, u):
        """m is at least the best squared pairing over a grid unrelated to
        the search's: 9 points over each center +- 3 widths and over the
        cloud, log scales a third apart over [log lambda_min - 4,
        log lambda_max + 4]."""
        xs = np.array([t.center[0] for t in u.terms])
        widths = np.array([1.0 / t.scale for t in u.terms])
        spans = [(x - 3 * w, x + 3 * w) for x, w in zip(xs, widths)]
        spans.append(((xs - 3 * widths).min(), (xs + 3 * widths).max()))
        axis = np.concatenate([np.linspace(lo, hi, 9) for lo, hi in spans])
        logs = -np.log(widths)
        scales = np.arange(logs.min() - 4.0, logs.max() + 4.0, 1.0 / 3.0)
        best = max(_squared_pairing(u, x, z) for x in axis for z in scales)
        assert m_value(u).value >= (1.0 - 1e-12) * best

    @pytest.mark.parametrize("d", [2, 3, 5, 7])
    def test_reported_maxima_are_local_maxima(self, d):
        """No neighbour 1e-4 away in axial position (in widths of the
        probe) or in log scale beats a reported local maximum, on 100
        collinear draws per d and the concentric pairs."""
        corpus = _collinear_draws(d, 100, seed=d)
        if d in (3, 5):
            corpus += [concentric(Ambient(d, 1.0), *p) for p in _CONCENTRIC_PAIRS]
        for u in corpus:
            for b, v in m_value(u).all_local_maxima:
                x, z = b.center[0], math.log(b.scale)
                for i in (-1, 0, 1):
                    for j in (-1, 0, 1):
                        q = _squared_pairing(u, x + i * 1e-4 / b.scale, z + j * 1e-4)
                        assert q <= v * (1.0 + 1e-12), (u, b, i, j)


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
            functional_report(concentric(AMB31, *pairs), cfg="not a config")

    @pytest.mark.parametrize("lam", [1.0, 1.000000001], ids=["exact", "rounded"])
    def test_cancelling_terms_have_no_quotient(self, lam):
        """B - B_lam: at lam = 1 u is 0; at 1.000000001 hs_norm_sq rounds to
        0.0.  Neither may divide by it."""
        u = concentric(AMB31, (1.0, 1.0), (-1.0, lam))
        for quotient in (functional_report, sobolev_quotient, be_quotient):
            with pytest.raises(ParameterError, match="terms of u cancel"):
                quotient(u)

    def test_cancelling_terms_have_no_maximizer(self):
        """u = B - B pairs with no probe bubble, so no grid value is positive."""
        u = concentric(AMB31, (1.0, 1.0), (-1.0, 1.0))
        for search in (m_value, dist_sq):
            with pytest.raises(ParameterError, match="terms of u cancel"):
                search(u)

    def test_moptimum_is_frozen(self):
        u = concentric(AMB31, (1.0, 1.0))
        mopt = m_value(u)
        assert isinstance(mopt, MOptimum)
        with pytest.raises(AttributeError):
            mopt.value = 0.0  # type: ignore[misc]
