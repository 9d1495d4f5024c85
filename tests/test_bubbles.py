"""Bubble algebra: evaluation, conformal actions, pairings, norms, geometry
classification, and the JSON schema."""

import math

import numpy as np
import pytest

from sobstab.bubbles import (
    BubbleParam,
    Geometry,
    Superposition,
    _conformal_invariant,
    dilate,
    evaluate,
    hs_inner,
    hs_norm_sq,
    invert,
    lp_norm,
    pair_against_bubble,
    superposition_from_dict,
    superposition_to_dict,
)
from sobstab.constants import Ambient, sharp_constants
from sobstab.errors import GeometryError, ParameterError, SchemaError
from sobstab.functional import m_value

AMB31 = Ambient(3, 1.0)
ORIGIN3 = (0.0, 0.0, 0.0)


def single(amb, coeff=1.0, center=None, scale=1.0):
    center = (0.0,) * amb.d if center is None else center
    return Superposition(amb, (BubbleParam(coeff, center, scale),))


def axis_pair(d, s, c2, x2, l2):
    """The pair (1 at 0, lambda 1), (c2 at x2 e_1, lambda l2)."""
    return Superposition(
        Ambient(d, s),
        (
            BubbleParam(1.0, (0.0,) * d, 1.0),
            BubbleParam(c2, (x2,) + (0.0,) * (d - 1), l2),
        ),
    )


def mp_radial_pair_mass(d, s, c1, c2, t):
    """int |c1 B_{0,1} + c2 B_{0,1/t}|^(2*) over R^d by mpmath at 30 digits,
    as a radial integral split at the radii 1 and t and at the profile's
    sign change.  c_d comes from its defining Beta integral,
    c_d^(2*) |S^(d-1)| B(d/2, d/2) / 2 = 1."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        d, s, t = mp.mpf(d), mp.mpf(s), mp.mpf(t)
        p = 2 * d / (d - 2 * s)
        b = (d - 2 * s) / 2
        area = 2 * mp.pi ** (d / 2) / mp.gamma(d / 2)
        c_d = (area * mp.beta(d / 2, d / 2) / 2) ** (-1 / p)

        def radial(r):
            u = c1 * (1 + r * r) ** -b + c2 * t**-b * (1 + r * r / (t * t)) ** -b
            return r ** (d - 1) * abs(c_d * u) ** p

        breaks = {mp.mpf(0), mp.mpf(0.25), mp.mpf(1), mp.mpf(4), t / 4, t, 4 * t}
        if c1 * c2 < 0:
            # the profile vanishes where (1 + r^2/t^2)/(1 + r^2) = q
            q = mp.mpf(-c2 / c1) ** (1 / b) / t
            r2 = (q - 1) / (1 / (t * t) - q)
            if r2 > 0:
                breaks.add(mp.sqrt(r2))
        return area * mp.quad(radial, sorted(breaks) + [mp.inf])


DIAG = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
LINE_TERMS = [(1.0, 0.0, 1.0), (-0.6, 1.5, 0.7), (0.8, -2.0, 1.4)]


def on_line(terms, origin, direction):
    """The d = 3, s = 1 superposition of (coeff, axial position, scale)
    terms on the line through origin along direction."""
    origin, direction = np.asarray(origin), np.asarray(direction)
    return Superposition(
        AMB31,
        tuple(BubbleParam(c, tuple(origin + x * direction), lam) for c, x, lam in terms),
    )


class TestBubbleParam:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(coeff=0.0, center=ORIGIN3, scale=1.0),
            dict(coeff=math.nan, center=ORIGIN3, scale=1.0),
            dict(coeff=1.0, center=ORIGIN3, scale=0.0),
            dict(coeff=1.0, center=ORIGIN3, scale=-2.0),
            dict(coeff=1.0, center=(0.0, math.inf, 0.0), scale=1.0),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ParameterError):
            BubbleParam(**kwargs)

    def test_dimension_mismatch(self):
        with pytest.raises(ParameterError):
            Superposition(AMB31, (BubbleParam(1.0, (0.0, 0.0), 1.0),))

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            Superposition(AMB31, ())


class TestGeometry:
    def test_concentric(self):
        u = Superposition(
            AMB31,
            (
                BubbleParam(1.0, (1.0, 2.0, 3.0), 1.0),
                BubbleParam(-2.0, (1.0, 2.0, 3.0), 5.0),
            ),
        )
        assert u.geometry is Geometry.CONCENTRIC

    def test_collinear(self):
        u = Superposition(
            AMB31,
            (
                BubbleParam(1.0, (0.0, 0.0, 0.0), 1.0),
                BubbleParam(1.0, (1.0, 1.0, 0.0), 1.0),
                BubbleParam(1.0, (-2.0, -2.0, 0.0), 1.0),
            ),
        )
        assert u.geometry is Geometry.COLLINEAR

    def test_general(self):
        u = Superposition(
            AMB31,
            (
                BubbleParam(1.0, (0.0, 0.0, 0.0), 1.0),
                BubbleParam(1.0, (1.0, 0.0, 0.0), 1.0),
                BubbleParam(1.0, (0.0, 1.0, 0.0), 1.0),
            ),
        )
        assert u.geometry is Geometry.GENERAL

    def test_concentric_within_tolerance(self):
        """Offsets of 1e-16 of the cloud scale are below the tolerance: the
        cloud is concentric and integrates as the exactly concentric one."""
        near = Superposition(
            AMB31,
            (
                BubbleParam(1.0, ORIGIN3, 1.0),
                BubbleParam(-0.7, (1e-16, 0.0, 0.0), 0.1),
                BubbleParam(0.5, (0.0, -1e-16, 0.0), 3.0),
            ),
        )
        exact = Superposition(
            AMB31, tuple(BubbleParam(t.coeff, ORIGIN3, t.scale) for t in near.terms)
        )
        assert near.geometry is Geometry.CONCENTRIC
        assert lp_norm(near) == lp_norm(exact)

    @pytest.mark.parametrize(
        "offset, expected",
        [(1e-16, Geometry.COLLINEAR), (1e-10, Geometry.GENERAL)],
    )
    def test_diagonal_line_offset(self, offset, expected):
        """A cloud of extent 2 on the diagonal, one center moved off the
        line by offset times the extent."""
        u = Superposition(
            AMB31,
            (
                BubbleParam(1.0, ORIGIN3, 1.0),
                BubbleParam(1.0, tuple(2.0 * DIAG), 1.0),
                BubbleParam(1.0, tuple(-1.5 * DIAG + (0.0, 0.0, 2.0 * offset)), 1.0),
            ),
        )
        assert u.geometry is expected

    def test_diagonal_line_frame(self):
        """On the diagonal the m-search stays on the line, and lp_norm is
        that of the same cloud rotated onto the first axis."""
        diag = on_line(LINE_TERMS, ORIGIN3, DIAG)
        first_axis = on_line(LINE_TERMS, ORIGIN3, (1.0, 0.0, 0.0))
        for bubble, _ in m_value(diag).all_local_maxima:
            c = np.array(bubble.center)
            assert np.linalg.norm(c - (c @ DIAG) * DIAG) <= 1e-12
        assert lp_norm(diag) == pytest.approx(lp_norm(first_axis), rel=1e-13)

    def test_farthest_center_not_last(self):
        """The axis runs to the farthest center, here the second; the last
        coincides with the first."""
        terms = [(1.0, 0.0, 1.0), (0.7, 3.0, 0.5), (-0.5, 0.0, 2.0)]
        u = on_line(terms, (1.0, -2.0, 0.5), (0.0, 0.0, 1.0))
        v = on_line(terms, ORIGIN3, (1.0, 0.0, 0.0))
        assert u.geometry is Geometry.COLLINEAR
        assert lp_norm(u) == pytest.approx(lp_norm(v), rel=1e-13)
        assert m_value(u).value == pytest.approx(m_value(v).value, rel=1e-13)

    def test_general_rejected_by_norms(self):
        u = Superposition(
            AMB31,
            (
                BubbleParam(1.0, (0.0, 0.0, 0.0), 1.0),
                BubbleParam(1.0, (1.0, 0.0, 0.0), 1.0),
                BubbleParam(1.0, (0.0, 1.0, 0.0), 1.0),
            ),
        )
        with pytest.raises(GeometryError):
            lp_norm(u)


class TestEvaluate:
    def test_center_value(self):
        cst = sharp_constants(AMB31)
        u = single(AMB31, coeff=2.0, scale=4.0)
        assert evaluate(u, ORIGIN3) == pytest.approx(2.0 * 2.0 * cst.c_d, rel=1e-14)

    def test_decay_value(self):
        cst = sharp_constants(AMB31)
        u = single(AMB31)
        assert evaluate(u, (1.0, 0.0, 0.0)) == pytest.approx(
            cst.c_d / math.sqrt(2.0), rel=1e-14
        )

    def test_superposition_linearity(self):
        u1 = single(AMB31, coeff=1.0, scale=1.0)
        u2 = single(AMB31, coeff=3.0, scale=2.0)
        both = Superposition(AMB31, u1.terms + u2.terms)
        y = (0.3, -0.2, 0.9)
        assert evaluate(both, y) == pytest.approx(
            evaluate(u1, y) + evaluate(u2, y), rel=1e-14
        )

    @pytest.mark.parametrize("y", [(0.0, 0.0), (0.0, 0.0, 0.0, 0.0)])
    def test_point_length_must_match_d(self, y):
        with pytest.raises(ParameterError, match="3 coordinates"):
            evaluate(single(AMB31), y)


class TestConformalActions:
    def test_dilate_pointwise(self):
        u = Superposition(
            AMB31,
            (
                BubbleParam(1.0, (0.5, 0.0, -1.0), 2.0),
                BubbleParam(-0.7, (1.0, 0.0, -2.0), 0.3),
            ),
        )
        mu = 3.7
        y = np.array([0.2, -0.4, 1.1])
        lhs = evaluate(dilate(u, mu), tuple(y))
        rhs = mu**AMB31.beta_exp * evaluate(u, tuple(mu * y))
        assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_dilate_validation(self):
        with pytest.raises(ParameterError):
            dilate(single(AMB31), 0.0)

    def test_invert_is_involution(self):
        u = Superposition(
            AMB31,
            (BubbleParam(1.0, ORIGIN3, 2.0), BubbleParam(2.0, ORIGIN3, 0.125)),
        )
        back = invert(invert(u, 1.5), 1.5)
        for t0, t1 in zip(u.terms, back.terms):
            assert t1.scale == pytest.approx(t0.scale, rel=1e-15)

    @pytest.mark.parametrize("tau", [0.0, -1.0, math.inf, math.nan])
    def test_invert_validation(self, tau):
        with pytest.raises(ParameterError, match="inversion radius"):
            invert(single(AMB31), tau)

    def test_invert_requires_origin_centers(self):
        u = single(AMB31, center=(1.0, 0.0, 0.0))
        with pytest.raises(GeometryError):
            invert(u, 1.0)

    def test_dilation_preserves_hs_norm(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            scales = rng.uniform(0.2, 5.0, size=2)
            coeffs = rng.uniform(0.5, 2.0, size=2)
            u = Superposition(
                AMB31,
                (
                    BubbleParam(coeffs[0], ORIGIN3, scales[0]),
                    BubbleParam(coeffs[1], ORIGIN3, scales[1]),
                ),
            )
            mu = float(rng.uniform(0.2, 5.0))
            assert hs_norm_sq(dilate(u, mu)) == pytest.approx(
                hs_norm_sq(u), rel=1e-9
            )

    def test_pairing_inversion_symmetry(self):
        """(B_lam, B_mu^(2*-1)) is invariant under the simultaneous
        inversion (lam, mu) -> (tau^-2/lam, tau^-2/mu)."""
        lam, mu, tau = 2.0, 0.4, 1.3
        u = single(AMB31, scale=lam)
        before = pair_against_bubble(u, BubbleParam(1.0, ORIGIN3, mu))
        ui = invert(u, tau)
        after = pair_against_bubble(
            ui, BubbleParam(1.0, ORIGIN3, 1.0 / (tau * tau * mu))
        )
        assert after == pytest.approx(before, rel=1e-9)


class TestPairings:
    def test_probe_center_length_must_match_d(self):
        with pytest.raises(ParameterError, match="dimension"):
            pair_against_bubble(single(AMB31), BubbleParam(1.0, (0.0, 0.0), 1.0))

    def test_self_pairing_is_one(self):
        for scale in (1.0, 0.01, 100.0):
            u = single(AMB31, scale=scale)
            p = pair_against_bubble(u, BubbleParam(1.0, ORIGIN3, scale))
            assert p == pytest.approx(1.0, rel=1e-10)

    def test_unit_coefficient_required(self):
        with pytest.raises(ParameterError):
            pair_against_bubble(single(AMB31), BubbleParam(2.0, ORIGIN3, 1.0))

    def test_small_scale_cross_pairing_matches_leading_constant(self):
        cst = sharp_constants(AMB31)
        lam = 1e-6
        u = single(AMB31, scale=lam)
        p = pair_against_bubble(u, BubbleParam(1.0, ORIGIN3, 1.0))
        assert p / math.sqrt(lam) == pytest.approx(cst.c0, rel=5e-3)

    @pytest.mark.parametrize(
        "x2, l1, l2",
        [
            ((2.0, 0.0, 0.0), 1.0, 1.0),
            ((1.5, 0.0, 0.0), 3.0, 0.2),
            ((0.3, 0.0, 0.0), 1.0, 10.0),
            ((5.0, 0.0, 0.0), 0.5, 0.5),
        ],
    )
    def test_conformal_reduction_against_direct_quadrature(self, x2, l1, l2):
        """Independent check of the two-center pairing: the axisymmetric
        double integral must equal the concentric pairing at the conformal
        scale ratio of the pair."""
        u = single(AMB31, scale=l1)
        direct = pair_against_bubble(u, BubbleParam(1.0, x2, l2))
        _, legs = _conformal_invariant(l1, l2, math.hypot(*x2))
        t = math.exp(2.0 * math.asinh(0.5 * math.hypot(*legs)))
        reduced = pair_against_bubble(
            single(AMB31, scale=t), BubbleParam(1.0, ORIGIN3, 1.0)
        )
        assert direct == pytest.approx(reduced, rel=1e-8)

    def test_d1_concentric_and_collinear(self):
        amb = Ambient(1, 0.25)
        u = single(amb, center=(0.0,))
        assert pair_against_bubble(u, BubbleParam(1.0, (0.0,), 1.0)) == (
            pytest.approx(1.0, rel=1e-10)
        )
        v = Superposition(
            amb, (BubbleParam(1.0, (0.0,), 1.0), BubbleParam(1.0, (3.0,), 2.0))
        )
        direct = pair_against_bubble(v, BubbleParam(1.0, (1.0,), 0.5))
        assert math.isfinite(direct) and direct > 0


class TestHsInner:
    def test_single_bubble_norm(self):
        cst = sharp_constants(AMB31)
        u = single(AMB31, coeff=2.5, scale=4.0)
        assert hs_norm_sq(u) == pytest.approx(2.5**2 * cst.S_d, rel=1e-10)

    def test_symmetry(self):
        u = Superposition(
            AMB31,
            (BubbleParam(1.0, ORIGIN3, 1.0), BubbleParam(0.5, (1.0, 0, 0), 2.0)),
        )
        v = Superposition(
            AMB31,
            (BubbleParam(-1.5, (2.0, 0, 0), 0.7),),
        )
        assert hs_inner(u, v) == pytest.approx(hs_inner(v, u), rel=1e-9)

    def test_cauchy_schwarz(self):
        u = Superposition(
            AMB31,
            (BubbleParam(1.0, ORIGIN3, 1.0), BubbleParam(1.0, ORIGIN3, 4.0)),
        )
        v = single(AMB31, coeff=2.0, scale=0.5)
        lhs = hs_inner(u, v) ** 2
        rhs = hs_norm_sq(u) * hs_norm_sq(v)
        assert lhs <= rhs * (1.0 + 1e-9)

    def test_coefficient_bilinearity_is_exact(self):
        base = Superposition(
            AMB31,
            (BubbleParam(1.0, ORIGIN3, 1.0), BubbleParam(2.0, ORIGIN3, 3.0)),
        )
        doubled = Superposition(
            AMB31,
            (BubbleParam(2.0, ORIGIN3, 1.0), BubbleParam(4.0, ORIGIN3, 3.0)),
        )
        assert hs_norm_sq(doubled) == pytest.approx(
            4.0 * hs_norm_sq(base), rel=1e-14
        )

    def test_mismatched_ambient_rejected(self):
        with pytest.raises(ParameterError):
            hs_inner(single(AMB31), single(Ambient(5, 1.0), center=(0.0,) * 5))

    def test_extreme_scale_diagonal(self):
        """The regression case behind the log-radius quadrature: diagonal
        pairings must stay exact for very small scales."""
        u = Superposition(
            AMB31,
            (BubbleParam(1.0, ORIGIN3, 1.0), BubbleParam(1.0, ORIGIN3, 1e-7)),
        )
        cst = sharp_constants(AMB31)
        cross = pair_against_bubble(u, BubbleParam(1.0, ORIGIN3, 1.0)) - 1.0
        expected = cst.S_d * (2.0 + 2.0 * cross)
        assert hs_norm_sq(u) == pytest.approx(expected, rel=1e-9)


class TestLpNorm:
    @pytest.mark.parametrize(
        "d, s", [(3, 1.0), (4, 1.0), (5, 1.0), (2, 0.5), (3, 0.75), (1, 0.25)]
    )
    def test_unit_normalization(self, d, s):
        amb = Ambient(d, s)
        assert lp_norm(single(amb)) == pytest.approx(1.0, abs=1e-9)

    def test_homogeneity(self):
        u = Superposition(
            AMB31,
            (BubbleParam(1.0, ORIGIN3, 1.0), BubbleParam(-0.5, ORIGIN3, 2.0)),
        )
        scaled = Superposition(
            AMB31,
            (BubbleParam(2.0, ORIGIN3, 1.0), BubbleParam(-1.0, ORIGIN3, 2.0)),
        )
        assert lp_norm(scaled) == pytest.approx(2.0 * lp_norm(u), rel=1e-12)

    def test_collinear_matches_concentric_limit(self):
        """Bringing two collinear centers together converges to the
        concentric value."""
        con = Superposition(
            AMB31,
            (BubbleParam(1.0, ORIGIN3, 1.0), BubbleParam(1.0, ORIGIN3, 2.0)),
        )
        near = Superposition(
            AMB31,
            (
                BubbleParam(1.0, ORIGIN3, 1.0),
                BubbleParam(1.0, (1e-7, 0.0, 0.0), 2.0),
            ),
        )
        assert lp_norm(near) == pytest.approx(lp_norm(con), rel=1e-6)

    def test_d1_collinear(self):
        amb = Ambient(1, 0.25)
        u = Superposition(
            amb, (BubbleParam(1.0, (0.0,), 1.0), BubbleParam(1.0, (4.0,), 1.0))
        )
        val = lp_norm(u)
        # between the single-bubble norm and the triangle-inequality bound;
        # at s = 1/4 the profile decays so slowly that separation 4 is still
        # strongly interacting, so the value sits near the upper end
        assert 1.0 < val < 2.0
        far = Superposition(
            amb, (BubbleParam(1.0, (0.0,), 1.0), BubbleParam(1.0, (400.0,), 1.0))
        )
        assert lp_norm(far) < val

    def test_far_separation_approaches_sum_of_masses(self):
        amb = AMB31
        u = Superposition(
            amb,
            (
                BubbleParam(1.0, ORIGIN3, 1.0),
                BubbleParam(1.0, (2000.0, 0.0, 0.0), 1.0),
            ),
        )
        assert lp_norm(u) == pytest.approx(2.0 ** (1.0 / amb.two_star), rel=1e-3)

    def test_collinear_pair_matches_conformal_concentric_pair(self):
        """The pair (1 at 0, lambda 1), (1 at 0.001, lambda 1e-5) at d = 5,
        s = 1 is conformally equivalent to the concentric pair of scale ratio
        t = 1e5 (the conformal ratio differs from 1e5 by 1e-16 relative),
        whose norm is a radial integral: mpmath at 30 digits gives
        1.2311446248513911."""
        d = 5
        mass = mp_radial_pair_mass(d, 1.0, 1.0, 1.0, 10**5)
        assert lp_norm(axis_pair(d, 1.0, 1.0, 0.001, 1e-5)) == pytest.approx(
            float(mass ** ((d - 2.0) / (2.0 * d))), rel=1e-10
        )

    @pytest.mark.parametrize(
        "d, s, c2, x2, l2",
        [
            (1, 0.25, 0.8, 1.0, 1.0),
            (1, 0.4, -0.6, 3.0, 0.5),
            (2, 0.5, -0.6, 1.5, 0.7),
            (2, 0.3, 0.9, 50.0, 2.0),
            (3, 0.75, -1.0, 0.41, 1.0),
            (3, 0.75, -0.7, 2.0, 0.5),
            (3, 0.5, -0.5, 1e6, 1.0),
            (3, 1.0, 1.0, 0.001, 1e-7),
            (5, 1.5, -0.9, 0.3, 1.5),
            (5, 0.5, 0.6, 0.01, 1e3),
            (7, 2.5, -0.8, 1.5, 0.9),
            (7, 1.0, 1.0, 0.001, 1e-5),
        ],
    )
    def test_pair_matches_mpmath_radial_oracle(self, d, s, c2, x2, l2):
        """A pair (1 at 0, lambda 1), (c2 at x2 e_1, lambda l2) against
        mpmath's radial integral at the pair's conformal ratio t, which spans
        1.5 to 1e12 here, taken from t + 1/t = l2 + 1/l2 + l2 x2^2 at 30
        digits.  Only inputs with int |u|^(2*) >= 1e-4 are used: below that
        the default abs_tol = 1e-14 stops the refinement while its error
        estimate is still a sizable share of the value, on any route."""
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            sum_t = l2 + 1 / mp.mpf(l2) + l2 * mp.mpf(x2) ** 2
            t = (sum_t + mp.sqrt(sum_t**2 - 4)) / 2
        assert 1.5 <= t <= 1.1e12
        mass = mp_radial_pair_mass(d, s, 1.0, c2, t)
        assert mass >= 1e-4
        expected = float(mass ** ((d - 2.0 * s) / (2.0 * d)))
        u = axis_pair(d, s, c2, x2, l2)
        assert lp_norm(u) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize(
        "d, first, second",
        [
            (
                3,
                (0.8460310862417797, -0.47657051501493, 0.1891255704086055),
                (-0.7134810066840558, -0.5703951752975143, 7.102246919893748),
            ),
            (
                3,
                (0.9780025755076877, -0.8517037518300699, 14.961735728464078),
                (-0.5828178145818983, -2.164357768811084, 0.08303044296923799),
            ),
            (
                5,
                (-0.768264381918755, -1.4969619518253567, 16.952695753884008),
                (0.9881790510667571, 1.8613034159795374, 16.08784418373737),
            ),
            (
                5,
                (0.5365732321815136, -2.5575453982276493, 11.256969224696022),
                (-0.629591948706712, 0.35888207408940165, 0.36422855306704444),
            ),
        ],
    )
    def test_signed_pairs_match_mpmath_to_1e_14(self, d, first, second):
        """Signed pairs (coeff, axial position, scale) at s = 1, drawn as the
        benchmark's collinear reports draw theirs, at the default tolerance.
        |u|^(2*) has a kink where u changes sign; lp_norm puts a knot there,
        without which the third pair is 5.1e-14 off."""
        mp = pytest.importorskip("mpmath")
        (c1, x1, l1), (c2, x2, l2) = first, second
        with mp.workdps(30):
            l1, l2 = mp.mpf(l1), mp.mpf(l2)
            sum_t = l1 / l2 + l2 / l1 + l1 * l2 * (mp.mpf(x1) - mp.mpf(x2)) ** 2
            t = (sum_t + mp.sqrt(sum_t**2 - 4)) / 2
        mass = mp_radial_pair_mass(d, 1.0, c1, c2, t)
        expected = float(mass ** ((d - 2.0) / (2.0 * d)))
        rest = (0.0,) * (d - 1)
        u = Superposition(
            Ambient(d, 1.0),
            (
                BubbleParam(c1, (x1,) + rest, float(l1)),
                BubbleParam(c2, (x2,) + rest, float(l2)),
            ),
        )
        assert lp_norm(u) == pytest.approx(expected, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("mu", [1e15, 1e100, 1e-15, 1e-100])
    def test_collinear_triple_is_dilation_invariant(self, mu):
        """||.||_{2*} is dilation-invariant, and lp_norm integrates three or
        more terms in the frame dilated by the power of two nearest the
        geometric mean of their scales, which is exact: dilating the input
        moves the result by rounding only."""
        u = Superposition(
            AMB31,
            (
                BubbleParam(1.0, ORIGIN3, 1.0),
                BubbleParam(-0.5, (2.0, 0.0, 0.0), 0.5),
                BubbleParam(0.3, (-1.0, 0.0, 0.0), 2.0),
            ),
        )
        assert lp_norm(dilate(u, mu)) == pytest.approx(lp_norm(u), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "s, terms",
        [
            (0.25, [(1.0, 0.0, 1.0), (-0.5, 2.0, 0.5), (0.3, -1.0, 2.0)]),
            (0.4, [(1.0, 0.0, 1.0), (0.8, 3.0, 2.0), (-0.6, -2.0, 0.7)]),
            (0.1, [(1.0, 0.0, 1.0), (0.5, 5.0, 0.3), (0.7, -4.0, 3.0)]),
            (0.25, [(1.0, 0.0, 1.0), (0.5, 1e-8, 1.0), (0.3, 1.0, 1.0)]),
        ],
    )
    def test_d1_three_terms_match_mpmath(self, s, terms):
        """Three terms at d = 1 integrate |u|^(2*) over the real line; mpmath
        at 30 digits, split at each center and one width 1/lambda to either
        side.  The signed cases have 2* = 4 and 10, so |u|^(2*) has no kink
        where u changes sign; the s = 0.1 case is of one sign.  In the last
        case two centers lie 1e-8 apart, so two half-cells are far shorter
        than the bubbles they hold."""
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            p = 2 / (1 - 2 * mp.mpf(s))
            b = (1 - 2 * mp.mpf(s)) / 2
            c_d = mp.pi ** (-1 / p)  # c_d^(2*) |S^0| B(1/2, 1/2) / 2 = 1

            def density(x):
                u = sum(
                    c * mp.mpf(lam) ** b * (1 + (lam * (x - x0)) ** 2) ** -b
                    for c, x0, lam in terms
                )
                return abs(c_d * u) ** p

            breaks = sorted(
                {x0 + k / mp.mpf(lam) for _, x0, lam in terms for k in (-1, 0, 1)}
            )
            mass = mp.quad(density, [-mp.inf] + breaks + [mp.inf])
        u = Superposition(
            Ambient(1, s),
            tuple(BubbleParam(c, (x0,), lam) for c, x0, lam in terms),
        )
        assert lp_norm(u) == pytest.approx(float(mass ** (1 / p)), rel=1e-10)

    @pytest.mark.parametrize("sep", [1e6, 1e20, 1e200])
    def test_far_pair_meets_decoupled_limit(self, sep):
        """Far apart, the pair's norm tends to (1 + 0.5^(2*))^(1/2*), with an
        interaction of size t^(-(d-2s)/2) = 1/sep at the conformal ratio
        t ~ sep^2.  At sep = 1e200, sep^2 overflows but log t does not."""
        u = axis_pair(3, 1.0, -0.5, sep, 1.0)
        far = (1.0 + 0.5**6) ** (1.0 / 6.0)
        assert lp_norm(u) == pytest.approx(far, rel=1e-12, abs=1.0 / sep)

    def test_far_triple_meets_decoupled_limit(self):
        """(1 at 0, -0.5 at sep e_1, 0.3 at -sep e_1), all of scale 1: far
        apart the norm tends to (1 + 0.5^6 + 0.3^6)^(1/6), with an
        interaction of size 1/sep.  Past sep = 1e14 the image of a
        separation as a panel break would round to the end of its tail; at
        1e200 the squared separation overflows."""
        far = (1.0 + 0.5**6 + 0.3**6) ** (1.0 / 6.0)
        for sep in (1e6, 1e15, 1e20, 1e200):
            u = on_line(
                [(1.0, 0.0, 1.0), (-0.5, sep, 1.0), (0.3, -sep, 1.0)],
                ORIGIN3,
                (1.0, 0.0, 0.0),
            )
            assert lp_norm(u) == pytest.approx(far, rel=1e-12, abs=1.0 / sep)

    @pytest.mark.parametrize("d, s", [(1, 0.25), (3, 1.0)])
    @pytest.mark.parametrize(
        "terms, merged",
        [
            (
                [(1.0, 0.0), (0.5, 1.0), (0.3, math.nextafter(1.0, 2.0))],
                [(1.0, 0.0), (0.8, 1.0)],
            ),
            ([(1.0, 0.0), (0.5, 5e-324), (0.3, 1.0)], [(1.5, 0.0), (0.3, 1.0)]),
        ],
        ids=["adjacent-floats", "subnormal-gap"],
    )
    def test_centers_one_float_apart(self, d, s, terms, merged):
        """Two centers one float apart leave a half-cell of length 0 between
        them; the triple must equal the pair that adds their coefficients."""

        def superpose(pairs):
            return Superposition(
                Ambient(d, s),
                tuple(BubbleParam(c, (x,) + (0.0,) * (d - 1), 1.0) for c, x in pairs),
            )

        assert lp_norm(superpose(terms)) == pytest.approx(
            lp_norm(superpose(merged)), rel=1e-12
        )

    @pytest.mark.parametrize("sep", [1e20, 1e200])
    @pytest.mark.parametrize("s", [0.25, 0.4])
    def test_far_d1_triple_meets_decoupled_limit(self, s, sep):
        """The same triple at d = 1, where a bubble decays only as
        |x|^(-(1-2s)): the interaction is of size sep^(-(1-2s)), 1e-4 at
        s = 0.4 and sep = 1e20."""
        p = 2.0 / (1.0 - 2.0 * s)
        far = (1.0 + 0.5**p + 0.3**p) ** (1.0 / p)
        terms = ((1.0, 0.0, 1.0), (-0.5, sep, 1.0), (0.3, -sep, 1.0))
        u = Superposition(
            Ambient(1, s), tuple(BubbleParam(c, (x,), lam) for c, x, lam in terms)
        )
        assert lp_norm(u) == pytest.approx(
            far, rel=1e-12, abs=sep ** -(1.0 - 2.0 * s)
        )

    def test_far_d1_triple_matches_mpmath(self):
        """At d = 1, s = 0.4 and sep = 1e6 the far fields of the outer
        bubbles still carry mass between 1e3 and 1e6 from each center, where
        no break of a width-sized panel reaches.  mpmath at 30 digits, split
        at each center and at offsets 4^k from it, gives
        0.985294218180269776."""
        mp = pytest.importorskip("mpmath")
        s, sep = 0.4, 1e6
        terms = ((1.0, 0.0, 1.0), (-0.5, sep, 1.0), (0.3, -sep, 1.0))
        with mp.workdps(30):
            p = 2 / (1 - 2 * mp.mpf(s))
            b = (1 - 2 * mp.mpf(s)) / 2
            c_d = mp.pi ** (-1 / p)

            def density(x):
                u = sum(c * (1 + (x - x0) ** 2) ** -b for c, x0, _ in terms)
                return abs(c_d * u) ** p

            breaks = sorted(
                {mp.mpf(x0) + sign * 4**k for _, x0, _ in terms for sign in (-1, 1)
                 for k in range(-1, 11)}
                | {mp.mpf(x0) for _, x0, _ in terms}
            )
            mass = mp.quad(density, [-mp.inf] + breaks + [mp.inf])
            expected = float(mass ** (1 / p))
        assert expected == pytest.approx(0.985294218180269776, abs=1e-15)
        u = Superposition(
            Ambient(1, s), tuple(BubbleParam(c, (x,), lam) for c, x, lam in terms)
        )
        assert lp_norm(u) == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize(
        "d, s, terms",
        [
            (2, 0.5, [(1.0, 0.0, 1.0), (-0.6, 1.5, 0.7)]),
            (3, 1.0, [(1.0, 0.0, 1.0), (-0.7, 2.0, 0.5)]),
            (3, 1.0, [(0.8, -1.0, 1.3), (-0.5, 0.5, 0.6), (0.9, 2.5, 1.8)]),
            (5, 1.0, [(1.0, -0.5, 0.8), (-0.9, 1.0, 1.5)]),
            (5, 1.0, [(-0.7, -2.0, 0.5), (1.0, 0.0, 1.0), (-0.4, 1.2, 2.0)]),
            (7, 1.0, [(1.0, 0.0, 1.2), (-0.8, 1.5, 0.9), (0.5, 3.0, 0.6)]),
        ],
    )
    def test_collinear_matches_dblquad(self, d, s, terms):
        """Signed collinear superpositions against scipy's QUADPACK dblquad,
        which shares no code with sobstab: |S^{d-2}| times the integral of
        |u(t, rho)|^{2*} rho^{d-2} over the axial range, split at the
        centers, and rho in (0, inf).  c_d comes from its defining Beta
        integral, c_d^{2*} |S^{d-1}| B(d/2, d/2) / 2 = 1."""
        dblquad = pytest.importorskip("scipy.integrate").dblquad
        beta = pytest.importorskip("scipy.special").beta

        p = 2.0 * d / (d - 2.0 * s)
        b = (d - 2.0 * s) / 2.0
        area_d = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
        area_d2 = 2.0 * math.pi ** ((d - 1) / 2.0) / math.gamma((d - 1) / 2.0)
        c_d = (area_d * beta(d / 2.0, d / 2.0) / 2.0) ** (-1.0 / p)

        def integrand(rho, t):
            u = sum(
                c * lam**b * (1.0 + lam * lam * ((t - x) ** 2 + rho * rho)) ** (-b)
                for c, x, lam in terms
            )
            return abs(c_d * u) ** p * rho ** (d - 2)

        cuts = [-np.inf] + sorted(x for _, x, _ in terms) + [np.inf]
        total = sum(
            dblquad(integrand, lo, hi, 0.0, np.inf, epsabs=0.0, epsrel=1e-12)[0]
            for lo, hi in zip(cuts[:-1], cuts[1:])
        )
        expected = (area_d2 * total) ** (1.0 / p)
        u = Superposition(
            Ambient(d, s),
            tuple(
                BubbleParam(c, (x,) + (0.0,) * (d - 1), lam) for c, x, lam in terms
            ),
        )
        assert lp_norm(u) == pytest.approx(expected, rel=1e-10)


def scaled_pair(lam, sep=0.0):
    """(1 at 0, lambda lam) and (0.5 at sep/lam e_1, lambda 0.3 lam): the
    dilation by lam of the pair at lam = 1, which every quantity ignores."""
    return Superposition(
        AMB31,
        (
            BubbleParam(1.0, ORIGIN3, lam),
            BubbleParam(0.5, (sep / lam, 0.0, 0.0), 0.3 * lam),
        ),
    )


class TestScaleRange:
    """Dilation invariance at scales where lambda^2, or the product of two
    scales, leaves the float range."""

    @pytest.mark.parametrize("lam", [1e200, 1e-200, 1e300, 1e-300])
    @pytest.mark.parametrize(
        "make",
        [lambda lam: single(AMB31, scale=lam), scaled_pair],
        ids=["single", "pair"],
    )
    def test_far_scales_match_unit_scale(self, make, lam):
        u, ref = make(lam), make(1.0)
        assert hs_norm_sq(u) == pytest.approx(hs_norm_sq(ref), rel=1e-13)
        assert m_value(u).value == pytest.approx(m_value(ref).value, rel=1e-13)
        assert lp_norm(u) == pytest.approx(lp_norm(ref), rel=1e-12)

    @pytest.mark.parametrize("lam", [1e15, 1e100, 1e-100])
    def test_narrow_separated_pair_stays_collinear(self, lam):
        """Centers 1.5 widths apart stay apart at every scale, also where
        the widths are far below the unit length (from lambda = 1.5e14 on,
        a unit-scale concentric test would merge them)."""
        u, ref = scaled_pair(lam, 1.5), scaled_pair(1.0, 1.5)
        assert u.geometry is Geometry.COLLINEAR
        assert m_value(u).value == pytest.approx(m_value(ref).value, rel=1e-13)
        assert lp_norm(u) == pytest.approx(lp_norm(ref), rel=1e-12)


class TestSchema:
    def test_roundtrip(self):
        u = Superposition(
            AMB31,
            (BubbleParam(1.0, ORIGIN3, 1.0), BubbleParam(-2.0, (1, 2, 3), 0.5)),
        )
        v = superposition_from_dict(superposition_to_dict(u))
        assert v == u

    @pytest.mark.parametrize(
        "doc, field",
        [
            ([], "document"),
            ({"s": 1.0, "terms": []}, "d:"),
            ({"d": 3, "terms": []}, "s:"),
            ({"d": 3, "s": 2.0, "terms": []}, "s:"),
            ({"d": 0, "s": 1.0, "terms": []}, "d:"),
            ({"d": 3, "s": 1.0}, "terms"),
            ({"d": 3, "s": 1.0, "terms": []}, "terms"),
            ({"d": 3, "s": 1.0, "terms": [{"center": [0, 0, 0], "lambda": 1}]},
             "terms[0].coeff"),
            ({"d": 3, "s": 1.0,
              "terms": [{"coeff": 1, "center": [0, 0], "lambda": 1}]},
             "terms[0].center"),
            ({"d": 3, "s": 1.0,
              "terms": [{"coeff": 1, "center": [0, 0, 0], "lambda": -1}]},
             "terms[0].lambda"),
            ({"d": 3, "s": 1.0,
              "terms": [{"coeff": 0, "center": [0, 0, 0], "lambda": 1}]},
             "terms[0].coeff"),
            # json.loads accepts NaN and Infinity
            ({"d": 3, "s": 1.0,
              "terms": [{"coeff": math.nan, "center": [0, 0, 0], "lambda": 1}]},
             "terms[0].coeff"),
            ({"d": 3, "s": 1.0,
              "terms": [{"coeff": 1, "center": [0, math.inf, 0], "lambda": 1}]},
             "terms[0].center"),
            ({"d": 3, "s": 1.0,
              "terms": [{"coeff": 1, "center": [0, 0, 0], "lambda": math.inf}]},
             "terms[0].lambda"),
            ({"d": 3, "s": 1.0,
              "terms": [{"coeff": 10**400, "center": [0, 0, 0], "lambda": 1}]},
             "terms[0].coeff"),
            ({"d": 3, "s": 10**400, "terms": []}, "s:"),
            ({"d": 10**400, "s": 1, "terms": []}, "d:"),
            ({"d": 3, "s": 1.0, "terms": [[1, [0, 0, 0], 1]]}, "terms[0]"),
        ],
    )
    def test_schema_errors_name_fields(self, doc, field):
        with pytest.raises(SchemaError) as exc:
            superposition_from_dict(doc)
        assert field in str(exc.value)

    def test_schema_error_is_parameter_error(self):
        with pytest.raises(ParameterError):
            superposition_from_dict({"d": 3})


class TestConfigValidation:
    """lp_norm is the one bubble quantity that takes a quadrature config."""

    @pytest.mark.parametrize("call", [lp_norm], ids=["lp_norm"])
    def test_bad_config_is_parameter_error(self, call):
        with pytest.raises(ParameterError):
            call(single(AMB31), "not a config")
