"""Distance-to-manifold machinery: the m(f) maximizer search, dist_sq,
and the stability quotient."""

import dataclasses
import math
import pickle
import warnings

import numpy as np
import pytest

from sobstab.bubbles import (
    BubbleParam,
    Superposition,
    _pair_radial,
    lp_norm,
    pair_against_bubble,
)
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

from kernel_oracle import kernel_mp

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

    @pytest.mark.parametrize("lam", [1e305, 1e-305])
    def test_pair_past_exp_range_matches_unit_pair(self, lam):
        """m, E and the maximizer are dilation invariant.  The pair
        (1@0 lambda, 0.5@0 0.3 lambda) at log scales past 709, where
        exp(log lambda + 12) is no float, reports what the unit pair
        reports, with the maximizer scale times lambda, and warns of
        nothing."""

        def pair(scale):
            return concentric(AMB31, (1.0, scale), (0.5, 0.3 * scale))

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep, unit = functional_report(pair(lam)), functional_report(pair(1.0))
        assert rep.m.value == pytest.approx(unit.m.value, rel=1e-12)
        assert rep.be_quotient == pytest.approx(unit.be_quotient, abs=1e-13)
        assert len(rep.m.all_local_maxima) == len(unit.m.all_local_maxima)
        best = rep.m.maximizer
        assert best.center == ORIGIN3
        assert best.scale == pytest.approx(lam * unit.m.maximizer.scale, rel=1e-15)

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


def _assert_local_maximum(u, b, v):
    """No neighbour 1e-4 away in axial position (in widths of the probe) or
    in log scale beats the reported value v."""
    x, z = b.center[0], math.log(b.scale)
    for i in (-1, 0, 1):
        for j in (-1, 0, 1):
            q = _squared_pairing(u, x + i * 1e-4 / b.scale, z + j * 1e-4)
            assert q <= v * (1.0 + 1e-12), (u, b, i, j)


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
                _assert_local_maximum(u, b, v)


# (d, s, terms as (coeff, axial position, scale)).  The last is a d = 1 pair
# whose final Newton steps gain less than the roundoff of P^2.
_ARGMAX_CONFIGS = [
    pytest.param(3, 1.0, [(1.0, 0.0, 1.0), (1.0, 0.0, 1e-3)], id="concentric"),
    pytest.param(
        3, 1.0, [(1.0, 0.0, 1.0), (-0.7, 0.0, 0.1)], id="signed-concentric"
    ),
    pytest.param(3, 1.0, [(1.0, 0.0, 1.0), (0.7, 2.0, 0.5)], id="collinear"),
    pytest.param(
        5, 1.0, [(1.0, 0.0, 1.0), (-0.6, 1.5, 0.4), (0.8, -2.0, 3.0)],
        id="signed-triple",
    ),
    pytest.param(
        1, 0.154,
        [
            (1.0, 2.95988781625858, 0.21063141028219334),
            (-1.2474371030843816, 0.10244292770255026, 0.05795710349979648),
        ],
        id="flat-d1-pair",
    ),
]


def _objective_mp(mp, terms, d, s, x, z):
    """P = sum c_i F(e_i) of unit probes at axial position x and log scale
    z, with its gradient and Hessian in (x, z), at mpmath's precision."""
    mu = mp.exp(z)
    p, g, h = 0, mp.matrix(2, 1), mp.matrix(2, 2)
    for c, xc, lam in terms:
        lm, r, dx = lam * mu, lam / mu, xc - x
        f0, f1, f2 = kernel_mp(mp, r + 1 / r - 2 + lm * dx**2, d, s)
        de = mp.matrix([-2 * lm * dx, lm * dx**2 - r + 1 / r])
        dde = mp.matrix(
            [[2 * lm, -2 * lm * dx], [-2 * lm * dx, lm * dx**2 + r + 1 / r]]
        )
        p, g, h = p + c * f0, g + c * f1 * de, h + c * (f2 * de * de.T + f1 * dde)
    return p, g, h


class TestMaximizerOracle:
    @pytest.mark.parametrize("d, s, terms", _ARGMAX_CONFIGS[2:])
    def test_objective_derivatives_match_mpmath(self, d, s, terms):
        """The derivative rows of the m-search objective against the 30-digit
        chain rule in (x, z): P_b = P_x e^-z, P_bb = P_xx e^-2z and
        P_bz = P_xz e^-z, the probe width frozen in b."""
        mp = pytest.importorskip("mpmath")
        axial = tuple(np.array(col) for col in zip(*terms))
        probes = [
            (x + dx, math.log(lam) + dz)
            for _, x, lam in terms
            for dx, dz in ((0.3, -0.2), (-1.1, 0.7))
        ]
        rows = _pair_radial(Ambient(d, s), axial, *np.array(probes).T, True)
        with mp.workdps(30):
            for k, (x, z) in enumerate(probes):
                p, g, h = _objective_mp(mp, terms, d, s, mp.mpf(x), mp.mpf(z))
                w = mp.exp(-z)
                ref = (p, g[0] * w, g[1], h[0, 0] * w * w, h[0, 1] * w, h[1, 1])
                for got, want in zip(rows[:, k], ref):
                    assert abs(got - want) <= 1e-10 * max(1, abs(want)), (k, got)

    @pytest.mark.parametrize("d, s, terms", _ARGMAX_CONFIGS)
    def test_maximizer_matches_mpmath_argmax(self, d, s, terms):
        """The maximizer is within 1e-12 of Newton's method on the 30-digit
        objective P(x, z) = sum c_i F(e_i), started from it: its center in
        probe widths and its scale relative."""
        mp = pytest.importorskip("mpmath")
        u = Superposition(
            Ambient(d, s),
            tuple(BubbleParam(c, (x,) + (0.0,) * (d - 1), lam) for c, x, lam in terms),
        )
        best = m_value(u).maximizer
        with mp.workdps(30):
            x, z = mp.mpf(best.center[0]), mp.log(best.scale)
            for _ in range(4):
                _, g, h = _objective_mp(mp, terms, d, s, x, z)
                dx, dz = -(h**-1) * g
                x, z = x + dx, z + dz
            assert abs(dx) * mp.exp(z) + abs(dz) < 1e-25
            assert abs(best.center[0] - x) * mp.exp(z) <= 1e-12
            assert abs(best.scale / mp.exp(z) - 1) <= 1e-12


def _pair(d, s, *terms):
    """The superposition of terms (coeff, position on the first axis, scale)."""
    return Superposition(
        Ambient(d, s),
        tuple(BubbleParam(c, (x,) + (0.0,) * (d - 1), lam) for c, x, lam in terms),
    )


def _sinh_off_geodesic(u, b):
    """sinh of the hyperbolic distance from the probe b's point (x, 1/mu) to
    the geodesic through the points (x_i, 1/lambda_i) of the pair u, all on
    the first axis, in the first term's units: the term at (0, 1), the other
    at (X, Y) and the probe at (x, y).  The geodesic is the line x = 0 when
    X = 0, else the circle of center c = (X^2 + Y^2 - 1)/(2X) and radius
    R = hypot(c, 1), at sinh distance |x^2 + y^2 - 1 - 2 c x| / (2 y R)."""
    t1, t2 = u.terms
    x, y = t1.scale * (b.center[0] - t1.center[0]), t1.scale / b.scale
    big_x, big_y = t1.scale * (t2.center[0] - t1.center[0]), t1.scale / t2.scale
    if big_x == 0.0:
        return abs(x) / y
    c = (big_x * big_x + big_y * big_y - 1.0) / (2.0 * big_x)
    return abs(x * x + y * y - 1.0 - 2.0 * c * x) / (2.0 * y * math.hypot(c, 1.0))


def _pair_draws(count, seed):
    """Seeded pairs on the first axis, d = 1..7 in turn and s = U(0.05,
    d/2 - 0.05): coefficients 1 and +-U(0.2, 1.5), scales e^U(-3, 3),
    positions U(-3, 3), every third pair concentric."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        d = 1 + k % 7
        s = float(rng.uniform(0.05, d / 2 - 0.05))
        c2 = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 1.5))
        x1, x2 = (0.0, 0.0) if k % 3 == 0 else rng.uniform(-3.0, 3.0, 2)
        lam1, lam2 = np.exp(rng.uniform(-3.0, 3.0, 2))
        out.append(_pair(d, s, (1.0, x1, lam1), (c2, x2, lam2)))
    return out


def _distance_draws(count, seed):
    """Seeded (d, s, c2, rho): d = 1..7 in turn, s = U(0.05, d/2 - 0.05),
    c2 = +-U(0.2, 1.5) and rho = U(0.5, 6)."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        d = 1 + k % 7
        s = float(rng.uniform(0.05, d / 2 - 0.05))
        c2 = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 1.5))
        out.append((d, s, c2, float(rng.uniform(0.5, 6.0))))
    return out


class TestPairGeodesic:
    """For a pair, the critical points of P = c1 F(rho_1) + c2 F(rho_2) lie
    on the geodesic through the terms' points, and there each is a maximum
    of P^2 across it, so the search scans that geodesic alone."""

    def test_every_maximum_is_local_and_on_the_geodesic(self):
        draws = _pair_draws(210, seed=24)
        assert {(u.terms[1].coeff > 0) for u in draws} == {True, False}
        for u in draws:
            for b, v in m_value(u).all_local_maxima:
                assert _sinh_off_geodesic(u, b) <= 1e-11, (u, b)
                _assert_local_maximum(u, b, v)

    @pytest.mark.parametrize(
        "d, s, c2, rho",
        _distance_draws(28, seed=25)
        + [(3, 1.0, 1.0, 3.1), (5, 1.0, 1.0, 2.06), (3, 0.5, 1.0, 2.6799999999999997)],
    )
    def test_concentric_and_collinear_pairs_at_one_distance_agree(self, d, s, c2, rho):
        """A pair is conformally every other pair with its coefficients and
        the distance rho of its terms' points: the pair of scales 1 and
        e^-rho on one center and the pair of unit scales 2 sinh(rho/2) apart
        give the same m, number of maxima and lp_norm.  The last three are
        symmetric pairs whose mirror maxima lie closer than 0.7."""
        conc = _pair(d, s, (1.0, 0.0, 1.0), (c2, 0.0, math.exp(-rho)))
        col = _pair(d, s, (1.0, 0.0, 1.0), (c2, 2.0 * math.sinh(0.5 * rho), 1.0))
        m_conc, m_col = m_value(conc), m_value(col)
        assert m_col.value == pytest.approx(m_conc.value, rel=1e-14, abs=0.0)
        assert len(m_col.all_local_maxima) == len(m_conc.all_local_maxima)
        assert lp_norm(col) == pytest.approx(lp_norm(conc), rel=1e-14, abs=0.0)

    def test_non_stationary_point_is_no_maximum(self):
        """A search over a 2-D grid listed a second maximum at axial -0.5528,
        mu 0.5492, where the gradient of P is about (-2.0e-3, 3.5e-3)."""
        u = _pair(
            5, 0.967, (1.0, 0.0, 6.279826879095044),
            (0.34834291632086845, -1.554956028604366, 0.3662801508657951),
        )
        maxima = m_value(u).all_local_maxima
        assert len(maxima) == 1
        for b, v in maxima:
            _assert_local_maximum(u, b, v)

    def test_no_maximum_off_the_geodesic(self):
        """A search over a 2-D grid listed a maximum at axial 7766.4, mu
        2.27e-4, 8.9e3 off the geodesic in hyperbolic distance."""
        u = _pair(
            1, 0.131, (1.0, 0.0, 0.24174060139994266),
            (-1.4343327815453444, -0.7214792173706823, 0.7089532860690916),
        )
        maxima = m_value(u).all_local_maxima
        assert len(maxima) == 2
        for b, v in maxima:
            assert _sinh_off_geodesic(u, b) <= 1e-11, b
            _assert_local_maximum(u, b, v)

    def test_narrow_maximum_is_found(self):
        """A search over a 2-D grid missed the maximum at axial -3.2226, mu
        2.4158, P^2 3.87e-5, where sign(P) times the Hessian of P has
        eigenvalues -1.0e-2 and -1.9e-3."""
        u = _pair(
            6, 2.348, (1.0, 0.0, 0.07142190446320733),
            (-0.4664251321336748, -2.9437727892744903, 0.2361077657142615),
        )
        found = [
            (b, v) for b, v in m_value(u).all_local_maxima
            if abs(b.center[0] + 3.2226) < 1e-4 and abs(b.scale - 2.4158) < 1e-4
        ]
        assert len(found) == 1
        assert found[0][1] == pytest.approx(3.87e-5, rel=2e-3)
        _assert_local_maximum(u, *found[0])


class TestSaddles:
    def test_symmetric_saddle_is_no_local_maximum(self):
        """A signed concentric triple whose objective has a saddle on the
        axis, where the axial slope vanishes by symmetry: a grid point on
        the axis must not be reported as a local maximum there."""
        u = concentric(
            Ambient(3, 0.727),
            (1.0, 0.25507571572368337),
            (0.9536071540432498, 7.686536630148398),
            (-1.46346285376939, 1.1126549572064293),
        )
        maxima = m_value(u).all_local_maxima
        assert len(maxima) == 4
        for b, v in maxima:
            x, z = b.center[0], math.log(b.scale)
            for dx in (-1e-3, 1e-3):
                assert _squared_pairing(u, x + dx / b.scale, z) <= v * (1 + 1e-12)

    def test_column_start_on_the_symmetric_minimum_moves_off_it(self):
        """B_1 + B_lam at log lam = -3.1 (to the last bit given) has two
        mirror maxima about z = log(lam)/2, and the search's log-scale column
        has a point exactly there, where the slope in z is 0 and P^2 has a
        minimum along the column.  The polish must leave it for a maximum,
        with no invalid-value warning on the way."""
        u = concentric(AMB31, (1.0, 1.0), (1.0, 0.04504920239355784))
        maxima = m_value(u).all_local_maxima
        nearby = concentric(AMB31, (1.0, 1.0), (1.0, 0.0450492023935578))
        assert maxima[0][1] == pytest.approx(m_value(nearby).value, rel=1e-14)
        log_scales = sorted(math.log(b.scale) for b, _ in maxima)
        assert log_scales == pytest.approx([-1.7338, -1.3662], abs=1e-3)

    @pytest.mark.parametrize(
        "d, s, lam, log_scales",
        [
            (5, 1.0, math.exp(-2.06), [-1.2935, -0.7665]),
            (3, 0.5, 0.06856315415427794, [-1.6855, -0.9945]),
        ],
    )
    def test_close_mirror_maxima_are_both_listed(self, d, s, lam, log_scales):
        """B_1 + B_lam has two mirror maxima about z = log(lam)/2.  The scan
        has a probe at that midpoint and mirrors its probes about it, so each
        maximum has a scan peak of its own, however close the two lie."""
        u = concentric(Ambient(d, s), (1.0, 1.0), (1.0, lam))
        maxima = m_value(u).all_local_maxima
        assert sorted(math.log(b.scale) for b, _ in maxima) == pytest.approx(
            log_scales, abs=1e-4
        )
        assert maxima[0][1] == pytest.approx(maxima[1][1], rel=1e-14)


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


class TestResultRecords:
    """The result records are frozen dataclasses with slots: no instance
    __dict__, and equality, hashing, repr, dataclasses.replace and pickling
    behave as for the plain frozen dataclasses they were."""

    def test_slotted_records_behave_as_before(self):
        from sobstab.expansion import sweep_point

        rep = functional_report(concentric(AMB31, (1.0, 1.0), (-0.7, 0.1)))
        records = [rep, rep.m, rep.m.maximizer, sweep_point(1e-3, AMB31)]
        for rec in records:
            assert not hasattr(rec, "__dict__")
            fields = dataclasses.fields(rec)
            args = ", ".join(f"{f.name}={getattr(rec, f.name)!r}" for f in fields)
            assert repr(rec) == f"{type(rec).__name__}({args})"
            copy = pickle.loads(pickle.dumps(rec))
            assert copy == rec and hash(copy) == hash(rec)
            assert dataclasses.replace(rec) == rec
            first = fields[0].name
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(rec, first, getattr(rec, first))
        bubble = BubbleParam(2.0, ORIGIN3, 3.0)
        expected = "BubbleParam(coeff=2.0, center=(0.0, 0.0, 0.0), scale=3.0)"
        assert repr(bubble) == expected
        assert dataclasses.replace(bubble, scale=4.0) == BubbleParam(2.0, ORIGIN3, 4.0)
        assert {bubble, BubbleParam(2, [0, 0, 0], 3)} == {bubble}


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
