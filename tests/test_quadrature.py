"""Adaptive quadrature engine: exactness, error-estimate honesty, scale
robustness, and the axisymmetric reduction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sobstab.constants import Ambient, beta_half_line, sphere_area
from sobstab import quadrature
from sobstab.errors import ParameterError, QuadratureNonConvergence
from sobstab.quadrature import (
    _NODES,
    _WGAUSS,
    _WK,
    DEFAULT_CONFIG,
    QuadratureConfig,
    QuadratureResult,
    integrate_axisymmetric,
    integrate_half_line,
    integrate_real_line,
)

TIGHT = QuadratureConfig(rel_tol=1e-12, abs_tol=1e-15)
DEPTH = quadrature._MAX_SUBDIVISIONS


class TestConfig:
    def test_defaults(self):
        assert DEFAULT_CONFIG.rel_tol == 1e-10
        assert DEFAULT_CONFIG.abs_tol == 1e-14

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(rel_tol=0.0),
            dict(abs_tol=-1e-3),
            dict(rel_tol=math.inf),
            dict(abs_tol=math.nan),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ParameterError):
            QuadratureConfig(**kwargs)


class TestHalfLine:
    @pytest.mark.parametrize(
        "p, q",
        [(0.0, 1.0), (2.0, 3.0), (1.0, 1.5), (4.0, 4.0), (0.5, 2.25)],
    )
    def test_beta_integrands(self, p, q):
        res = integrate_half_line(lambda r: r**p * (1.0 + r * r) ** (-q), TIGHT)
        assert res.value == pytest.approx(beta_half_line(p, q), rel=1e-11)

    def test_exponential(self):
        res = integrate_half_line(lambda r: np.exp(-r), TIGHT)
        assert res.value == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize(
        "f", [lambda r: 1.0, lambda r: r.sum()], ids=["constant", "reduction"]
    )
    def test_wrong_shape_integrand_rejected(self, f):
        """The error names both shapes: two initial panels of 15 nodes."""
        with pytest.raises(ParameterError, match=r"shape \(\) for nodes .* \(30,\)"):
            integrate_half_line(f, TIGHT)

    @pytest.mark.parametrize("lam", [1e-6, 1e-3, 1.0, 1e3, 1e6])
    def test_scale_invariance_with_knots(self, lam):
        """integral of lam * g(lam r) dr is independent of lam when the
        turnover radius 1/lam is declared as a knot."""
        res = integrate_half_line(
            lambda r: lam * (1.0 + (lam * r) ** 2) ** (-1.5),
            TIGHT,
            knots=[1.0 / lam],
        )
        assert res.value == pytest.approx(beta_half_line(0.0, 1.5), rel=1e-10)

    def test_error_estimate_honesty(self):
        """On a hundred random Beta-type integrands the true error never
        exceeds ten times the reported estimate (plus a floating floor)."""
        rng = np.random.default_rng(421)
        worst = 0.0
        for _ in range(100):
            p = rng.uniform(0.0, 3.0)
            q = p / 2.0 + rng.uniform(1.0, 4.0)
            exact = beta_half_line(p, q)
            res = integrate_half_line(
                lambda r, p=p, q=q: r**p * (1.0 + r * r) ** (-q),
                DEFAULT_CONFIG,
            )
            true_err = abs(res.value - exact)
            budget = 10.0 * res.error_estimate + 1e-13 * abs(exact)
            worst = max(worst, true_err / budget)
        assert worst <= 1.0

    def test_nonconvergence_carries_best_estimate(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 2)
        cfg = QuadratureConfig(rel_tol=1e-14, abs_tol=1e-300)
        with pytest.raises(QuadratureNonConvergence) as exc:
            integrate_half_line(lambda r: (1.0 + r * r) ** (-1.2345), cfg)
        best = exc.value.best
        assert isinstance(best, QuadratureResult)
        assert best.value == pytest.approx(beta_half_line(0.0, 1.2345), rel=1e-3)

    def test_nonfinite_integrand_rejected(self):
        with pytest.raises(ParameterError, match="non-finite"):
            integrate_half_line(lambda r: np.where(r > 1.0, np.nan, np.exp(-r)), TIGHT)

    def test_depth_limit_stops_the_call(self):
        """(1 + r)^-1.5 is (1 - t)^-1/2 at t = 1, which no panel of depth
        30 resolves to 1e-10: the call raises as soon as a panel due for
        bisection sits at the limit, not after filling the panel budget."""
        with pytest.raises(QuadratureNonConvergence, match="depth limit") as exc:
            integrate_half_line(lambda r: (1.0 + r) ** -1.5)
        assert exc.value.best.evaluations < 1500

    def test_unreachable_tolerance_fails_fast(self):
        """rel_tol 1e-16 is below the roundoff of the sum: the call gives up,
        with a best estimate as good as the arithmetic allows, after a few
        bulk steps (one integrand call each) instead of filling its budget."""
        calls = 0

        def f(r):
            nonlocal calls
            calls += 1
            return (1.0 + r * r) ** -1.2345

        cfg = QuadratureConfig(rel_tol=1e-16, abs_tol=1e-300)
        with pytest.raises(QuadratureNonConvergence) as exc:
            integrate_half_line(f, cfg)
        assert calls <= 40
        exact = beta_half_line(0.0, 1.2345)
        assert exc.value.best.value == pytest.approx(exact, rel=1e-14)

    def test_unreachable_tolerance_fails_fast_in_a_batch(self):
        """The same for 15 integrals refined in lockstep, as the radial
        integrals at the nodes of an axial panel are: Lorentzian peaks of
        widths 0.01 to 0.04, which take a few steps to resolve."""
        calls = 0

        def g(rows, segs, xs):
            nonlocal calls
            calls += 1
            return 1.0 / (1e-4 * (rows[:, None] + 1.0) + (xs - 0.3) ** 2)

        cfg = QuadratureConfig(rel_tol=1e-16, abs_tol=1e-300)
        with pytest.raises(QuadratureNonConvergence):
            quadrature._integrate_segments(g, [(0.0, 0.5), (0.5, 1.0)], cfg, 15)
        assert calls <= 40

    def test_divergent_integrand_fails_honestly(self, monkeypatch):
        """1/r is finite at every interior node; the divergence must surface
        as non-convergence with a huge error estimate, never as a value."""
        monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 4)
        with pytest.raises(QuadratureNonConvergence) as exc:
            integrate_half_line(lambda r: 1.0 / r, DEFAULT_CONFIG)
        best = exc.value.best
        assert best is not None
        assert best.error_estimate > 1e-3 * abs(best.value)


class TestRealLine:
    def test_gaussian(self):
        res = integrate_real_line(lambda x: np.exp(-x * x), TIGHT, knots=[0.0])
        assert res.value == pytest.approx(math.sqrt(math.pi), rel=1e-12)

    def test_shifted_lorentzian_with_knot(self):
        res = integrate_real_line(
            lambda x: 1.0 / (1.0 + (x - 50.0) ** 2),
            TIGHT,
            knots=[0.0, 50.0],
        )
        assert res.value == pytest.approx(math.pi, rel=1e-11)

    def test_two_widely_separated_log_bumps(self):
        """The motivating case: two O(1) bumps 30 units apart must both be
        captured when their centers are knots."""

        def f(v):
            return np.exp(-((v + 15.0) ** 2)) + np.exp(-((v - 15.0) ** 2))

        res = integrate_real_line(f, TIGHT, knots=[-15.0, 15.0])
        assert res.value == pytest.approx(2.0 * math.sqrt(math.pi), rel=1e-11)

    def test_requires_knots(self):
        with pytest.raises(ParameterError):
            integrate_real_line(lambda x: np.exp(-x * x), TIGHT, knots=[])

    def test_knots_one_ulp_apart(self):
        """Twenty equal panels between knots one ulp apart round onto two
        breaks: one panel between them, and no empty one to reject."""
        knots = [1.0, math.nextafter(1.0, 2.0)]
        res = integrate_real_line(lambda x: np.exp(-x * x), TIGHT, knots=knots)
        assert res.value == pytest.approx(math.sqrt(math.pi), rel=1e-12)

    def test_bubble_pairs_converge_in_the_first_pass(self, monkeypatch):
        """The concentric pairs B + B_lambda of acceptance criterion 04, and
        the d = 7 default grid at rel_tol 1e-12, meet their tolerance on the
        first partition: 20 panels between the two knots and 8 on each tail,
        each evaluated once (15 nodes) and none bisected."""
        from sobstab import bubbles
        from sobstab.expansion import default_lambda_grid, two_bubble

        results = []

        def spy(*args, **kwargs):
            results.append(integrate_real_line(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(bubbles, "integrate_real_line", spy)
        amb3, amb5, amb7 = Ambient(3, 1.0), Ambient(5, 1.0), Ambient(7, 1.0)
        tight = QuadratureConfig(rel_tol=1e-12)
        cases = [(amb3, lam, DEFAULT_CONFIG) for lam in np.geomspace(1e-5, 1e-7, 11)]
        cases += [(amb5, lam, DEFAULT_CONFIG) for lam in np.geomspace(1e-3, 1e-5, 11)]
        cases += [(amb7, lam, tight) for lam in default_lambda_grid(amb7, tight)]
        for amb, lam, cfg in cases:
            bubbles.lp_norm(two_bubble(float(lam), amb), cfg)
        assert len(results) == len(cases) == 36
        assert [r.evaluations for r in results] == [15 * (20 + 2 * 8)] * 36

    @given(shift=st.floats(-20.0, 20.0), width=st.floats(0.1, 5.0))
    @settings(max_examples=25, deadline=None)
    def test_translation_dilation_invariance(self, shift, width):
        res = integrate_real_line(
            lambda x: np.exp(-(((x - shift) / width) ** 2)) / width,
            QuadratureConfig(rel_tol=1e-9, abs_tol=1e-12),
            knots=[shift],
        )
        assert res.value == pytest.approx(math.sqrt(math.pi), rel=1e-8)


class TestAxisymmetric:
    """integrate_axisymmetric(f, amb, cfg, centers=..., widths=...) integrates
    f(c, s, rho) at axial position c + s, c a center and s the offset."""

    @pytest.mark.parametrize(
        "centers, expected", [((0.0,), math.pi), ((0.0, 5.0), 2.0 * math.pi)]
    )
    def test_d1_is_the_axial_integral(self, centers, expected):
        """At d = 1 there is no radial integral: the integral of
        sum_j 1/(1 + (x - x_j)^2) over the line is pi per center."""

        def f(c, s, rhos):
            return sum((1.0 + (s + (c - x)) ** 2) ** -1.0 for x in centers) + rhos

        res = integrate_axisymmetric(f, Ambient(1, 0.25), TIGHT, centers=centers)
        assert res.value == pytest.approx(expected, rel=1e-11)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(centers=()),
            dict(centers=(0.0, math.inf)),
            dict(centers=(0.0, 1.0), widths=(1.0,)),
            dict(centers=(0.0,), widths=(-1.0,)),
            dict(centers=(0.0,), widths=(math.nan,)),
            dict(centers=(0.0,), widths=(0.0,)),
        ],
        ids=[
            "empty", "infinite", "short-widths", "negative-width", "nan-width",
            "zero-width",
        ],
    )
    def test_rejects_bad_centers_and_widths(self, kwargs):
        with pytest.raises(ParameterError):
            integrate_axisymmetric(
                lambda c, s, rho: rho, Ambient(3, 1.0), DEFAULT_CONFIG, **kwargs
            )

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_matches_radial_on_radial_integrands(self, d):
        """Axisymmetric reduction of g(|x|) equals the one-dimensional radial
        integral within 1e-8 relative."""
        amb = Ambient(d, 0.5)
        power = d + 1.0

        def f(c, s, rhos):
            return (1.0 + (c + s) ** 2 + rhos * rhos) ** (-power)

        res = integrate_axisymmetric(f, amb, DEFAULT_CONFIG)
        radial = integrate_half_line(
            lambda r: r ** (d - 1) * (1.0 + r * r) ** (-power), TIGHT
        )
        expected = sphere_area(d) * radial.value
        assert res.value == pytest.approx(expected, rel=1e-8)

    def test_gaussian_volume(self):
        amb = Ambient(3, 1.0)

        def f(c, s, rhos):
            return np.exp(-((c + s) ** 2 + rhos * rhos))

        res = integrate_axisymmetric(f, amb, DEFAULT_CONFIG)
        assert res.value == pytest.approx(math.pi**1.5, rel=1e-9)

    def test_off_center_feature_with_knots(self):
        """A bump on the axis away from the origin is captured when its
        center is declared."""
        amb = Ambient(3, 1.0)
        a = 7.0

        def f(c, s, rhos):
            return np.exp(-((s + (c - a)) ** 2 + rhos * rhos))

        res = integrate_axisymmetric(f, amb, DEFAULT_CONFIG, centers=[0.0, a])
        assert res.value == pytest.approx(math.pi**1.5, rel=1e-9)

    @pytest.mark.parametrize("a", [1e17, -1e100])
    def test_far_feature_at_its_own_center(self, a):
        """However far the bump, f forms its distance from it as
        s + (c - a), which is exact in the bump's own half-cells; as
        (c + s) - a it would have lost every digit of s at 1e17."""
        amb = Ambient(3, 1.0)

        def f(c, s, rhos):
            return np.exp(-((s + (c - a)) ** 2 + rhos * rhos))

        res = integrate_axisymmetric(f, amb, DEFAULT_CONFIG, centers=[0.0, a])
        assert res.value == pytest.approx(math.pi**1.5, rel=1e-9)

    def test_default_widths_on_nearly_coincident_centers(self):
        """Without widths every center has unit width, so two centers
        1e-300 apart add no ladder of breaks down to their distance."""
        amb = Ambient(3, 1.0)

        def f(c, s, rhos):
            return np.exp(-((c + s) ** 2 + rhos * rhos))

        pair = integrate_axisymmetric(f, amb, DEFAULT_CONFIG, centers=(0.0, 1.0))
        triple = integrate_axisymmetric(
            f, amb, DEFAULT_CONFIG, centers=(0.0, 1e-300, 1.0)
        )
        assert triple.value == pytest.approx(math.pi**1.5, rel=1e-9)
        assert triple.evaluations <= 2 * pair.evaluations

    def test_nonfinite_integrand_rejected_in_batch(self):
        """A non-finite value in a batch of radial integrals names the
        first panel that produced one: [0.5, 0.8], the images of one and of
        four default unit widths."""

        def f(c, s, rhos):
            return np.where(rhos > 2.0, np.nan, np.exp(-((c + s) ** 2 + rhos * rhos)))

        with pytest.raises(
            ParameterError, match=r"non-finite value on panel \[0\.5, 0\.8\]"
        ):
            integrate_axisymmetric(f, Ambient(3, 1.0), DEFAULT_CONFIG)


def _nested_reference(f, amb, cfg, centers=(0.0,), widths=None):
    """The axisymmetric integral with one integrate_half_line per axial node:
    the same half-cells as integrate_axisymmetric (quadrature._cells), whose
    integrand runs, at each node, one integrate_half_line of f times the
    node's Jacobian at 10x tighter tolerance, split at a quarter, one and four
    widths.  Returns the value and the total number of integrand
    evaluations."""
    inner_cfg = QuadratureConfig(rel_tol=cfg.rel_tol * 0.1, abs_tol=cfg.abs_tol * 0.1)
    w = amb.d - 2
    ws = [1.0] * len(centers) if widths is None else list(widths)
    knots = [k * r for r in ws for k in (0.25, 1.0, 4.0)]
    inner_evals = []

    def profile(rows, cs, ss, q):
        out = np.empty_like(ss)
        for idx in np.ndindex(ss.shape):
            c, s, q2 = cs[idx[0], 0], ss[idx], q[idx] * q[idx]
            res = integrate_half_line(
                lambda rhos: f(c, s, rhos) * rhos**w / q2, inner_cfg, knots=knots
            )
            inner_evals.append(res.evaluations)
            out[idx] = res.value
        return out

    cells = quadrature._tail_cells(quadrature._cells([float(x) for x in centers], ws))
    outer = quadrature._integrate_segments(
        *quadrature._mapped(profile, cells), cfg
    )[0]
    value = sphere_area(amb.d - 1) * outer.value
    return value, outer.evaluations + sum(inner_evals)


_SIGNED_TERMS = ((1.0, -1.5, 0.3), (-0.6, 0.4, 1.0), (0.35, 2.0, 4.0))
_SIGNED_CELLS = dict(
    centers=[x for _, x, _ in _SIGNED_TERMS],
    widths=[1.0 / lam for _, _, lam in _SIGNED_TERMS],
)


def _signed_bubbles(c, s, rhos):
    """|u|^{2*} of a signed three-term collinear superposition at d = 5,
    s = 1 (bubble profile (1 + |x|^2)^(-3/2), 2* = 10/3), scales 0.3 to 4."""
    u = 0.0
    for coeff, x, lam in _SIGNED_TERMS:
        z2 = lam * lam * ((s + (c - x)) ** 2 + rhos * rhos)
        u = u + coeff * lam**1.5 * (1.0 + z2) ** -1.5
    return np.abs(u) ** (10.0 / 3.0)


class TestLockstepBatch:
    """integrate_axisymmetric refines the radial integrals of all the axial
    panels of an outer step together; each must match the same integral
    refined alone."""

    @pytest.mark.parametrize(
        "f, amb, kwargs",
        [
            (lambda c, s, r: (1.0 + (c + s) ** 2 + r * r) ** -3.0, Ambient(2, 0.5), {}),
            (lambda c, s, r: (1.0 + (c + s) ** 2 + r * r) ** -4.0, Ambient(3, 0.5), {}),
            (lambda c, s, r: (1.0 + (c + s) ** 2 + r * r) ** -6.0, Ambient(5, 0.5), {}),
            (lambda c, s, r: np.exp(-((c + s) ** 2 + r * r)), Ambient(3, 1.0), {}),
            (
                lambda c, s, r: np.exp(-((s + (c - 7.0)) ** 2 + r * r)),
                Ambient(3, 1.0),
                dict(centers=[0.0, 7.0]),
            ),
            (_signed_bubbles, Ambient(5, 1.0), _SIGNED_CELLS),
        ],
        ids=["radial-d2", "radial-d3", "radial-d5", "gaussian", "off-center", "signed"],
    )
    def test_matches_per_node_nested_reference(self, f, amb, kwargs):
        res = integrate_axisymmetric(f, amb, DEFAULT_CONFIG, **kwargs)
        value, evaluations = _nested_reference(f, amb, DEFAULT_CONFIG, **kwargs)
        assert res.evaluations == evaluations
        assert res.value == pytest.approx(value, rel=1e-14)

    def test_panel_budget_is_shared_by_the_batch(self, monkeypatch):
        """At an unreachable tolerance a batch of 30 integrals (two axial
        panels' radial integrals) stops once it holds _MAX_PANELS panels per
        15 of them, in all: not _MAX_PANELS per call, nor per integral.  The
        batch doubles its panels each step, so by then it has evaluated at
        least its budget and less than four times it."""
        monkeypatch.setattr(quadrature, "_MAX_PANELS", 100)
        n, budget = 30, 200
        nodes = 0

        def g(rows, segs, xs):
            nonlocal nodes
            nodes += xs.size
            return np.exp(-(rows[:, None] + 1.0) * xs) * np.cos(30.0 * xs)

        cfg = QuadratureConfig(rel_tol=1e-300, abs_tol=1e-300)
        segments = [(0.0, 0.5), (0.5, 1.0)]
        with pytest.raises(QuadratureNonConvergence, match="panel limit") as exc:
            quadrature._integrate_segments(g, segments, cfg, n)
        assert isinstance(exc.value.best, QuadratureResult)
        assert 15 * budget <= nodes < 4 * 15 * budget


class TestDeterminism:
    def test_same_inputs_same_bits(self):
        def f(r):
            return r**2 * (1.0 + r * r) ** (-3.0)

        r1 = integrate_half_line(f, DEFAULT_CONFIG, knots=[1.0])
        r2 = integrate_half_line(f, DEFAULT_CONFIG, knots=[1.0])
        assert r1.value == r2.value
        assert r1.error_estimate == r2.error_estimate
        assert r1.evaluations == r2.evaluations


def _exact_rule_reference(f, cfg, knots=()):
    """integrate_half_line restated as the plain bulk rule: each step takes
    the fsum of every live panel and, unless it meets the tolerance, ranks
    the panels by estimate, largest first (ties in creation order), and
    bisects them from the top until those left hold at most half the
    tolerance.  A step ends the loop instead if a panel due for bisection is
    at the subdivision limit, the panel budget is full, or every panel due is
    within 50 ulp of its own value (roundoff).  Returns its QuadratureResult,
    or the best estimate it raised QuadratureNonConvergence with."""

    def g(ts):
        return f(ts / (1.0 - ts)) / (1.0 - ts) ** 2

    live, evals = [], 0  # (err, seq, a, b, depth, value)

    def evaluate(a, b, depth):
        nonlocal evals
        c, h = 0.5 * (a + b), 0.5 * (b - a)
        ys = g(c + h * _NODES)
        k15, g7 = h * float(_WK @ ys), h * float(_WGAUSS @ ys)
        live.append((abs(k15 - g7), evals, a, b, depth, k15))
        evals += 15

    breaks = sorted({0.0, 0.5, 1.0} | {r / (1.0 + r) for r in knots})
    for a, b in zip(breaks[:-1], breaks[1:]):
        evaluate(a, b, 0)
    while True:
        val = math.fsum(p[5] for p in live)
        err = math.fsum(p[0] for p in live)
        result = QuadratureResult(val, err, evals)
        tol = max(cfg.rel_tol * abs(val), cfg.abs_tol)
        if err <= tol:
            return result
        live.sort(key=lambda p: (-p[0], p[1]))
        cut, rest = 0, err
        while rest > 0.5 * tol and cut < len(live):
            rest -= live[cut][0]
            cut += 1
        due = live[:cut]
        if (
            any(p[4] >= quadrature._MAX_SUBDIVISIONS for p in due)
            or len(live) >= quadrature._MAX_PANELS
            or all(p[0] <= 50 * 2.0**-52 * abs(p[5]) for p in due)
        ):
            return result
        del live[:cut]
        for _, _, a, b, depth, _ in due:
            mid = 0.5 * (a + b)
            evaluate(a, mid, depth + 1)
            evaluate(mid, b, depth + 1)


class TestExactRule:
    """integrate_half_line refines by the bulk rule: the panels it refines
    and the bits it returns are those of the plain loop above."""

    @pytest.mark.parametrize(
        "f, cfg, knots, depth",
        [
            (lambda r: r**2.0 * (1.0 + r * r) ** -3.0, TIGHT, (), DEPTH),
            (lambda r: r**0.5 * (1.0 + r * r) ** -2.25, DEFAULT_CONFIG, (), DEPTH),
            (lambda r: np.sin(3.0 * r) * np.exp(-r), TIGHT, (), DEPTH),
            (lambda r: np.cos(2.0 * r) / (1.0 + r * r) ** 2, TIGHT, (1.0,), DEPTH),
            (lambda r: 1e-9 * (1.0 + (1e3 * r) ** 2) ** -1.5, TIGHT, (1e-3,), DEPTH),
            (lambda r: np.sqrt(r) * np.exp(-r), TIGHT, (), DEPTH),
            (
                lambda r: (1.0 + r * r) ** -1.2345,
                QuadratureConfig(rel_tol=1e-14, abs_tol=1e-300),
                (),
                6,
            ),
        ],
        ids=["beta", "beta-default", "signed", "cos", "narrow", "sqrt", "frozen"],
    )
    def test_half_line_matches_exact_rule(self, f, cfg, knots, depth, monkeypatch):
        monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", depth)
        expected = _exact_rule_reference(f, cfg, knots)
        try:
            res = integrate_half_line(f, cfg, knots=knots)
        except QuadratureNonConvergence as exc:
            res = exc.best
        assert res == expected
