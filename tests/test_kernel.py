"""The closed-form pairing kernel against an independent mpmath oracle.

The reference evaluates the defining form F(t) = t^a 2F1(a, d/2; d; 1 - t^2),
a = (d-2s)/2, at 40 digits, and the conformal ratio and Lieb's sharp constant
from their own formulas, so nothing here shares code with sobstab.
"""

import math

import numpy as np
import pytest

from sobstab.bubbles import (
    BubbleParam,
    Superposition,
    _pair_kernel,
    hs_norm_sq,
    pair_against_bubble,
)
from sobstab.constants import Ambient, sharp_constants

from kernel_oracle import kernel_mp

mp = pytest.importorskip("mpmath")

DPS = 40


def _s_values(d):
    """s in {0.05, 0.25, 0.5, 1, 1.3, integers below d/2, d/2 - 0.1}."""
    cand = {0.05, 0.25, 0.5, 1.0, 1.3, d / 2 - 0.1}
    cand |= {float(k) for k in range(1, (d + 1) // 2)}
    return sorted(s for s in cand if 0.0 < s < d / 2)


AMBIENTS = [(d, s) for d in range(1, 13) for s in _s_values(d)]


def excess(ts):
    """The kernel's argument e = t + 1/t - 2 = (t - 1)^2/t at ratios ts,
    with e = inf at t = inf."""
    ts = np.asarray(ts, dtype=float)
    e = np.full(ts.shape, np.inf)
    fin = np.isfinite(ts)
    e[fin] = (ts[fin] - 1.0) * ((ts[fin] - 1.0) / ts[fin])
    return e


def f_ref(t, d, s):
    with mp.workdps(DPS):
        t = mp.mpf(t)
        a = (mp.mpf(d) - 2 * mp.mpf(s)) / 2
        return t**a * mp.hyp2f1(a, mp.mpf(d) / 2, d, 1 - t * t)


def t_ref(l1, l2, x1, x2):
    """t >= 1 with t + 1/t = l1/l2 + l2/l1 + l1 l2 |x1 - x2|^2."""
    with mp.workdps(DPS):
        l1, l2 = mp.mpf(l1), mp.mpf(l2)
        r2 = mp.fsum((mp.mpf(p) - mp.mpf(q)) ** 2 for p, q in zip(x1, x2))
        e = (l1 - l2) ** 2 / (l1 * l2) + l1 * l2 * r2
        return 1 + (e + mp.sqrt(e * (e + 4))) / 2


def sharp_ref(d, s):
    """Lieb's S_d = 2^(2s) pi^s G((d+2s)/2)/G((d-2s)/2) (G(d/2)/G(d))^(2s/d)."""
    with mp.workdps(DPS):
        d, s = mp.mpf(d), mp.mpf(s)
        return (
            mp.power(2, 2 * s)
            * mp.power(mp.pi, s)
            * mp.gamma((d + 2 * s) / 2)
            / mp.gamma((d - 2 * s) / 2)
            * mp.power(mp.gamma(d / 2) / mp.gamma(d), 2 * s / d)
        )


# Every fifth decade up to 1e150, ratios just above 1, and a dense sweep of
# [1.5, 9], across the switch between the kernel's near and far series
# (t = 1 + sqrt 2), where its error is largest at small s and large d.
T_GRID = np.unique(
    np.concatenate(
        [
            np.geomspace(1.0, 1e150, 31),
            1.0 + np.geomspace(1e-8, 0.25, 6),
            np.linspace(1.5, 9.0, 16),
        ]
    )
)


@pytest.mark.parametrize("d, s", AMBIENTS)
def test_kernel_matches_mpmath(d, s):
    got = _pair_kernel(Ambient(d, s), excess(T_GRID))
    for t, f in zip(T_GRID, got):
        ref = f_ref(t, d, s)
        assert abs(f - ref) <= 1e-10 * ref + 1e-15, (t, f, float(ref))


# s within 1e-12 .. 1e-3 of an integer, where the two series of the
# connection formula cancel, and s near 0.
NEAR_INTEGER = [
    (d, m + sign * gap)
    for d, m in ((3, 1), (5, 1), (5, 2))
    for gap in (1e-12, 1e-9, 1e-6, 1e-3)
    for sign in (-1, 1)
] + [(d, s) for d in (3, 5) for s in (1e-9, 1e-6)]


@pytest.mark.parametrize("d, s", NEAR_INTEGER)
def test_kernel_near_integer_s_matches_mpmath(d, s):
    ts = np.concatenate([T_GRID, np.geomspace(9.0, 1e4, 25)])
    got = _pair_kernel(Ambient(d, s), excess(ts))
    for t, f in zip(ts, got):
        ref = f_ref(t, d, s)
        assert abs(f - ref) <= 1e-10 * ref + 1e-15, (t, f, float(ref))


@pytest.mark.parametrize("d, s", AMBIENTS)
def test_kernel_bounded_up_to_huge_ratios(d, s):
    ts = np.concatenate([np.geomspace(1.0, 1e300, 301), [math.inf]])
    f = _pair_kernel(Ambient(d, s), excess(ts))
    assert np.all(np.isfinite(f))
    assert np.all((f >= 0.0) & (f <= 1.0))
    assert abs(f[0] - 1.0) <= 1e-15


def _hs_ref(amb, terms):
    with mp.workdps(DPS):
        parts = [
            mp.mpf(ci) * mp.mpf(cj) * f_ref(t_ref(li, lj, xi, xj), amb.d, amb.s)
            for ci, xi, li in terms
            for cj, xj, lj in terms
        ]
        return sharp_ref(amb.d, amb.s) * mp.fsum(parts)


CONFIGS = [
    # two-term collinear on a coordinate axis
    (3, 1.0, [(1.0, (0.0, 0.0, 0.0), 0.5), (0.8, (2.0, 0.0, 0.0), 1.7)]),
    # three-term collinear, signed
    (5, 1.0, [
        (1.0, (0.0,) * 5, 1.0),
        (-0.6, (1.5, 0.0, 0.0, 0.0, 0.0), 0.3),
        (0.9, (-2.0, 0.0, 0.0, 0.0, 0.0), 4.0),
    ]),
    # off-axis line through (1, 2, -1) along (1, 1, 1)/sqrt(3), small scale
    (3, 1.0, [
        (1.0, (1.0, 2.0, -1.0), 1.0),
        (1.0, (2.0, 3.0, 0.0), 1e-3),
        (0.5, (-0.5, 0.5, -2.5), 2.0),
    ]),
    (5, 1.0, [
        (1.0, (0.0, 0.0, 0.0, 0.0, 0.0), 1e-3),
        (1.0, (1.7 / math.sqrt(2.0), 1.7 / math.sqrt(2.0), 0.0, 0.0, 0.0), 1.0),
    ]),
    # d = 1, fractional s
    (1, 0.25, [(1.0, (0.0,), 1.0), (1.0, (3.0,), 2.0), (-0.4, (-1.0,), 0.2)]),
    (4, 1.3, [(2.0, (0.0, 0.0, 0.0, 0.0), 1.0), (1.0, (0.0, 0.0, 0.0, 5.0), 0.1)]),
    # GENERAL: three centers spanning a plane, mixed signs and scales
    (3, 1.0, [
        (1.0, (0.0, 0.0, 0.0), 1.0),
        (-0.7, (1.0, 0.0, 0.0), 0.3),
        (0.5, (0.0, 1.0, 0.0), 2.5),
    ]),
]


@pytest.mark.parametrize("d, s, terms", CONFIGS)
def test_hs_norm_sq_matches_oracle(d, s, terms):
    amb = Ambient(d, s)
    u = Superposition(amb, tuple(BubbleParam(c, x, lam) for c, x, lam in terms))
    ref = _hs_ref(amb, terms)
    assert float(abs(hs_norm_sq(u) - ref) / abs(ref)) <= 1e-12


@pytest.mark.parametrize("d, s, terms", CONFIGS)
def test_pair_against_bubble_matches_oracle(d, s, terms):
    """Probe between the first two centers."""
    amb = Ambient(d, s)
    u = Superposition(amb, tuple(BubbleParam(c, x, lam) for c, x, lam in terms))
    center = tuple(0.3 * p + 0.7 * q for p, q in zip(terms[0][1], terms[1][1]))
    scale = 0.8
    got = pair_against_bubble(u, BubbleParam(1.0, center, scale))
    with mp.workdps(DPS):
        ref = mp.fsum(
            mp.mpf(c) * f_ref(t_ref(lam, scale, x, center), d, s)
            for c, x, lam in terms
        )
    assert float(abs(got - ref) / abs(ref)) <= 1e-12


def _derivs_ref(e, d, s):
    """dF/de and d^2F/de^2 at e at 40 digits (kernel_oracle.kernel_mp).  It
    is ten times faster than mpmath.diff, which it matches
    (test_derivative_reference_is_mpmath_diff)."""
    with mp.workdps(DPS):
        return kernel_mp(mp, mp.mpf(e), d, s)[1:]


# Every second decade of e, the switch between the near and far series of
# the values (w = sech^2 = 1/2, e = 2 sqrt 2 - 2) and that of the derivative
# rows (w = 0.4), where their errors are largest.
E_DERIVS = np.concatenate(
    [np.geomspace(1e-12, 1e12, 13), [2 * math.sqrt(2) - 2, 2 / math.sqrt(0.4) - 2]]
)


@pytest.mark.parametrize("d, s", AMBIENTS)
def test_derivative_rows_match_mpmath(d, s):
    _, d1, d2 = _pair_kernel(Ambient(d, s), E_DERIVS, derivs=True)
    for e, g1, g2 in zip(E_DERIVS, d1, d2):
        r1, r2 = _derivs_ref(e, d, s)
        assert abs(g1 - r1) <= 1e-10 * abs(r1) + 1e-15, (e, g1, float(r1))
        assert abs(g2 - r2) <= 1e-10 * abs(r2) + 1e-15, (e, g2, float(r2))


def test_derivative_reference_is_mpmath_diff():
    with mp.workdps(DPS):
        a = mp.mpf(5.5) / 2

        def f_of_e(x):
            t = 1 + (x + mp.sqrt(x * (x + 4))) / 2
            return t**a * mp.hyp2f1(a, 3, 6, 1 - t * t)

        for e in (1e-6, 0.5, 3.0, 1e4):
            for n, ref in zip((1, 2), _derivs_ref(e, 6, 0.25)):
                assert abs(mp.diff(f_of_e, mp.mpf(e), n) / ref - 1) < 1e-20


@pytest.mark.parametrize("d, s", AMBIENTS)
def test_slope_at_coincidence_is_closed_form(d, s):
    """dF/de at e = 0 is F''(t = 1)/2 = radial_slice_factor * a_d / 2."""
    cst = sharp_constants(Ambient(d, s))
    slope = _pair_kernel(Ambient(d, s), 0.0, derivs=True)[1]
    assert slope == pytest.approx(cst.radial_slice_factor * cst.a_d / 2, abs=1e-14)


@pytest.mark.parametrize("d, s", AMBIENTS)
def test_value_row_of_derivative_call_is_the_plain_value(d, s):
    es = np.concatenate(
        [[0.0, math.inf], np.geomspace(1e-300, 1e300, 121), np.linspace(0.8, 1.2, 41)]
    ).reshape(2, -1)
    amb = Ambient(d, s)
    rows = _pair_kernel(amb, es, derivs=True)
    assert rows.shape == (3,) + es.shape
    assert np.array_equal(rows[0], _pair_kernel(amb, es))
    assert np.all(rows[1:, 0, 1] == 0.0)  # e = inf


@pytest.mark.parametrize("d, s", AMBIENTS)
def test_kernel_decreasing_and_log_concave_in_distance(d, s):
    """In the hyperbolic distance rho, e = 2 cosh(rho) - 2, F is strictly
    decreasing and log-concave: F' = 2 sinh(rho) F_e < 0, and
    F^2 (log F)'' = e (e + 4) (F F_ee - F_e^2) + (e + 2) F F_e <= 0 up to
    the roundoff of its three terms.  These two facts put every maximum of
    a two-term m-search on the geodesic through the terms' points."""
    e = np.geomspace(1e-12, 1e12, 97)
    f, f1, f2 = _pair_kernel(Ambient(d, s), e, derivs=True)
    assert np.all(f1 < 0.0)
    terms = (e * (e + 4.0) * f * f2, -e * (e + 4.0) * f1 * f1, (e + 2.0) * f * f1)
    roundoff = 4.0 * np.finfo(float).eps * sum(map(np.abs, terms))
    assert np.all(sum(terms) <= roundoff)
