"""Acceptance gate: the quantitative claims the toolkit certifies, one test
per criterion, each printing a single pass/fail line with its runtime.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete; every criterion also enforces its own wall-clock budget.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from sobstab.bubbles import (
    BubbleParam,
    Superposition,
    dilate,
    hs_norm_sq,
    invert,
    lp_norm,
    pair_against_bubble,
)
from sobstab.constants import Ambient, sharp_constants
from sobstab.expansion import H_of, derivative_check, sweep, two_bubble
from sobstab.functional import functional_report, m_value
from sobstab.inequalities import QuotientSextuple, monotone_quotient, quotient_compare
from sobstab.thresholds import Binding, compare, crossover_scan, spectral_threshold

AMB31 = Ambient(3, 1.0)
AMB51 = Ambient(5, 1.0)


def finish(n, label, t0, budget, errors):
    elapsed = time.monotonic() - t0
    if elapsed > budget:
        errors.append(f"runtime {elapsed:.2f}s exceeds budget {budget}s")
    status = "FAIL" if errors else "PASS"
    print(f"criterion {n:02d}: {status} ({elapsed:7.2f}s) {label}")
    assert not errors, f"criterion {n}: " + "; ".join(errors)


def test_criterion_01_normalization():
    t0 = time.monotonic()
    errors = []
    for d, s in [(3, 1.0), (4, 1.0), (5, 1.0), (2, 0.5), (3, 0.75)]:
        amb = Ambient(d, s)
        u = Superposition(amb, (BubbleParam(1.0, (0.0,) * d, 1.0),))
        mass = lp_norm(u) ** amb.two_star
        if abs(mass - 1.0) > 1e-9:
            errors.append(f"({d},{s}): |B|_2*^2* = {mass!r} off by {mass - 1.0:.2e}")
    finish(1, "unit L^2* mass of the normalized bubble profile", t0, 1.0, errors)


def test_criterion_02_interaction_derivatives():
    t0 = time.monotonic()
    errors = []
    dc = derivative_check(AMB31, lam=1e-6)
    cst = sharp_constants(AMB31)
    a_ref = -1.0 / (32.0 * math.pi)
    b_ref = -4.0 / (15.0 * math.pi**2)
    c0_ref = 16.0 / (3.0 * math.pi)
    if abs(dc.f_prime) >= 1e-7:
        errors.append(f"|F'(1)| = {abs(dc.f_prime):.3e} >= 1e-7")
    if abs(dc.f_prime * cst.radial_slice_factor) >= 1e-7:
        errors.append("unnormalized |F'(1)| >= 1e-7")
    if abs(dc.f_second - a_ref) / abs(a_ref) >= 1e-4:
        errors.append(f"F''(1) vs -1/(32 pi): rel {dc.f_second_rel_err:.3e}")
    if abs(dc.g_value_scaled - c0_ref) / c0_ref >= 5e-3:
        errors.append(f"G(1)/sqrt(lam) vs 16/(3 pi): rel {dc.g_value_rel_err:.3e}")
    if abs(dc.g_prime_scaled - b_ref) / abs(b_ref) >= 1e-3:
        errors.append(f"G'(1)/sqrt(lam) vs -4/(15 pi^2): rel {dc.g_prime_rel_err:.3e}")
    if dc.a_closed != pytest.approx(a_ref, rel=1e-12, abs=0.0):
        errors.append("closed form a_d mismatch")
    if dc.b_closed != pytest.approx(b_ref, rel=1e-12, abs=0.0):
        errors.append("closed form b_d mismatch")
    if dc.c0_closed != pytest.approx(c0_ref, rel=1e-12, abs=0.0):
        errors.append("closed form c0 mismatch")
    finish(
        2, "finite-difference F, G derivatives vs closed forms", t0, 5.0, errors
    )


def test_criterion_03_norm_expansions():
    t0 = time.monotonic()
    errors = []
    cst = sharp_constants(AMB31)
    lams = np.geomspace(1e-2, 1e-4, 5)
    two_star = AMB31.two_star
    r1, r2, r3 = [], [], []
    for lam in lams:
        rep = functional_report(two_bubble(float(lam), AMB31))
        root = math.sqrt(lam)
        r1.append((rep.hs_norm_sq - 2.0 * cst.S_d) / (2.0 * cst.S_d * cst.c0 * root))
        lead = 2.0 ** (2.0 / two_star)
        r2.append((rep.lp_norm**2 - lead) / (2.0 * lead * cst.c0 * root))
        r3.append(abs(rep.dist_sq - cst.S_d) / (cst.S_d * root))
    for k in (-2, -1):
        if not 0.95 <= r1[k] <= 1.05:
            errors.append(f"hs ratio at lam={lams[k]:.1e}: {r1[k]:.4f}")
        if not 0.95 <= r2[k] <= 1.05:
            errors.append(f"lp^2 ratio at lam={lams[k]:.1e}: {r2[k]:.4f}")
    if not (r3[-3] > r3[-2] > r3[-1]):
        errors.append(f"normalized dist deviation not decreasing: {r3[-3:]}")
    finish(
        3,
        "two-bubble norm expansions track c0 sqrt(lam) (5-point sweep)",
        t0,
        60.0,
        errors,
    )


def test_criterion_04_strict_inequality_and_fit():
    t0 = time.monotonic()
    errors = []
    grids = {
        AMB31: tuple(np.geomspace(1e-5, 1e-7, 11)),
        AMB51: tuple(np.geomspace(1e-3, 1e-5, 11)),
    }
    for amb, grid in grids.items():
        rep = sweep(amb, lam_grid=grid)
        for pt in rep.points:
            if pt.be_value is None or not pt.be_value < rep.threshold:
                errors.append(f"(d={amb.d}) E(u_{pt.lam:g}) not below threshold")
        exp_dev = abs(rep.fitted_exponent - rep.predicted_exponent) / (
            rep.predicted_exponent
        )
        coef_dev = abs(rep.fitted_coefficient - rep.predicted_coefficient) / (
            rep.predicted_coefficient
        )
        if exp_dev >= 0.05:
            errors.append(
                f"(d={amb.d}) exponent {rep.fitted_exponent:.4f} off by "
                f"{100 * exp_dev:.2f}%"
            )
        if coef_dev >= 0.10:
            errors.append(
                f"(d={amb.d}) coefficient {rep.fitted_coefficient:.4f} off by "
                f"{100 * coef_dev:.2f}%"
            )
    finish(
        4,
        "deficit below two-peak threshold with the predicted rate/constant",
        t0,
        120.0,
        errors,
    )


def test_criterion_05_threshold_crossover():
    t0 = time.monotonic()
    errors = []
    scan = crossover_scan(1.0, 3, 12)
    for rep in scan.reports:
        want = Binding.SPECTRAL if rep.ambient.d <= 6 else Binding.TWO_PEAK
        if rep.binding is not want:
            errors.append(f"d={rep.ambient.d}: {rep.binding} != {want}")
    if scan.crossover_d != 6:
        errors.append(f"crossover_d = {scan.crossover_d}")
    exact = Fraction(4 * 1, 3 + 2 * 1 + 2)
    if exact != Fraction(4, 7):
        errors.append("rational spectral value is not 4/7")
    if spectral_threshold(AMB31) != float(exact):
        errors.append("float spectral value differs from Fraction(4,7)")
    finish(5, "spectral/two-peak crossover between d = 6 and 7", t0, 0.1, errors)


def _oracle_dist_sq(u, hs):
    """Independent distance oracle: optimal coefficient eliminated in closed
    form, then a dense log-scale grid plus golden refinement over mu."""
    cst = sharp_constants(u.ambient)
    center = u.terms[0].center

    def p(logmu):
        b = BubbleParam(1.0, center, math.exp(logmu))
        return pair_against_bubble(u, b)

    logs = [math.log(t.scale) for t in u.terms]
    grid = np.linspace(min(logs) - 8.0, max(logs) + 8.0, 150)
    vals = [p(x) ** 2 for x in grid]
    k = int(np.argmax(vals))
    a, b = grid[max(0, k - 1)], grid[min(len(grid) - 1, k + 1)]
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    fa_cache = {}

    def q(x):
        if x not in fa_cache:
            fa_cache[x] = p(x) ** 2
        return fa_cache[x]

    for _ in range(60):
        m1 = b - gr * (b - a)
        m2 = a + gr * (b - a)
        if q(m1) < q(m2):
            a = m1
        else:
            b = m2
    best = q(0.5 * (a + b))
    return hs - cst.S_d * best


def test_criterion_06_distance_oracle_equivalence():
    t0 = time.monotonic()
    errors = []
    rng = np.random.default_rng(6)
    for case in range(20):
        n = int(rng.integers(2, 4))
        center = tuple(rng.uniform(-5.0, 5.0, size=3))
        base = rng.uniform(-2.0, 2.0)
        logs = base + np.cumsum(rng.uniform(0.8, 2.5, size=n))
        coeffs = rng.uniform(0.3, 3.0, size=n)
        u = Superposition(
            AMB31,
            tuple(
                BubbleParam(float(c), center, float(math.exp(lg)))
                for c, lg in zip(coeffs, logs)
            ),
        )
        hs = hs_norm_sq(u)
        mopt = m_value(u)
        d2 = hs - sharp_constants(AMB31).S_d * mopt.value
        d2_oracle = _oracle_dist_sq(u, hs)
        rel = abs(d2 - d2_oracle) / abs(d2_oracle)
        if rel >= 1e-6:
            errors.append(f"case {case}: dist_sq rel dev {rel:.2e}")
    finish(
        6,
        "m-reformulation matches grid+refine distance oracle (20 cases)",
        t0,
        60.0,
        errors,
    )


def test_criterion_07_symmetry_suite():
    t0 = time.monotonic()
    errors = []
    rng = np.random.default_rng(7)
    for _ in range(100):
        lam = float(10.0 ** rng.uniform(-4.0, 0.0))
        mu = float(10.0 ** rng.uniform(-3.0, 3.0))
        h1 = H_of(lam, mu, AMB31)
        h2 = H_of(lam, lam / mu, AMB31)
        if abs(h1 - h2) > 1e-9 * max(1.0, abs(h1)):
            errors.append(f"H symmetry: lam={lam:.3e} mu={mu:.3e} diff={h1 - h2:.2e}")
    for case in range(50):
        lam_ratio = float(10.0 ** rng.uniform(0.7, 3.0))
        c2 = float(rng.uniform(0.5, 2.0))
        u = Superposition(
            AMB31,
            (
                BubbleParam(1.0, (0.0, 0.0, 0.0), 1.0),
                BubbleParam(c2, (0.0, 0.0, 0.0), lam_ratio),
            ),
        )
        base = functional_report(u)
        moved = dilate(u, float(10.0 ** rng.uniform(-1.0, 1.0)))
        if rng.uniform() < 0.5:
            moved = invert(moved, float(rng.uniform(0.5, 2.0)))
        got = functional_report(moved)
        checks = [
            ("m", base.m.value, got.m.value),
            ("dist_sq", base.dist_sq, got.dist_sq),
            ("be", base.be_quotient, got.be_quotient),
        ]
        for name, x, y in checks:
            if abs(x - y) > 1e-7 * max(abs(x), abs(y)):
                errors.append(f"case {case}: {name} drifts {x!r} -> {y!r}")
    finish(
        7,
        "H symmetry (100 draws) + conformal invariance of E, dist^2, m (50)",
        t0,
        60.0,
        errors,
    )


def test_criterion_08_on_manifold_degeneracy():
    t0 = time.monotonic()
    errors = []
    rng = np.random.default_rng(8)
    for case in range(20):
        coeff = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 3.0))
        center = tuple(rng.uniform(-10.0, 10.0, size=3))
        lam = float(10.0 ** rng.uniform(-3.0, 3.0))
        u = Superposition(AMB31, (BubbleParam(coeff, center, lam),))
        rep = functional_report(u)
        if not rep.dist_sq < 1e-8 * rep.hs_norm_sq:
            errors.append(f"case {case}: dist_sq/hs = {rep.dist_sq / rep.hs_norm_sq:.2e}")
        if rep.be_quotient is not None:
            errors.append(f"case {case}: be_quotient = {rep.be_quotient!r}")
    finish(8, "single bubbles sit on the manifold (20 draws)", t0, 5.0, errors)


def test_criterion_09_branch_decoupling():
    t0 = time.monotonic()
    errors = []
    gaps = []
    for lam in (1e-2, 1e-3, 1e-4):
        mopt = m_value(two_bubble(lam, AMB31))
        if len(mopt.all_local_maxima) != 2:
            errors.append(f"lam={lam:g}: {len(mopt.all_local_maxima)} branches")
            continue
        for _, v in mopt.all_local_maxima:
            if not v > 1.0 - 1e-10:
                errors.append(f"lam={lam:g}: branch value {v!r} below 1")
        gaps.append(mopt.value - 1.0)
    if len(gaps) == 3:
        if not (gaps[0] > gaps[1] > gaps[2] > 0.0):
            errors.append(f"branch excess not decreasing to 0: {gaps}")
    finish(
        9,
        "m-search branches approach the per-bubble value monotonically",
        t0,
        30.0,
        errors,
    )


def test_criterion_10_inequality_kernels():
    t0 = time.monotonic()
    errors = []
    rng = np.random.default_rng(10)
    violations = 0
    for _ in range(10_000):
        ab = float(rng.uniform(0.5, 10.0))
        cd = ab * (1.0 - float(rng.uniform(1e-6, 0.5)))
        ef = cd * (1.0 - float(rng.uniform(1e-6, 0.5)))
        B = float(10.0 ** rng.uniform(-2.0, 2.0))
        D = float(10.0 ** rng.uniform(-2.0, 2.0))
        F = D * float(rng.uniform(1.0, 10.0))
        q = QuotientSextuple(A=ab * B, B=B, C=cd * D, D=D, E=ef * F, F=F)
        if not (q.hyp_first and q.hyp_second and q.hyp_third):
            violations += 1  # construction guarantees margins far above ulp
            continue
        v = quotient_compare(q)
        if not (v.first >= v.second >= v.third):
            violations += 1
    for _ in range(1_000):
        p = float(rng.uniform(2.1, 12.0))
        e1 = float(10.0 ** rng.uniform(-6.0, 2.0))
        e2 = e1 * float(10.0 ** rng.uniform(0.05, 2.0))
        if not monotone_quotient(p, e1) < monotone_quotient(p, e2):
            violations += 1
    if violations:
        errors.append(f"{violations} violations")
    finish(
        10,
        "mediant chain (1e4 draws) and quotient monotonicity (1e3 pairs)",
        t0,
        5.0,
        errors,
    )
