"""Two-bubble asymptotics: the concentric pairing functions F, G, H, their
derivatives at scale 1, the family u_lambda = B + B_lambda, and the
lambda-sweep that certifies the expansion

    E(u_lambda) = 2 - 2^(2/2*) - (2^(2/2*+1) - 2) c0 lambda^((d-2s)/2) + o(...)

numerically, including the strict upper bound E(u_lambda) < 2 - 2^(2/2*).

Normalization note.  F(mu) = (B, B_mu^(2*-1)) is fully normalized (F(1) = 1).
The closed-form derivative constants a_d and b_d are stated per unit of the
angular factor |S^{d-1}| (d+2s)/2 (SharpConstants.radial_slice_factor): the
full pairing satisfies F''(1) = factor * a_d and
G_lambda'(1) = factor * b_d * lambda^((d-2s)/2) + o(...), with the exact
cross-check factor * b_d = -c0 (d-2s)/2.  derivative_check therefore divides
its finite differences by the factor before comparing against a_d and b_d;
the value-level limit G_lambda(1) -> c0 lambda^((d-2s)/2) needs no factor.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bubbles import BubbleParam, Superposition, pair_against_bubble
from .constants import Ambient, sharp_constants
from .errors import ParameterError
from .functional import functional_report
from .quadrature import DEFAULT_CONFIG, QuadratureConfig
from .thresholds import two_peak_threshold

__all__ = [
    "ExpansionPoint",
    "ExpansionReport",
    "DerivativeCheck",
    "F_of",
    "G_of",
    "H_of",
    "derivative_check",
    "two_bubble",
    "default_lambda_grid",
    "sweep_point",
    "assemble_report",
    "sweep",
    "NOISE_FLOOR_FACTOR",
]

# The deficit 2 - 2^(2/2*) - E is excluded from fits below this multiple of
# the quadrature relative tolerance: past that, the subtraction is noise.
NOISE_FLOOR_FACTOR = 1e3


def _unit_bubble(amb: Ambient, scale: float) -> BubbleParam:
    return BubbleParam(1.0, (0.0,) * amb.d, scale)


def _origin_superposition(amb: Ambient, scale: float) -> Superposition:
    return Superposition(amb, (_unit_bubble(amb, scale),))


def F_of(mu: float, amb: Ambient) -> float:
    """F(mu) = (B, B_mu^(2*-1)), the concentric pairing at scale ratio mu."""
    if not mu > 0.0:
        raise ParameterError(f"mu must be > 0, got {mu}")
    return pair_against_bubble(_origin_superposition(amb, 1.0), _unit_bubble(amb, mu))


def G_of(lam: float, mu: float, amb: Ambient) -> float:
    """G_lambda(mu) = (B_lambda, B_mu^(2*-1))."""
    if not (lam > 0.0 and mu > 0.0):
        raise ParameterError("lambda and mu must be > 0")
    return pair_against_bubble(_origin_superposition(amb, lam), _unit_bubble(amb, mu))


def H_of(lam: float, mu: float, amb: Ambient) -> float:
    """H_lambda(mu) = (u_lambda, B_mu^(2*-1)) = F(mu) + G_lambda(mu),
    assembled by linearity of the pairing."""
    return F_of(mu, amb) + G_of(lam, mu, amb)


@dataclass(frozen=True)
class DerivativeCheck:
    """Finite-difference probes of F and G at mu = 1 against closed forms.

    Derivative entries are normalized to the a_d/b_d convention (finite
    differences of the full pairing divided by radial_slice_factor); the
    G-value entry is the plain ratio G_lambda(1)/lambda^((d-2s)/2).  Each
    *_half entry repeats the stencil at step h_fd/2 for Richardson-style
    consistency checks.
    """

    ambient: Ambient
    lam: float
    h_fd: float
    f_prime: float
    f_second: float
    f_second_half: float
    a_closed: float
    g_prime_scaled: float
    g_prime_scaled_half: float
    b_closed: float
    g_value_scaled: float
    c0_closed: float

    @property
    def f_second_rel_err(self) -> float:
        return abs(self.f_second - self.a_closed) / abs(self.a_closed)

    @property
    def g_prime_rel_err(self) -> float:
        return abs(self.g_prime_scaled - self.b_closed) / abs(self.b_closed)

    @property
    def g_value_rel_err(self) -> float:
        return abs(self.g_value_scaled - self.c0_closed) / self.c0_closed


def derivative_check(
    amb: Ambient, lam: float = 1e-6, h_fd: float = 1e-4
) -> DerivativeCheck:
    """Central finite differences of the closed-form F and G at mu = 1,
    compared to the closed forms a_d, b_d, c0.

    The default step 1e-4 balances second-order truncation against the
    rounding error of F, which second differences divide by h_fd^2.
    """
    if not 0.0 < lam <= 1e-2:
        raise ParameterError(f"lambda must lie in (0, 1e-2], got {lam}")
    if not 1e-5 <= h_fd <= 1e-3:
        raise ParameterError(f"h_fd must lie in [1e-5, 1e-3], got {h_fd}")
    cst = sharp_constants(amb)
    factor = cst.radial_slice_factor
    lam_pow = lam**amb.beta_exp

    def stencil(h: float) -> tuple[float, float]:
        fp = F_of(1.0 + h, amb)
        fm = F_of(1.0 - h, amb)
        f1 = F_of(1.0, amb)
        first = (fp - fm) / (2.0 * h) / factor
        second = (fp - 2.0 * f1 + fm) / (h * h) / factor
        return first, second

    def g_stencil(h: float) -> float:
        gp = G_of(lam, 1.0 + h, amb)
        gm = G_of(lam, 1.0 - h, amb)
        return (gp - gm) / (2.0 * h) / factor / lam_pow

    f_prime, f_second = stencil(h_fd)
    _, f_second_half = stencil(0.5 * h_fd)
    g_prime_scaled = g_stencil(h_fd)
    g_prime_scaled_half = g_stencil(0.5 * h_fd)
    g_value_scaled = G_of(lam, 1.0, amb) / lam_pow

    return DerivativeCheck(
        ambient=amb,
        lam=lam,
        h_fd=h_fd,
        f_prime=f_prime,
        f_second=f_second,
        f_second_half=f_second_half,
        a_closed=cst.a_d,
        g_prime_scaled=g_prime_scaled,
        g_prime_scaled_half=g_prime_scaled_half,
        b_closed=cst.b_d,
        g_value_scaled=g_value_scaled,
        c0_closed=cst.c0,
    )


def two_bubble(lam: float, amb: Ambient) -> Superposition:
    """The concentric family u_lambda = B + B_lambda (terms (1,0,1),(1,0,lam))."""
    if not 0.0 < lam <= 1.0:
        raise ParameterError(f"lambda must lie in (0, 1], got {lam}")
    origin = (0.0,) * amb.d
    return Superposition(
        amb, (BubbleParam(1.0, origin, 1.0), BubbleParam(1.0, origin, float(lam)))
    )


@dataclass(frozen=True)
class ExpansionPoint:
    lam: float
    hs_norm_sq: float
    lp_norm_sq_2star: float
    m_value: float
    mu_of_lambda: float
    dist_sq: float
    be_value: float | None


@dataclass(frozen=True)
class ExpansionReport:
    points: tuple[ExpansionPoint, ...]
    fitted_exponent: float
    fitted_coefficient: float
    predicted_exponent: float
    predicted_coefficient: float
    residual_max: float
    threshold: float
    excluded: tuple[tuple[float, str], ...]
    mu_bound_constant: float


def predicted_coefficient(amb: Ambient) -> float:
    """Leading deficit coefficient (2^(2/2*+1) - 2) * c0."""
    return (2.0 ** (2.0 / amb.two_star + 1.0) - 2.0) * sharp_constants(amb).c0


def default_lambda_grid(
    amb: Ambient, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> tuple[float, ...]:
    """Geometric grid, 5 points per decade, descending.

    Spans [1e-5, 1e-2] when (d-2s)/2 <= 1; for faster-decaying interactions
    the ceiling moves to 1e-1 and the floor is auto-raised so that
    lambda^((d-2s)/2) stays above the noise floor of the deficit subtraction.
    Raises ParameterError when fewer than two decades survive (tighten
    rel_tol in that case).
    """
    beta = amb.beta_exp
    hi = 1e-2 if beta <= 1.0 else 1e-1
    floor = (NOISE_FLOOR_FACTOR * cfg.rel_tol) ** (1.0 / beta)
    lo = max(hi * 1e-3, floor)
    decades = math.log10(hi / lo)
    if decades < 2.0 - 1e-12:
        raise ParameterError(
            f"cannot span two decades above the noise floor {floor:.3e} for "
            f"(d,s)=({amb.d},{amb.s}); tighten rel_tol"
        )
    n = int(round(5 * decades)) + 1
    exps = np.linspace(math.log10(hi), math.log10(lo), n)
    return tuple(10.0**e for e in exps)


def sweep_point(
    lam: float, amb: Ambient, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> ExpansionPoint:
    """Full functional evaluation of u_lambda at one grid value."""
    rep = functional_report(two_bubble(lam, amb), cfg)
    best = rep.m.value
    # mu(lambda) in the proof sense: of the (inversion-degenerate) pair of
    # branch maxima, the one with mu >= sqrt(lambda), i.e. the larger scale.
    near_best = [b for b, v in rep.m.all_local_maxima if v >= best - 1e-8]
    mu_lam = max(b.scale for b in near_best)
    return ExpansionPoint(
        lam=float(lam),
        hs_norm_sq=rep.hs_norm_sq,
        lp_norm_sq_2star=rep.lp_norm**2,
        m_value=best,
        mu_of_lambda=mu_lam,
        dist_sq=rep.dist_sq,
        be_value=rep.be_quotient,
    )


def assemble_report(
    amb: Ambient,
    points: list[ExpansionPoint],
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> ExpansionReport:
    """Least-squares fit of log(deficit) against log(lambda) with the
    documented exclusion rules."""
    thr = two_peak_threshold(amb)
    beta = amb.beta_exp
    floor = NOISE_FLOOR_FACTOR * cfg.rel_tol
    kept: list[ExpansionPoint] = []
    excluded: list[tuple[float, str]] = []
    for pt in points:
        if pt.be_value is None:
            excluded.append((pt.lam, "on-manifold (be_quotient undefined)"))
            continue
        deficit = thr - pt.be_value
        if deficit <= 0.0:
            warnings.warn(
                f"E(u_lambda) >= threshold at lambda={pt.lam:g}; point excluded "
                "from the fit (expected only above the asymptotic regime)",
                stacklevel=2,
            )
            excluded.append((pt.lam, "deficit non-positive"))
            continue
        if deficit < floor:
            excluded.append((pt.lam, "deficit below noise floor"))
            continue
        kept.append(pt)
    if len(kept) < 4:
        raise ParameterError(
            f"fit needs at least 4 usable points, have {len(kept)}"
        )
    lams = np.array([pt.lam for pt in kept])
    if math.log10(lams.max() / lams.min()) < 2.0 - 1e-9:
        raise ParameterError("fit points must span at least two decades of lambda")
    ys = np.log(np.array([thr - pt.be_value for pt in kept]))
    xs = np.log(lams)
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    mu_c = max(abs(pt.mu_of_lambda - 1.0) / pt.lam**beta for pt in kept)
    return ExpansionReport(
        points=tuple(points),
        fitted_exponent=float(slope),
        fitted_coefficient=float(math.exp(intercept)),
        predicted_exponent=beta,
        predicted_coefficient=predicted_coefficient(amb),
        residual_max=float(np.abs(resid).max()),
        threshold=thr,
        excluded=tuple(excluded),
        mu_bound_constant=float(mu_c),
    )


def sweep(
    amb: Ambient,
    lam_grid: tuple[float, ...] | list[float] | None = None,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> ExpansionReport:
    """Evaluate u_lambda along a descending lambda grid and fit the deficit.

    The grid must lie in (0, 1] and span at least two decades.
    """
    grid = tuple(lam_grid) if lam_grid is not None else default_lambda_grid(amb, cfg)
    if not grid:
        raise ParameterError("empty lambda grid")
    for lam in grid:
        if not 0.0 < lam <= 1.0:
            raise ParameterError(f"lambda grid values must lie in (0, 1], got {lam}")
    points = [sweep_point(lam, amb, cfg) for lam in grid]
    return assemble_report(amb, points, cfg)
