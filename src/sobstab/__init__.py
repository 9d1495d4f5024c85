"""sobstab: numerical toolkit for the stability of the (fractional) Sobolev
inequality on finite superpositions of Talenti bubbles.

The package evaluates the stability quotient

    E(f) = (|f|_{Hs}^2 - S_d |f|_{2*}^2) / dist(f, M)^2

for f a finite linear combination of bubbles, where M is the optimizer
manifold and the distance is computed through the derivative-free
reformulation dist^2 = |f|^2 - S_d * sup_{h in M1} (f, h^{2*-1})^2.  All
Sobolev-side quantities reduce to convolution-free pairings, so no fractional
Laplacian is ever discretized.

The names in ``__all__`` load lazily: ``import sobstab`` and the closed-form
names (constants, thresholds, inequalities, errors) load no numpy until a
numerical name is first used.
"""

from importlib import import_module

# Home module of each public name; the module __getattr__ below (PEP 562)
# imports it there on first access.
_HOMES = {
    **dict.fromkeys((
        "BubbleParam", "Geometry", "Superposition", "hs_inner", "hs_norm_sq",
        "lp_norm", "pair_against_bubble", "superposition_from_dict",
        "superposition_to_dict",
    ), "bubbles"),
    **dict.fromkeys((
        "Ambient", "SharpConstants", "appendix_constants", "beta_half_line",
        "normalization_c", "sharp_constant", "sharp_constants", "sphere_area",
    ), "constants"),
    **dict.fromkeys((
        "GeometryError", "HypothesisError", "ParameterError",
        "QuadratureNonConvergence", "SchemaError", "SobstabError",
    ), "errors"),
    **dict.fromkeys((
        "DerivativeCheck", "ExpansionPoint", "ExpansionReport", "F_of", "G_of",
        "H_of", "default_lambda_grid", "derivative_check", "sweep",
        "sweep_point", "two_bubble",
    ), "expansion"),
    **dict.fromkeys((
        "FunctionalReport", "MOptimum", "be_quotient", "dist_sq",
        "functional_report", "m_value", "sobolev_quotient",
    ), "functional"),
    **dict.fromkeys((
        "QuotientSextuple", "QuotientVerdict", "convex_g", "monotone_quotient",
        "quotient_compare",
    ), "inequalities"),
    **dict.fromkeys((
        "DEFAULT_CONFIG", "QuadratureConfig", "QuadratureResult",
        "integrate_axisymmetric", "integrate_half_line", "integrate_real_line",
    ), "quadrature"),
    **dict.fromkeys((
        "Binding", "CrossoverScan", "ThresholdReport", "compare",
        "crossover_scan", "spectral_threshold", "two_peak_threshold",
    ), "thresholds"),
}


def __getattr__(name: str) -> object:
    """Import a public name from its home module and keep it here."""
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOMES))


__version__ = "0.1.0"

__all__ = [
    "__version__",
    # constants
    "Ambient",
    "SharpConstants",
    "appendix_constants",
    "beta_half_line",
    "normalization_c",
    "sharp_constant",
    "sharp_constants",
    "sphere_area",
    # quadrature
    "DEFAULT_CONFIG",
    "QuadratureConfig",
    "QuadratureResult",
    "integrate_axisymmetric",
    "integrate_half_line",
    "integrate_real_line",
    # bubbles
    "BubbleParam",
    "Geometry",
    "Superposition",
    "hs_inner",
    "hs_norm_sq",
    "lp_norm",
    "pair_against_bubble",
    "superposition_from_dict",
    "superposition_to_dict",
    # functional
    "FunctionalReport",
    "MOptimum",
    "be_quotient",
    "dist_sq",
    "functional_report",
    "m_value",
    "sobolev_quotient",
    # expansion
    "DerivativeCheck",
    "ExpansionPoint",
    "ExpansionReport",
    "F_of",
    "G_of",
    "H_of",
    "default_lambda_grid",
    "derivative_check",
    "sweep",
    "sweep_point",
    "two_bubble",
    # thresholds
    "Binding",
    "CrossoverScan",
    "ThresholdReport",
    "compare",
    "crossover_scan",
    "spectral_threshold",
    "two_peak_threshold",
    # inequalities
    "QuotientSextuple",
    "QuotientVerdict",
    "convex_g",
    "monotone_quotient",
    "quotient_compare",
    # errors
    "SobstabError",
    "ParameterError",
    "SchemaError",
    "GeometryError",
    "HypothesisError",
    "QuadratureNonConvergence",
]
