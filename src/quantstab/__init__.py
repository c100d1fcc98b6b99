"""Stabilization of uncertain autoregressive plants over finite-rate channels.

The package covers the full workflow: interval arithmetic for set-valued
estimation, nonuniform quantizer synthesis, necessary and sufficient data-rate
bounds, periodic alphabet-size schedules, a verified closed-loop simulator,
and brute-force oracles that cross-check every closed form.

Importing the package loads none of its modules: each name of __all__, and
each submodule, is imported on its first read.
"""

_EXPORTS = {
    "loop": ("InvariantViolation", "Trajectory", "run_closed_loop"),
    "oracle": (
        "GridSearchResult",
        "exhaustive_encode_decode",
        "grid_optimal_boundaries",
        "sigma_envelope",
        "verify_equalization",
        "verify_relaxation_kkt",
    ),
    "plant": ("UncertainPlant", "sample_instance"),
    "quantizer": (
        "QuantizerSpec",
        "SaturationError",
        "coefficient_expansion_rates",
        "decode",
        "encode",
        "expansion_profile",
        "optimal_boundaries",
        "quantizer_for",
        "uniform_boundaries",
        "v_rate",
    ),
    "rates": (
        "INFEASIBLE",
        "ComparisonBounds",
        "RelaxedRateSolution",
        "Schedule",
        "ScheduleSearchResult",
        "StabilityTest",
        "comparison_bounds",
        "conservative_known_plant_rate",
        "min_sufficient_N",
        "necessary_rate",
        "periodic_sufficient_test",
        "relaxed_min_rate",
        "schedule_quantizers",
        "search_periodic_schedule",
        "spectral_radius",
        "sufficient_test",
    ),
}
"""The names of __all__, by the module that defines each."""
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_MODULES = ("cli", "intervals", "loop", "oracle", "plant", "quantizer", "rates")

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """A name of __all__, or a submodule, imported on its first read (PEP 562).

    A name read once is bound in the package, so later reads find it there.
    """
    import importlib

    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _MODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
