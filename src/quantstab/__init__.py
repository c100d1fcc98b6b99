"""Stabilization of uncertain autoregressive plants over finite-rate channels.

The package covers the full workflow: interval arithmetic for set-valued
estimation, nonuniform quantizer synthesis, necessary and sufficient data-rate
bounds, periodic alphabet-size schedules, a verified closed-loop simulator,
and brute-force oracles that cross-check every closed form.
"""

from .loop import (
    InvariantViolation,
    Trajectory,
    run_closed_loop,
)
from .oracle import (
    GridSearchResult,
    exhaustive_encode_decode,
    grid_optimal_boundaries,
    sigma_envelope,
    verify_equalization,
    verify_relaxation_kkt,
)
from .plant import (
    UncertainPlant,
    sample_instance,
)
from .quantizer import (
    QuantizerSpec,
    SaturationError,
    coefficient_expansion_rates,
    decode,
    encode,
    expansion_profile,
    optimal_boundaries,
    quantizer_for,
    uniform_boundaries,
    v_rate,
)
from .rates import (
    INFEASIBLE,
    ComparisonBounds,
    RelaxedRateSolution,
    Schedule,
    ScheduleSearchResult,
    StabilityTest,
    comparison_bounds,
    conservative_known_plant_rate,
    min_sufficient_N,
    necessary_rate,
    periodic_sufficient_test,
    relaxed_min_rate,
    schedule_quantizers,
    search_periodic_schedule,
    spectral_radius,
    sufficient_test,
)

__version__ = "0.1.0"

__all__ = [
    "ComparisonBounds",
    "GridSearchResult",
    "INFEASIBLE",
    "InvariantViolation",
    "QuantizerSpec",
    "RelaxedRateSolution",
    "SaturationError",
    "Schedule",
    "ScheduleSearchResult",
    "StabilityTest",
    "Trajectory",
    "UncertainPlant",
    "coefficient_expansion_rates",
    "comparison_bounds",
    "conservative_known_plant_rate",
    "decode",
    "encode",
    "exhaustive_encode_decode",
    "expansion_profile",
    "grid_optimal_boundaries",
    "min_sufficient_N",
    "necessary_rate",
    "optimal_boundaries",
    "periodic_sufficient_test",
    "quantizer_for",
    "relaxed_min_rate",
    "run_closed_loop",
    "sample_instance",
    "schedule_quantizers",
    "search_periodic_schedule",
    "sigma_envelope",
    "spectral_radius",
    "sufficient_test",
    "uniform_boundaries",
    "v_rate",
    "verify_equalization",
    "verify_relaxation_kkt",
]
