"""scnopt: evolutionary multi-objective design of three-echelon supply chains.

A seeded elitist non-dominated-sorting engine (:mod:`scnopt.nsga2`) searches
real-coded network designs (:mod:`scnopt.model`) for Pareto fronts trading
total network cost against delivery delay.  :mod:`scnopt.instances` handles
instance files, generation, and front export; :mod:`scnopt.cli` is the
command-line harness.
"""

from .instances import (
    FRONT_CSV_HEADER,
    PRESETS,
    GeneratorParams,
    ValidationError,
    front_rows,
    generate_instance,
    generate_preset,
    load_instance,
    save_front,
    save_instance,
    tiny_instance,
)
from .metrics import hypervolume_2d
from .model import (
    CONSTRAINT_FAMILIES,
    DecodedNetwork,
    GenotypeLayout,
    Instance,
    SupplyChainProblem,
    allocate_with_caps,
    check_constraints,
    decode,
    eval_delay,
    eval_total_cost,
    evaluate,
    evaluate_batch,
    genotype_length,
    simulate_schedule,
)
from .nsga2 import (
    EngineConfig,
    EvaluationError,
    EvolutionResult,
    FrontPartition,
    GenerationRecord,
    Individual,
    ParetoArchive,
    assign_ranks_and_crowding,
    binary_tournament_select,
    constrained_dominates,
    crowded_compare,
    crowding_distance,
    dominates,
    environmental_select,
    evolve,
    fast_nondominated_sort,
    polynomial_mutation,
    sbx_crossover,
    update_archive,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # engine
    "EngineConfig",
    "EvaluationError",
    "EvolutionResult",
    "FrontPartition",
    "GenerationRecord",
    "Individual",
    "ParetoArchive",
    "assign_ranks_and_crowding",
    "binary_tournament_select",
    "constrained_dominates",
    "crowded_compare",
    "crowding_distance",
    "dominates",
    "environmental_select",
    "evolve",
    "fast_nondominated_sort",
    "polynomial_mutation",
    "sbx_crossover",
    "update_archive",
    # model
    "CONSTRAINT_FAMILIES",
    "DecodedNetwork",
    "GenotypeLayout",
    "Instance",
    "SupplyChainProblem",
    "allocate_with_caps",
    "check_constraints",
    "decode",
    "eval_delay",
    "eval_total_cost",
    "evaluate",
    "evaluate_batch",
    "genotype_length",
    "simulate_schedule",
    # instances
    "FRONT_CSV_HEADER",
    "PRESETS",
    "GeneratorParams",
    "ValidationError",
    "front_rows",
    "generate_instance",
    "generate_preset",
    "load_instance",
    "save_front",
    "save_instance",
    "tiny_instance",
    # metrics
    "hypervolume_2d",
]
