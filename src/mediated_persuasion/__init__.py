"""Two-state persuasion through a garbling mediator.

Computes the posterior pairs a sender can induce through a fixed garbling,
best responses and pure-strategy equilibria for sender and mediator, and
informativeness/welfare comparisons against the unmediated benchmark.

``MP_THREADS``, when set, becomes the default of ``OMP_NUM_THREADS``,
``OPENBLAS_NUM_THREADS`` and ``MKL_NUM_THREADS``. It is read here, before
any submodule imports numpy, because the pools are sized when numpy loads.
"""

import os as _os
from types import ModuleType as _ModuleType

if _os.environ.get("MP_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _os.environ["MP_THREADS"])

from .errors import (
    BarycenterMismatch,
    ColumnSumMismatch,
    DegeneratePrior,
    DimensionMismatch,
    EmptyDomain,
    NegativeEntry,
    NonFiniteEntry,
    NotSigmaPlausible,
    PersuasionError,
    PriorOutsideSupport,
    ScenarioError,
    SingularGarbling,
    TooFewRealizations,
)
from .info import (
    TOL,
    BeliefDistribution,
    BlackwellOrder,
    BlackwellResult,
    MpsResult,
    bayes_plausible_weights,
    blackwell_compare,
    compose,
    garbling_rank,
    induced_tau,
    is_mps,
    validate_stochastic,
)
from .payoffs import (
    ActionGame,
    Concavification,
    PiecewiseUtility,
    concavify,
    expected_utility,
    induce_belief_utilities,
)
from .feasible import (
    BoundaryCurve,
    FeasibleSet,
    boundary_curves,
    companion_slices,
    nesting_report,
    ordered_member_many,
    posterior_pair,
    profile_member_many,
    reconstruct_experiment,
    symmetry_report,
    vertex_profiles,
    wing_polygons,
)
from .solver import (
    BenchmarkSolution,
    BestResponse,
    ComparisonReport,
    Deviation,
    EquilibriumCertificate,
    GameSpec,
    bp_solve,
    check_equilibrium,
    compare_outcomes,
    mediator_best_response,
    search_equilibria,
    sender_best_response,
)
from .scenarios import Scenario, fixture_path, load_fixture, load_scenario

__version__ = "0.1.0"

# the library's names, without the submodules that importing them binds
__all__ = [name for name in dir() if not (name.startswith("_") or isinstance(globals()[name], _ModuleType))]
