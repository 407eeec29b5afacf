"""Dictionary selection toolkit.

Select k atoms from a finite candidate set so that every data point admits
a good sparse approximation in the selected atoms.  Offline selectors
(modular greedy, replacement greedy, replacement OMP), generalized
sparsity constraints, online variants driven by exponential-weights
experts, and a benchmark harness.
"""

from .constraints import (
    AverageSparsity,
    BlockSparsity,
    ExchangeInstance,
    IndividualSparsity,
    PartitionMatroid,
    Replacement,
    apply_replacement,
    best_replacement,
    is_feasible,
    replacement_sparsity_p,
    solve_exchange,
)
from .data_io import Dataset, extract_patches, synth_dataset
from .encoders import SparseCode, omp_encode, utility, utility_gradient
from .groundset import GroundSet, assemble, dct2_basis, haar2_basis, load_atom_block
from .linalg import (
    RestrictedSpectrum,
    SupportFactorization,
    coherence,
    empty_factorization,
    factor_insert,
    factor_remove,
    ls_solve,
    restricted_spectrum,
)
from .offline import (
    SelectionState,
    SelectorConfig,
    modular_greedy,
    replacement_greedy,
    replacement_omp,
)
from .online import (
    HedgeExpert,
    OnlineState,
    alpha_regret,
    expert_hindsight_regrets,
    hedge_step,
    online_round,
    online_state,
)

__version__ = "0.1.0"

# ``ls_solve`` and ``replacement_sparsity_p`` stay importable from here but
# are not part of the public API.

__all__ = [
    "AverageSparsity",
    "BlockSparsity",
    "Dataset",
    "ExchangeInstance",
    "GroundSet",
    "HedgeExpert",
    "IndividualSparsity",
    "OnlineState",
    "PartitionMatroid",
    "Replacement",
    "RestrictedSpectrum",
    "SelectionState",
    "SelectorConfig",
    "SparseCode",
    "SupportFactorization",
    "alpha_regret",
    "apply_replacement",
    "assemble",
    "best_replacement",
    "coherence",
    "dct2_basis",
    "empty_factorization",
    "expert_hindsight_regrets",
    "extract_patches",
    "factor_insert",
    "factor_remove",
    "haar2_basis",
    "hedge_step",
    "is_feasible",
    "load_atom_block",
    "modular_greedy",
    "omp_encode",
    "online_round",
    "online_state",
    "replacement_greedy",
    "replacement_omp",
    "restricted_spectrum",
    "solve_exchange",
    "synth_dataset",
    "utility",
    "utility_gradient",
]
