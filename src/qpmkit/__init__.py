"""qpmkit: hidden Markov processes, quantum random walks and quantum
Markov chains under one finitary-process roof.

The package evaluates word probabilities for classical and quantum
models, converts exactly between the parametrizations, analyzes Hankel
rank and process equivalence, computes averaged stationary limit
densities, and runs the hidden-state calculus (information functions,
joint observability, sign-valued inequality checks, maximum-weight
hidden paths).
"""

from types import ModuleType as _ModuleType

from .config import Config, DEFAULTS, load_config
from .errors import (
    AlphabetError,
    BasisInsufficiencyError,
    ConsistencyError,
    DegenerateSupportError,
    DimensionMismatchError,
    DivergenceError,
    NonFiniteError,
    NumericError,
    QpmkitError,
    SamplingError,
    SchemaError,
    SubspaceError,
    UnsupportedChainError,
    UsageError,
    ValidationError,
    ValidationReport,
    Violation,
)
from .hermitian import (
    Density,
    DensityKind,
    SpectralDecomposition,
    hermitian_inner,
    is_hermitian,
    is_nonnegative,
    is_unitary,
    pure_state_density,
    require_hermitian,
    spectral_decompose,
)
from .process import (
    EPSILON,
    Alphabet,
    LinearForm,
    Process,
    TruncatedHankel,
    Word,
    build_hankel,
    check_process_axioms,
    distinguishing_word,
    format_word,
    numerical_rank,
    parse_word,
    processes_equivalent,
    select_row_basis,
    words_of_length,
    words_up_to,
)
from .models import (
    FfmcParam,
    FinitaryParam,
    HmmParam,
    QrwParam,
    QrwStep,
    ffmc_to_hmm,
    finitary_eval,
    finitary_process,
    hmm_eval,
    hmm_process,
    hmm_to_finitary,
    is_standard_form,
    qrw_eval,
    qrw_process,
    qrw_step,
    sample_trajectories,
    sample_trajectory,
    standardize,
    validate_hmm,
    validate_qrw,
)
from .chain import (
    ChainKind,
    OperatorSubspace,
    QuantumChain,
    as_qpm,
    chain_eval,
    chain_process,
    finitary_to_qpm,
    hermitian_basis,
    hmm_to_qmc,
    kraus_coords,
    povm_to_qmc,
    qpm_to_finitary,
    qrw_to_qmc,
    unitary_to_qmc,
    validate_chain,
)
from .asymptotics import (
    BoundednessProbe,
    CesaroResult,
    boundedness_probe,
    cesaro_limit,
    limit_functional,
    stationary_letter_distribution,
    stationary_word_probability,
)
from .hidden import (
    BellCheck,
    HiddenStateBasis,
    InformationFunction,
    ObservabilityReport,
    ViterbiResult,
    bell_check,
    composite_function,
    expectation,
    hidden_state_weights,
    induced_distribution,
    joint_observability,
    product_function,
    viterbi_hidden_path,
)
from .io import (
    DensityFile,
    InfoFunctionsFile,
    canonical_json,
    load_model,
    load_model_report,
    model_kind,
    save_model,
)

__version__ = "0.1.0"

# every name imported above, and none of the submodules that importing binds
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
