"""Entropy rate estimation for symbolic streams.

The estimator identifies an approximately synchronizing string for the hidden
generating process, reads state-conditional symbol distributions off symbolic
derivatives, and reports the entropy rate together with an explicit
uncertainty bound at a chosen confidence level.  Exact analysis for known
probabilistic finite-state machines, stream generators, and an LZ78 baseline
are included.
"""

from .errors import (
    EstimationError,
    InsufficientDataError,
    InvalidInputError,
)
from .streams import (
    BINARY,
    Alphabet,
    CountTable,
    SymbolStream,
    build_count_table,
    entropy,
)
from .sync import (
    DerivativeMap,
    SyncResult,
    candidate_length,
    collect_derivatives,
    find_sync_string,
    hull_vertex_words,
    select_sync_string,
)
from .estimator import (
    EstimateReport,
    EstimatorConfig,
    bound_curve,
    estimate_entropy_rate,
    gen_binary_entropy,
    solve_uncertainty,
)
from .generate import (
    TEXT27,
    ChaoticMapConfig,
    chaotic_stream,
    iid_stream,
    normalize_text,
)
from .lz78 import (
    lz78_curve,
    lz78_entropy_estimate,
    parse_lz78,
)
from .pfsa import (
    Pfsa,
    analytical_entropy_rate,
    evolve,
    format_pfsa,
    load_pfsa,
    markov_matrix,
    parse_pfsa,
    simulate,
    stationary_distribution,
    symbol_distribution,
    transformation_matrix,
    two_state_nonsynchronizable,
    two_state_synchronizable,
)

__version__ = "0.1.0"
