"""chaintop: exact order theory and topology on finite posets and
decidable infinite chains.

Finite posets, their canonical topologies, and all order-theoretic
relations are computed exactly: by closed forms where finiteness gives
one, with the brute-force definitions kept in `definitions` as their
oracles, and by exhaustive kernels over bitmask set families elsewhere.
A catalog of decidable infinite chains (integers, dyadics, rationals,
the naturals plus a top, a split rational line) carries the behaviour
finite models cannot show.  The suite module binds every
supported claim to an executable check.
"""

from .chains import (
    OMEGA,
    CATALOG_IDS,
    ChainHandle,
    DyadicUnitChain,
    FiniteChain,
    IntegerChain,
    LocalStructure,
    OmegaPlusOneChain,
    RationalUnitChain,
    ReversedChain,
    SplitChain,
    infinite_catalog,
    make_chain,
)
from .definitions import is_continuous_poset
from .errors import (
    AxiomViolation,
    CapExceeded,
    CarrierMismatch,
    ChainTopError,
    CoverageGap,
    IndexOutOfRange,
    MalformedElement,
    NotAChain,
    NotALattice,
    NotATopology,
    NotClosed,
    NotLowerSet,
    NotOpen,
    NotStrictlyOrdered,
    ParseError,
    PointInsideA,
    SampleTooLarge,
    SchemaError,
    UnknownCatalogId,
    UnknownTarget,
)
from .intervals import (
    NEG_INF,
    POS_INF,
    Interval,
    IntervalSet,
    WHOLE,
    above,
    below,
    closed_interval,
    convex_components,
    decompose_open_finite,
    interval_member,
    is_order_convex,
    normalize,
    open_interval,
)
from .poset import (
    FinitePoset,
    PosetClassification,
    PosetMap,
    antichain_poset,
    bounds,
    build_poset,
    chain_poset,
    classify,
    cone,
    dm_closure,
    extremum,
    is_cut_stable,
    is_directed,
    maximal_chains,
)
from .relations import (
    COMPACT,
    SUP_OF_STRICT_DOWNSET,
    Corollary3Report,
    WayBelowReport,
    chain_way_below,
    corollary3_report,
    is_completely_distributive,
    theorem2_dichotomy,
    way_below,
    way_below_report,
    way_way_below,
    way_way_below_row,
    way_way_below_set,
)
from .separating import (
    SeparatingFunction,
    VerificationReport,
    reverse_interval_set,
    separate_from_lower,
    separate_from_upper,
    verify_separating,
)
from .suite import (
    CLAIM_IDS,
    FAULT_KERNELS,
    SEARCH_TARGETS,
    ClaimRecord,
    Found,
    SearchConfig,
    SuiteConfig,
    SuiteReport,
    find_counterexample,
    integer_window_components,
    m3_poset,
    n5_poset,
    run_suite,
    v_poset,
)
from .topology import (
    CANONICAL_NAMES,
    SeparationReport,
    Topology,
    canonical_topology,
    discrete_topology,
    generate_topology,
    has_order_convex_basis,
    hull,
    indiscrete_topology,
    is_pospace,
    is_topological_lattice,
    join_topologies,
    product_topology,
    scott_closure,
    separation_report,
    subspace_topology,
    topology_equal,
)

__version__ = "0.1.0"
