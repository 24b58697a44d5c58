"""Exact and empirical machinery for forbidden K_{2,t} traces in 3-uniform
hypergraphs: detection with certificates, dominated-set algorithms, exact
small-n extremal search, C4-free constructions, and bound evaluation."""

from .bounds import (
    C4_WINDOW,
    DerivationPoint,
    Interval,
    derivation_check,
    epsilon,
    log_grid,
    ratio_table,
)
from .canon import canonical_form, canonical_index_sequence, is_canonical_labeling
from .constructions import (
    contains_c4,
    dumps_graph,
    greedy_lower_bound,
    lift_to_trace_free,
    polarity_graph,
)
from .dominated import (
    dominated_min_degree,
    dominated_pair_min1,
    simultaneous_dominated_min_degree,
    star_loop_decomposition,
)
from .hypergraph import (
    CapExceeded,
    EdgePartition,
    FormatError,
    Graph,
    Hypergraph3,
    dumps_hypergraph,
    eu_vu,
    link_graph,
    loads_hypergraph,
    neighborhoods,
    partition_edges,
    read_hypergraph,
    write_hypergraph,
)
from .lemma_checks import (
    CheckStatus,
    LemmaViolation,
    lemma_status_report,
)
from .search import (
    SearchResult,
    export_cnf,
    trace_templates,
    turan_oracle,
    turan_search,
)
from .traces import (
    SearchTimeout,
    TraceCertificate,
    certificate_from_text,
    contains_trace,
    contains_trace_naive,
    incremental_trace_check,
    least_third_certificate,
    verify_certificate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
