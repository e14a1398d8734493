"""Spectral certificates for edge-disjoint spanning-tree packings with an
extra constrained forest, cross-checked against exact combinatorial ground truth.
"""

from types import ModuleType as _ModuleType

from .certify import (
    CertificateReport,
    CertificateRequest,
    CrossCheck,
    THEOREM_IDS,
    certify,
    check_cut_lower_bound,
    check_lemma_small_cut,
)
from .connectivity import (
    GtWitness,
    edge_connectivity,
    gt_membership,
    min_cut_sides,
    validate_gt_witness,
)
from .errors import ParseError, ToolError
from .graphs import (
    Graph,
    build_graph,
    components,
    cut_size,
    is_connected,
    parse_edge_list,
    parse_graph,
    parse_graph6,
    serialize_edge_list,
)
from .harness import (
    ExperimentConfig,
    FamilySpec,
    Lemma41Fixture,
    aggregates_csv,
    generate,
    lemma41_gadget_fixture,
    run_experiment,
)
from .packing import (
    FractionalPackingResult,
    PackingWitness,
    PkdSearchResult,
    lemma41_decompose,
    nu_f_exact,
    pack_spanning_trees,
    search_pkd_witness,
    tau_packing,
    verify_pkd_witness,
)
from .quotient import (
    CutProfile,
    QuotientMatrix,
    check_interlacing,
    check_weyl,
    cut_profile,
    quotient_laplacian,
)
from .spectra import (
    SpectralProfile,
    SymmetricMatrix,
    build_matrix,
    inertia,
    spectral_profile,
    sym_eigenvalues,
)

__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
