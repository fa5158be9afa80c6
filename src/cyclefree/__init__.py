"""Chessboard complexes, cycle-free subcomplexes, and exact homology.

The package is organized around a small pipeline:

``boards``
    Squares, board specifications, the column-to-row bijection that
    drives the cycle-freeness condition, and the combinatorics of
    induced arcs and cycles.
``complexes``
    A plain facet-based simplicial complex with links, joins, unions,
    and intersections.
``homology``
    Chains, boundary matrices, Smith normal form (sparse front end and
    one independent dense routine, which also canonicalises torsion),
    integral and mod-p homology, cycle and boundary tests,
    presentations with explicit generators, and induced maps of
    inclusions.
``builders``
    The complex families themselves: full chessboard complexes,
    cycle-free complexes, their column/row restrictions, directed
    matchings, cycle-count filtrations, and iterated suspensions.
``generators``
    Hand-built spheres inside these complexes, each carrying its
    fundamental cycle as ``.fundamental``, used as witnesses for
    non-vanishing homology.
``verify``
    A catalog of checkable claims with a small runner.
``facetfile``
    A plain-text facet format so complexes can leave and re-enter the
    pipeline; ``cli`` wires the whole thing to the command line.

Everything downstream of ``boards`` shares one ordering convention:
faces are tuples of squares sorted by (row, col), the faces of a fixed
dimension are ordered lexicographically, and boundary signs follow the
position of the dropped vertex.
"""

from .boards import (
    Bijection,
    BoardSpec,
    Square,
    alpha_cycles,
    as_config,
    is_cycle_free,
    is_nontaking,
    make_spec,
    reduced_spec,
)
from .complexes import (
    SimplicialComplex,
    intersection,
    join,
    suspension,
    union,
)
from .homology import (
    AbelianGroup,
    Chain,
    HomologyResult,
    InducedMap,
    Presentation,
    SparseIntMatrix,
    betti_numbers,
    boundary_matrix,
    chain_vector,
    dense_snf,
    homological_connectivity,
    homology,
    induced_map,
    is_boundary,
    is_cycle,
    rank_mod_p,
    rank_z,
    relative_homology,
    snf,
)

from .builders import (
    Multicycle,
    delta,
    directed_matching,
    filtration_level,
    full_board,
    multicycles,
    omega,
    sym,
    theta,
    theta1,
    theta2,
)
from .facetfile import format_complex, read_complex, write_complex
from .generators import (
    SphereEmbedding,
    hexagon,
    odd_sphere,
    tight_sphere,
    two_sphere,
)
from .verify import (
    CLAIMS,
    Claim,
    ClaimReport,
    NOT_AT_DESK_SCALE,
    gamma_p,
    mu_n,
    mu_nm,
    nu_n,
    run_claims,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianGroup",
    "alpha_cycles",
    "as_config",
    "betti_numbers",
    "Bijection",
    "BoardSpec",
    "boundary_matrix",
    "Chain",
    "chain_vector",
    "Claim",
    "ClaimReport",
    "CLAIMS",
    "delta",
    "dense_snf",
    "directed_matching",
    "filtration_level",
    "format_complex",
    "full_board",
    "gamma_p",
    "hexagon",
    "homological_connectivity",
    "homology",
    "HomologyResult",
    "induced_map",
    "InducedMap",
    "intersection",
    "is_boundary",
    "is_cycle",
    "is_cycle_free",
    "is_nontaking",
    "join",
    "make_spec",
    "mu_n",
    "mu_nm",
    "Multicycle",
    "multicycles",
    "NOT_AT_DESK_SCALE",
    "nu_n",
    "odd_sphere",
    "omega",
    "Presentation",
    "rank_mod_p",
    "rank_z",
    "read_complex",
    "reduced_spec",
    "relative_homology",
    "run_claims",
    "SimplicialComplex",
    "snf",
    "SparseIntMatrix",
    "SphereEmbedding",
    "Square",
    "suspension",
    "sym",
    "theta",
    "theta1",
    "theta2",
    "tight_sphere",
    "two_sphere",
    "union",
    "write_complex",
]
