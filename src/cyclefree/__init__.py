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
    one independent dense routine), abelian groups in invariant-factor
    form, integral and mod-p homology, cycle and boundary tests,
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

# ``from .homology import *`` rebinds ``homology`` to the function, so
# the module's ``__all__`` is read through a private name
from . import homology as _homology
from .boards import *
from .complexes import *
from .homology import *
from .builders import *
from .facetfile import *
from .generators import *
from .verify import *

__version__ = "0.1.0"

__all__ = (
    boards.__all__
    + complexes.__all__
    + _homology.__all__
    + builders.__all__
    + facetfile.__all__
    + generators.__all__
    + verify.__all__
)
