"""Clique complexes of weakly and strongly separated subsets of [n]:
construction, exact integer homology, and structural verification."""

from .complexes import (
    CollapseOutcome,
    Complex,
    Covering,
    clique_complex,
    cross_polytope_boundary,
    isomorphic,
    nerve,
)
from .homology import (
    HomologyGroup,
    SparseIntMatrix,
    boundary_matrices,
    reduced_homology,
    smith_normal_form,
)
from .separation import (
    CapExceeded,
    SeparationComplex,
    antipodal_subcomplex,
    build,
    deletion_covering,
)
from .subsets import (
    GENERATORS,
    SeparationGraph,
    complement_mask,
    is_frozen,
    nonfrozen_subsets,
    precedes,
    reverse_mask,
    separation_graph,
    strongly_separated,
    subset_str,
    surrounds,
    weakly_separated,
)

__version__ = "0.1.0"
