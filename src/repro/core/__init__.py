"""Core data structures and sequential algorithms of the seaweed framework."""

from .permutation import (
    EMPTY,
    Permutation,
    SubPermutation,
    identity_permutation,
    random_permutation,
    random_subpermutation,
)
from .dense import multiply_dense, minplus_distribution_product, is_distribution_matrix
from .combine import ColoredPointSet, combine_colored
from .seaweed import (
    multiply,
    multiply_permutations,
    multiply_permutations_reference,
)

__all__ = [
    "EMPTY",
    "Permutation",
    "SubPermutation",
    "identity_permutation",
    "random_permutation",
    "random_subpermutation",
    "multiply_dense",
    "minplus_distribution_product",
    "is_distribution_matrix",
    "ColoredPointSet",
    "combine_colored",
    "multiply",
    "multiply_permutations",
    "multiply_permutations_reference",
]
