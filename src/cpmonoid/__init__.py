"""Exact arithmetic in the universal categorical-product monoids.

The package models words over two projection generators, colored binary
trees with a leaf-substitution product, the branch semiring that separates
trees, the quotient monoid with unique reduced representatives, decision
procedures and constructions for one- and two-sided inverses, d-fold
product structures from tree shapes, and embeddings of arbitrary finite
monoids.
"""

from .words import (
    FamilyClassification,
    ONE,
    P1,
    P2,
    Word,
    all_words,
    family_classify,
    family_left_cofinite,
    family_left_dependent,
    is_left_multiple,
    words_up_to,
)
from .tmagma import (
    LEFT,
    Leaf,
    LeafAddress,
    LeafEntry,
    Node,
    ONE_T,
    RIGHT,
    Tree,
    act,
    degree,
    depth,
    leaf_colors,
    leaf_listing,
    left_inverse_T,
    mul,
    power,
    right_inverse_T,
    sigma,
    subtree_at,
)
from .branch import (
    BranchSet,
    BranchTerm,
    IDENTITY_S,
    ZERO_S,
    beta,
    recognize_word,
    set_mul,
    set_union,
    sigma_S,
    term_mul,
)
from .ucp import (
    ONE_U,
    UElem,
    equivalent,
    expand,
    from_word,
    is_reduced,
    mul_U,
    power_U,
    reduce,
    sigma_U,
)
from .invert import (
    TransportedStructure,
    has_left_inverse,
    has_right_inverse,
    is_unit,
    left_inverse,
    right_inverse,
    transport,
    transport_roundtrip,
    unit_inverse,
    unit_order,
)
from .dcp import (
    FiniteMonoid,
    TableViolation,
    all_shapes,
    combine,
    embed_finite_monoid,
    endo_antihom,
    left_comb,
    perm_hom,
    phi,
    shape_taus,
    validate_finite_monoid,
)

__all__ = [
    # words
    "Word", "ONE", "P1", "P2", "is_left_multiple", "all_words",
    "words_up_to", "family_left_cofinite", "family_left_dependent",
    "family_classify", "FamilyClassification",
    # trees
    "Leaf", "Node", "Tree", "ONE_T", "LEFT", "RIGHT", "LeafAddress",
    "LeafEntry", "sigma", "act", "mul", "power", "degree", "depth",
    "leaf_colors", "leaf_listing", "subtree_at", "right_inverse_T",
    "left_inverse_T",
    # branch semiring
    "BranchTerm", "BranchSet", "ZERO_S", "IDENTITY_S", "term_mul", "set_mul",
    "set_union", "sigma_S", "beta", "recognize_word",
    # quotient monoid
    "UElem", "ONE_U", "from_word", "is_reduced", "expand", "reduce", "mul_U",
    "sigma_U", "power_U", "equivalent",
    # invertibility
    "has_left_inverse", "left_inverse", "has_right_inverse", "right_inverse",
    "is_unit", "unit_inverse", "unit_order", "TransportedStructure",
    "transport", "transport_roundtrip",
    # d-fold structures
    "left_comb", "all_shapes", "shape_taus", "phi", "combine", "endo_antihom",
    "perm_hom", "FiniteMonoid", "TableViolation", "validate_finite_monoid",
    "embed_finite_monoid",
]

__version__ = "0.1.0"
