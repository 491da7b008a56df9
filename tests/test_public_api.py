"""The public surface: every name in cpmonoid.__all__, spelled out.

A name leaves or joins the package only by editing this list too, so a
removal is always deliberate.
"""

import cpmonoid

PUBLIC_NAMES = [
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


def test_all_is_the_pinned_list():
    assert len(PUBLIC_NAMES) == 71
    assert cpmonoid.__all__ == PUBLIC_NAMES
    assert len(set(cpmonoid.__all__)) == len(cpmonoid.__all__)


def test_every_public_name_resolves():
    for name in cpmonoid.__all__:
        assert getattr(cpmonoid, name) is not None, name
