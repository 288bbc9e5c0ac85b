"""Finite Brandt groupoids and almost groupoids.

Construction and exhaustive axiom checking, every substructure operation
(isotropy groups, centralizers, center, generated and cyclic subgroupoids,
set products, unions, intersections), morphism and isomorphism checking
with a bounded search, the AGT text format, and the amg command-line tool.
"""

from .core import (
    ALMOST_LAWS,
    BRANDT_LAWS,
    DERIVED_IDENTITY_NAMES,
    MAX_CARRIER,
    AlmostGroupoid,
    BrandtGroupoid,
    ElementId,
    ElementSubset,
    Law,
    NotAlmostError,
    PartialTable,
    Structure,
    UndefinedProductError,
    VerificationError,
    VerificationReport,
    Violation,
    almost_to_brandt,
    brandt_to_almost,
    derived_identities,
    verify_almost,
    verify_brandt,
)
from .substructures import (
    EmptyIntersectionError,
    SubgroupoidReport,
    brandt_isotropy_subgroupoid,
    center,
    centralizer,
    cyclic_subgroupoid,
    disjoint_union_subgroupoids,
    fiber_group,
    generated_subgroupoid,
    hk_commutes,
    intersect_subgroupoids,
    is_almost_subgroupoid,
    is_brandt_subgroupoid,
    is_subgroupoid,
    isotropy_subgroupoid,
    set_product,
)
from .families import (
    FAMILY_NAMES,
    FamilySpec,
    NotAGroupError,
    build_family,
    cyclic_group,
    direct_product,
    disjoint_union,
    from_group,
    is_prime,
    klein_four_group,
    matrix_bundle,
    null_almost_groupoid,
    pair_groupoid,
    parse_family_token,
    rstar_groupoid,
    symmetric_group_3,
    z6_example,
    z_bundle,
)
from .morphisms import (
    ISO_SEARCH_BOUND,
    MorphismPair,
    find_isomorphism,
    is_almost_morphism,
    is_brandt_morphism,
    is_isomorphism,
    is_morphism,
)
from .agt import (
    AgtDocument,
    AgtParseError,
    build_structure,
    parse,
    parse_document,
    parse_morphism,
    render_tables,
    serialize,
    serialize_morphism,
)

__version__ = "0.1.0"
