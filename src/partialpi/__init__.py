"""partialpi: finite-group structure engine around chief-series embedding properties."""

from .config import Caps, DEFAULT_CAPS, caps_from_env
from .perms import Perm, parse_cycles
from .groups import (
    Group,
    Subgroup,
    QuotientMap,
    group_from_generators,
    subgroup_generated,
    normalizer,
    centralizer,
    center,
    core,
    derived_subgroup,
    quotient,
    direct_product,
    semidirect_product,
    vector_action_group,
    matrix_group_on_nonzero_vectors,
    is_isomorphic,
    trivial_group,
    cyclic,
    symmetric,
    alternating,
    dihedral,
    dicyclic,
    semidihedral,
    elementary_abelian,
    special_linear_2_3,
    general_linear_3_2,
    lift_subgroup,
)
from .chiefs import (
    ChiefFactor,
    ChiefSeries,
    all_chief_series,
    chief_series_through,
    classify_factor,
    minimal_normal_subgroups,
    normal_subgroups,
    search_chains,
)
from .structure import (
    StructureFacts,
    SubgroupLattice,
    all_subgroups,
    exponent,
    frattini,
    hall,
    hypercenter_u,
    hypercenter_up,
    is_quaternion_free,
    o_p,
    o_p_prime,
    omega,
    p_rank,
    p_solubility,
    p_supersoluble,
    socle_and_minimal_normals,
    structure_facts,
    supersoluble,
    sylow,
)
from .embedding import (
    CapWitness,
    PiWitness,
    is_complemented,
    pi_series_through,
    satisfies_partial_cap,
    satisfies_partial_pi,
    satisfies_partial_pi_by_quotients,
)
from .modrep import (
    FpModule,
    SubmoduleLattice,
    are_isomorphic_modules,
    cyclicity_criterion_check,
    is_absolutely_irreducible,
    is_homogeneous,
    is_irreducible,
    module_hom_space_dim,
    section_as_module,
    submodules,
)
from .theorems import (
    LEMMA_IDS,
    VerdictReport,
    check_lemma,
    check_theorem_A,
    check_theorem_B,
    check_theorem_C,
    run_corpus,
)
from .corpus import Corpus, builtin_corpus
from . import errors

__version__ = "0.1.0"
