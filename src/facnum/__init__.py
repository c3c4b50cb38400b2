"""facnum: exact factorization numbers of finite groups.

F2(G) counts the ordered pairs of subgroups (H, K) with HK = G.  The
package evaluates the known closed forms for abelian p-groups and the
order-p^3 families over exact integers and polynomials, enumerates
subgroup lattices of concrete Cayley tables, and cross-verifies the two
routes against each other (Moebius inversion, Hall's theorem, subgroup
commutativity degree) on every group it touches.
"""

from .errors import (
    DomainError,
    FacnumError,
    ParseError,
    ResourceLimitError,
    ValidationError,
    VerificationError,
)
from .explore import (
    Conjecture6Report,
    MonotonicityReport,
    PartitionForms,
    Theorem5Report,
    check_conjecture6,
    check_theorem5,
    open_problem_table,
    partitions,
)
from .formulas import (
    PartitionType,
    f2_corollary4,
    f2_corollary4_poly,
    f2_cyclic,
    f2_elementary,
    f2_elementary_poly,
    f2_heisenberg_p3,
    f2_heisenberg_p3_poly,
    f2_modular_p3,
    f2_modular_p3_poly,
    f2_rank2,
    f2_rank2_poly,
    f2_rank2_via_eq4,
    f2_rank2_via_eq4_poly,
    gaussian_binomial,
    gaussian_binomial_poly,
    hall_mobius,
    is_prime,
    lattice_size_heisenberg_p3,
    subgroup_count_rank2,
    subgroup_count_rank2_poly,
    total_subgroups_elementary,
)
from .groups import (
    FiniteGroup,
    GroupSpec,
    build_abelian,
    build_named,
    cyclic_group,
    dihedral8,
    elementary_abelian_group,
    heisenberg_p3,
    is_elementary_abelian,
    load_cayley_table,
    modular_p3,
    parse_cayley_table,
    permute_elements,
    quaternion8,
    quotient,
)
from .intpoly import IntPolynomial
from .lattice import (
    Subgroup,
    SubgroupLattice,
    enumerate_subgroups,
    f2_bruteforce,
    f2_of_member,
    frattini_index,
    lattice_document,
    lattice_json,
    list_factorizations,
    mobius_from_bottom,
    mobius_to_top,
    permuting_pairs,
    sd,
    verify_hall,
    verify_inversion,
)

__version__ = "0.1.0"
