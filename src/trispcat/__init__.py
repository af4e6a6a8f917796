"""Acyclic categories, regular trisps, equivariant quotients, and collapse certificates."""

from .accat import (
    AcyclicCategory,
    Poset,
    as_poset,
    check_closure_operator,
    find_terminal_object,
    poset_from_relation,
    validate_category,
)
from .closure import (
    CollapseCertificate,
    TrispClosureMap,
    check_matching_acyclic,
    closure_matching,
    collapse,
    cone_closure_map,
    full_collapse_audit,
    induced_trisp_closure_map,
    verify_trisp_closure_map,
)
from .equivariant import (
    check_equivariant,
    check_image_subtrisp_equality,
    check_lift_condition,
    lift_closure_map,
    push_closure_map,
    quotient_poset_closure_map,
)
from .errors import InputError, NotAPosetError, PipelineError, PreconditionError, SoundnessError
from .nerve import Nerve, nerve
from .symmetry import (
    Aut,
    GroupAction,
    canonical_map,
    check_horizontal,
    check_regular_action,
    close_group,
    induced_trisp_action,
    quotient_category,
    quotient_trisp,
)
from .trisp import (
    Trisp,
    euler_characteristic,
    induced_subtrisp,
    trisps_equal_over_vertices,
    validate_trisp,
)

__version__ = "0.1.0"
