"""sphtor: arc combinatorics and torsion pairs for spherical-object categories.

The arc modules (``arcs``, ``hammocks``, ``extensions``, ``closure``) model
the categories generated by a w-spherical object for any integer weight
except 1; ``tube`` covers the weight-1 tubes; ``orbit`` covers the negative
Calabi-Yau orbit categories of type A together with their polygon model.
"""

from types import ModuleType as _ModuleType

from .arcs import (
    Arc,
    QuiverCoord,
    Relation,
    RelationKind,
    apply_functor,
    arc,
    arcs_in_window,
    component,
    from_coord,
    is_admissible,
    relation,
    serre,
    suspend,
    to_coord,
    translate,
    translation_step,
)
from .closure import (
    DescriptorSet,
    FountainDescriptor,
    FountainSide,
    TorsionReport,
    Verdict,
    extension_closure_oracle,
    is_contravariantly_finite,
    is_torsion_class,
    ptolemy_closure,
    symbolic_closure,
)
from .errors import (
    InvalidArc,
    NoExtension,
    NonOrthogonalInput,
    NotInHammock,
    ParamsMismatch,
    SphtorError,
    TooLarge,
    ValidationFailure,
    WeightHasNoArcModel,
    WeightMismatch,
)
from .extensions import (
    ExtensionClass,
    MultiExtensionOutcome,
    PtolemyArcs,
    e_set,
    middle_cohomology,
    middle_term_multi,
    middle_terms,
    ptolemy_arcs,
)
from .hammocks import (
    CohomologyVector,
    HammockSide,
    cohomology,
    ext_dim,
    ext_dim_arc,
    hammock_side,
    hom_dim,
    in_forward_ext,
)
from .orbit import (
    IntervalObject,
    MDiagonal,
    OrbitCategory,
    db_hom_dim,
    db_suspend,
    db_translate,
    db_translate_inv,
)
from .tube import (
    T1Descriptor,
    T1Verdict,
    TubeObject,
    t1_classify,
    t1_ext_dim,
    t1_extensions,
    t1_hom_dim,
)

__all__ = [
    name for name, value in sorted(globals().items())
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
__version__ = "0.1.0"
