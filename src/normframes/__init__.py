"""Components, curvature and torsion of tensor-algebra derivations, and
construction of frames in which the components vanish at a point, along an
integral curve, or across a neighborhood.

The expression layer (:mod:`normframes.expr`) supplies the symbolic
substrate; :mod:`normframes.geometry` the charts and frames;
:mod:`normframes.derivation` the component calculus;
:mod:`normframes.curvature` the curvature/torsion forms and verdicts;
:mod:`normframes.frames` the constructive results with their verifiers and
the numeric transformation law at points; :mod:`normframes.rng` the
seeded stream behind every sampled verdict; :mod:`normframes.cli` a
file-driven front end producing reproducible reports.
"""

__version__ = "0.1.0"

from .expr import (
    COORDINATE,
    VECTOR_COMPONENT,
    FRAME_DERIVATIVE,
    Const,
    DomainError,
    Expr,
    ExprSyntaxError,
    MissingSymbolError,
    Sym,
    Symbol,
    UnknownSymbolError,
    component_symbols,
    coordinate_symbols,
    differentiate,
    evaluate,
    frame_derivative_symbol,
    free_symbols,
    parse_expr,
    simplify,
    substitute,
    to_source,
)
from .geometry import (
    Chart,
    DegenerateFrameError,
    FrameField,
    TensorField,
    VectorField,
    anholonomy_coefficients,
    commutator,
)
from .derivation import (
    Connection,
    Derivation,
    LieType,
    LinearityVerdict,
    STemplate,
    SymbolicTransform,
    WTemplate,
    apply_derivation,
    linearity_probe,
    symmetrize_connection,
    template_symbols,
    w_of,
)
from .curvature import (
    ProbeForms,
    Verdict,
    is_flat,
    is_torsion_free,
    sampled_verdict,
    torsion_tensor_at,
)
from .frames import (
    ConstancyVerdict,
    ConstructionError,
    CurveError,
    CurveFrame,
    CurveSpec,
    GridFrame,
    GridSpec,
    HolonomicityVerdict,
    NoFrameExistsError,
    NotFlatError,
    NotLinearConnectionError,
    PointFrameResult,
    PointFrameSpec,
    VerificationError,
    constancy_check,
    flat_frame_neighborhood,
    frame_at_point_connection,
    frame_at_point_general,
    holonomicity_check,
    identity_seed,
    shell_component_growth,
    transport_along_curve,
    transformed_components,
    transformed_components_max,
)
