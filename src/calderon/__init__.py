"""Cauchy-data spaces, projectors and Grassmannian comparison for
constant-coefficient elliptic operators on flat model geometries."""

from . import errors
from .contour import (
    Contour,
    SpectralSplit,
    characteristic_roots,
    contour_quadrature,
    enclosing_circle,
    matrix_power,
    riesz_projector,
    spectral_split,
)
from .grassmann import (
    CompareReport,
    GrassmannPoint,
    IndexReport,
    SchattenReport,
    assemble_point,
    chiral_point,
    compare_points,
    fredholm_index,
    krichever_reference,
    schatten_fit,
)
from .projector import (
    CauchyFrame,
    SobolevWeight,
    calderon_projector,
    calderon_projector_stack,
    cauchy_frame_oracle,
    entry_growth_fit,
    invert_jump_operator,
    jump_operator,
    layer_potential_blocks,
    orthogonal_projector,
    principal_angles,
    sobolev_weights,
)
from .symbols import (
    EllipticityReport,
    ModeSymbol,
    OperatorSpec,
    agree_up_to_order,
    build_gallery,
    check_ellipticity,
    companion_matrix,
    dump_spec,
    from_document,
    homogeneous_component,
    load_spec,
    mode_symbol,
    read_spec,
    save_spec,
    selfadjoint_double,
    to_document,
)

__version__ = "0.1.0"
