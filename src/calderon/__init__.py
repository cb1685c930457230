"""Cauchy-data spaces, projectors and Grassmannian comparison for
constant-coefficient elliptic operators on flat model geometries.

Importing the package loads none of its modules: each public name below
imports its module on first use (PEP 562), so a ``calderon`` process
compiles only the modules its subcommand runs."""

from importlib import import_module

__version__ = "0.1.0"

_PUBLIC = {
    "contour": "Contour SpectralSplit characteristic_roots contour_quadrature enclosing_circle "
    "matrix_power riesz_projector spectral_split",
    "grassmann": "CompareReport GrassmannPoint IndexReport SchattenReport assemble_point "
    "chiral_point compare_points fredholm_index krichever_reference orthogonal_projector "
    "schatten_fit",
    "projector": "calderon_projector calderon_projector_stack entry_growth_fit jump_operator "
    "layer_potential_blocks",
    "symbols": "EllipticityReport ModeSymbol OperatorSpec agree_up_to_order build_gallery "
    "check_ellipticity companion_matrix dump_spec from_document load_spec mode_symbol "
    "read_spec save_spec selfadjoint_double to_document",
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names.split()}
_SUBMODULES = {"acceptance", "cli", "contour", "errors", "grassmann", "projector", "symbols"}


def __getattr__(name):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")  # the import binds it here
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF) | _SUBMODULES)
