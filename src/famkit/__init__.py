"""famkit: finitely additive measures on finite fields of sets, made executable.

Exact-rational construction, classification and extension of finitely
additive measures; generalized Darboux integration over finite algebras and
half-open boxes; Jordan measurability; Cantor-space integrability
diagnostics.  See the README for the CLI and problem-file formats.

The public names below resolve on first access (PEP 562): ``import famkit``
loads no solver module, and ``famkit.extend_assignment`` imports only
``famkit.extend`` and what it needs.
"""

import sys
import types
from importlib import import_module

__version__ = "0.1.0"

# the defining submodule of each public name
_EXPORTS = {
    "_refine": ("backend_name",),
    "approx": ("FiniteApprox", "approx_uniform", "approx_uniform_small", "approx_with_integrals", "uap_witness"),
    "boolalg": ("Algebra", "GroundSet", "Partition", "SetElem", "ceil_in", "contains", "floor_in",
                "generate_algebra", "is_refinement", "meet_partitions"),
    "boxes": ("BoxElem", "VolumeFam", "make_box"),
    "cantor": ("CantorClopen", "Cylinder", "cantor_integrate", "clopen_measure", "iota2_image",
               "lebesgue_vitali_check", "oscillation_cover"),
    "errors": ("FamkitError", "InputError"),
    "extend": ("Certificate", "ExtensionResult", "PartialAssignment", "amalgamate", "compatible",
               "extend_assignment", "extend_one", "extend_preserving_range", "extend_with_filter",
               "extension_bounds", "fam_with_constraints", "fam_with_integral_constraints",
               "three_way_extend", "ultrafilter_with_limits", "value_range"),
    "fam": ("Fam", "SupportWitness", "classify", "filter_fam", "has_uap", "point_mass", "pushforward",
            "restrict", "uniform_fam", "uniformly_supported"),
    "functions": ("DenseCodenseRegion", "HalfPlaneRegion", "IndicatorFn", "LipschitzFn",
                  "PiecewiseConstantFn", "PointRegion", "PolynomialFn", "RegionComplement",
                  "RegionIntersection", "RegionUnion", "triangle_under_diagonal"),
    "integrate": ("IntegralReport", "JordanReport", "infsum", "integrate", "integrate_over",
                  "integrate_simple", "inner_measure", "is_jordan", "jordan_completion",
                  "measure_bracket", "oscillation", "outer_measure", "pushforward_integral_check",
                  "supsum", "ultrafilter_integrate", "xi_star_converges"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
# the submodules that are public names too, as they were when this package
# imported them all; ``integrate`` is the function, not its module
_SUBMODULES = ("approx", "boolalg", "boxes", "cantor", "errors", "extend", "fam", "functions",
               "lattice", "simplex")

__all__ = [*_MODULE_OF, *_SUBMODULES, "__version__"]


def __getattr__(name):
    if name in _MODULE_OF:
        value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        # importing a submodule binds it on its package; where a public name
        # of another submodule has that name (``famkit.integrate``, the
        # function), the name keeps its value
        if name in _MODULE_OF and isinstance(value, types.ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
