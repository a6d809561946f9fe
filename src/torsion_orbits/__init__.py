"""Finite-order elements of classical matrix groups: catalogs of their
conjugacy classes, numerical checks of the linear-algebra identities behind
the class structure, and connecting curves inside a class.

Importing the package loads no submodule: each public name is imported
from its submodule on first use (PEP 562), so ``import
torsion_orbits.torsion`` loads only what the exact catalogs need.  Any
other attribute, a submodule included, is left to the import system.
"""

import importlib

__version__ = "0.1.0"

#: The submodule of each public name, in ``__all__`` order.
_SUBMODULE = {name: module for module, names in (
    ("groups", "GroupSpec UnsupportedGroupError adjoint_matrix algebra_basis "
               "algebra_coords algebra_matrix cartan_decompose element_order "
               "exp_element group_inverse membership_residual random_algebra "
               "random_element"),
    ("reports", "TrialRecord VerificationReport strip_wall_time"),
    ("torsion", "MAX_CLASSES CanonicalInvariant ComponentDescriptor "
                "TorusTorsionPoint canonicalize catalog_components "
                "class_count_bound class_table count_components "
                "gcd_intersection_check orbit_dimension torsion_point "
                "torsion_point_count torus_matrix"),
    ("alignment", "canonical_align matrix_invariant "
                  "nearest_torsion_approximant orientation_sign"),
    ("sweeps", "cluster_census sl2_component_census"),
    ("curves", "CurveSample DifferentComponentsError "
               "connect_within_component export_path_csv "
               "path_order_residuals"),
    ("surface", "circle_points export_points_csv sample_surface "
                "singular_locus_scan surface_gradient surface_value "
                "tangent_cone_bound_check"),
) for name in names.split()}

__all__ = [*_SUBMODULE, "__version__"]


def __getattr__(name):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
