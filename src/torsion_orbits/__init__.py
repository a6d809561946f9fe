"""Finite-order elements of classical matrix groups: catalogs of their
conjugacy classes, numerical checks of the linear-algebra identities behind
the class structure, and connecting curves inside a class."""

from .groups import (GroupSpec, UnsupportedGroupError, adjoint_matrix,
                     algebra_basis, algebra_coords, algebra_matrix,
                     cartan_decompose, element_order, exp_element,
                     group_inverse, membership_residual, random_algebra,
                     random_element)
from .reports import TrialRecord, VerificationReport, strip_wall_time
from .subspaces import (SubspaceBasis, image_basis, kernel_basis,
                        principal_angles, verify_kernel_image_identity,
                        verify_zero_intersection)
from .torsion import (MAX_CLASSES, CanonicalInvariant, ComponentDescriptor,
                      TorusTorsionPoint, canonical_align, canonicalize,
                      catalog_components, class_count_bound, class_table,
                      cluster_census, count_components, enumerate_torsion,
                      gcd_intersection_check, matrix_invariant,
                      nearest_torsion_approximant, orbit_dimension,
                      orientation_sign, sl2_component_census, torsion_point,
                      torsion_point_count, torus_matrix, write_catalog_csv,
                      write_catalog_json)
from .curves import (CurveSample, DifferentComponentsError,
                     conjugation_curve, connect_within_component,
                     curve_kernel_check, export_path_csv,
                     path_order_residuals, product_identity_check,
                     tangent_space_check)
from .surface import (SurfacePoint, circle_point, export_points_csv,
                      sample_surface, singular_locus_scan, surface_gradient,
                      surface_value, tangent_cone_bound_check)

__version__ = "0.1.0"

__all__ = [
    "GroupSpec", "UnsupportedGroupError", "adjoint_matrix", "algebra_basis",
    "algebra_coords", "algebra_matrix", "cartan_decompose", "element_order",
    "exp_element", "group_inverse", "membership_residual", "random_algebra",
    "random_element",
    "TrialRecord", "VerificationReport", "strip_wall_time",
    "SubspaceBasis", "image_basis", "kernel_basis", "principal_angles",
    "verify_kernel_image_identity", "verify_zero_intersection",
    "MAX_CLASSES", "CanonicalInvariant", "ComponentDescriptor",
    "TorusTorsionPoint", "canonical_align", "canonicalize",
    "catalog_components", "class_count_bound", "class_table",
    "cluster_census", "count_components", "enumerate_torsion",
    "gcd_intersection_check", "matrix_invariant",
    "nearest_torsion_approximant", "orbit_dimension", "orientation_sign",
    "sl2_component_census", "torsion_point", "torsion_point_count",
    "torus_matrix", "write_catalog_csv", "write_catalog_json",
    "CurveSample", "DifferentComponentsError", "conjugation_curve",
    "connect_within_component", "curve_kernel_check", "export_path_csv",
    "path_order_residuals", "product_identity_check", "tangent_space_check",
    "SurfacePoint", "circle_point", "export_points_csv", "sample_surface",
    "singular_locus_scan", "surface_gradient", "surface_value",
    "tangent_cone_bound_check",
    "__version__",
]
