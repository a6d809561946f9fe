"""The package's public names: every entry of ``__all__`` resolves."""

import torsion_orbits

#: ``__all__`` as recorded, grouped by the submodule each name comes from.
PUBLIC_NAMES = (
    "GroupSpec", "UnsupportedGroupError", "adjoint_matrix", "algebra_basis",
    "algebra_coords", "algebra_matrix", "cartan_decompose", "element_order",
    "exp_element", "group_inverse", "membership_residual", "random_algebra",
    "random_element",
    "TrialRecord", "VerificationReport", "strip_wall_time",
    "MAX_CLASSES", "CanonicalInvariant", "ComponentDescriptor",
    "TorusTorsionPoint", "canonicalize", "catalog_components",
    "class_count_bound", "class_table", "count_components",
    "gcd_intersection_check", "orbit_dimension", "torsion_point",
    "torsion_point_count", "torus_matrix",
    "canonical_align", "matrix_invariant", "nearest_torsion_approximant",
    "orientation_sign",
    "cluster_census", "sl2_component_census",
    "CurveSample", "DifferentComponentsError", "connect_within_component",
    "export_path_csv", "path_order_residuals",
    "circle_points", "export_points_csv", "sample_surface",
    "singular_locus_scan", "surface_gradient", "surface_value",
    "tangent_cone_bound_check",
    "__version__",
)


def test_every_public_name_resolves():
    missing = [name for name in torsion_orbits.__all__
               if not hasattr(torsion_orbits, name)]
    assert missing == []


def test_public_names_are_listed_once():
    names = torsion_orbits.__all__
    assert len(names) == len(set(names))


def test_public_names_are_the_recorded_ones():
    assert tuple(torsion_orbits.__all__) == PUBLIC_NAMES


def test_a_public_name_is_its_submodule_object():
    from torsion_orbits import alignment, sweeps, torsion
    assert torsion_orbits.class_table is torsion.class_table
    assert torsion_orbits.matrix_invariant is alignment.matrix_invariant
    assert torsion_orbits.cluster_census is sweeps.cluster_census
    assert "class_table" in dir(torsion_orbits)
