"""Class counts and class reads against the low-rank isomorphisms.

``iso_oracles`` counts the classes of SO(3) and SO(4) from pairs of SU(2)
angles and builds SO(4) elements as x -> a x conj(b) on the quaternions,
with no code of the package, so these tests check the torus formulas and
the numeric class read of ``matrix_invariant`` from outside.
"""

from fractions import Fraction

import numpy as np
import pytest

from iso_oracles import (left_right_matrix, rotation, so3_class_count,
                         so4_class_count, unit_quaternion)
from torsion_orbits.alignment import matrix_invariant
from torsion_orbits.groups import GroupSpec
from torsion_orbits.torsion import (canonicalize, class_table,
                                    count_components, orbit_dimension)

SO2, SO3, SO4, U1 = (GroupSpec("SO", 2), GroupSpec("SO", 3),
                     GroupSpec("SO", 4), GroupSpec("U", 1))


@pytest.mark.parametrize("n", range(1, 61))
def test_so3_counts_are_su2_angles_modulo_sign(n):
    assert so3_class_count(n) == n // 2 + 1
    assert count_components(SO3, n) == so3_class_count(n)
    assert len(class_table(SO3, n)) == so3_class_count(n)


@pytest.mark.parametrize("n", range(1, 61))
def test_so4_counts_are_su2_angle_pairs_modulo_sign(n):
    assert count_components(SO4, n) == so4_class_count(n)


@pytest.mark.parametrize("n", [3, 5, 6, 8, 12, 24, 40])
def test_so4_quaternion_elements_read_back_their_predicted_class(n):
    # every pair (j, k) of the same parity, in both orders, on random
    # axes: the rotation angles of x -> a x conj(b) are pi (j - k) / n and
    # pi (j + k) / n, torus phases (j - k) / 2n and (j + k) / 2n
    rng = np.random.default_rng(n)
    classes = set()
    for j in range(n + 1):
        for k in range(j % 2, n + 1, 2):
            a = unit_quaternion(np.pi * j / n, rng.standard_normal(3))
            b = unit_quaternion(np.pi * k / n, rng.standard_normal(3))
            g = left_right_matrix(a, b)
            want = canonicalize(SO4, (Fraction(j - k, 2 * n),
                                      Fraction(j + k, 2 * n)))
            assert matrix_invariant(SO4, g, n) == want, (j, k)
            assert orbit_dimension(SO4, want) == (
                2 * (0 < j < n) + 2 * (0 < k < n)), (j, k)
            classes.add(want)
    assert len(classes) == count_components(SO4, n)


@pytest.mark.parametrize("n", range(1, 61))
def test_u1_and_so2_agree_under_the_circle_isomorphism(n):
    assert count_components(U1, n) == count_components(SO2, n) == n
    for k in range(n):
        z = np.array([[np.exp(2j * np.pi * k / n)]])
        assert (matrix_invariant(U1, z, n).phases
                == matrix_invariant(SO2, rotation(2 * np.pi * k / n),
                                    n).phases == (Fraction(k, n),))
