"""Class counts and elements of SO(3), SO(4) and SO(2) built through the
low-rank isomorphisms, as test oracles.

    SO(3) = SU(2)/{+-1},  SO(4) = (SU(2) x SU(2))/{+-(1, 1)},  SO(2) = U(1).

An element of SU(2) is a unit quaternion cos(phi) + sin(phi) u, u a unit
imaginary quaternion; its class is the angle phi in [0, pi], and it
satisfies a^n = +-1 exactly when phi = pi j / n, with sign (-1)^j.  A pair
(a, b) acts on the quaternions H = R^4 by x -> a x conj(b), a rotation by
the angles phi_a - phi_b and phi_a + phi_b in two orthogonal planes.  So
the counts and torus phases below come from pairs of SU(2) angles, not
from the torus formulas of the package, and this module imports nothing
from it.
"""

import numpy as np


def so3_class_count(n):
    """Classes of SO(3) elements with g^n = e: SU(2) angles pi j / n,
    0 <= j <= n (a^n = +-1), modulo a ~ -a, which sends j to n - j."""
    return len({min(j, n - j) for j in range(n + 1)})


def so4_class_count(n):
    """Classes of SO(4) elements with g^n = e: pairs of SU(2) angles
    pi j / n and pi k / n with a^n = b^n, that is j = k (mod 2), modulo
    (a, b) ~ (-a, -b), which sends (j, k) to (n - j, n - k)."""
    return len({min((j, k), (n - j, n - k))
                for j in range(n + 1) for k in range(j % 2, n + 1, 2)})


def quaternion_product(p, q):
    """p q for quaternions stored as (w, x, y, z) on the last axis."""
    pw, px, py, pz = np.moveaxis(p, -1, 0)
    qw, qx, qy, qz = np.moveaxis(q, -1, 0)
    return np.stack([pw * qw - px * qx - py * qy - pz * qz,
                     pw * qx + px * qw + py * qz - pz * qy,
                     pw * qy - px * qz + py * qw + pz * qx,
                     pw * qz + px * qy - py * qx + pz * qw], axis=-1)


def unit_quaternion(phi, axis):
    """cos(phi) + sin(phi) u for the unit imaginary u along ``axis``."""
    u = np.asarray(axis, dtype=float)
    return np.concatenate([[np.cos(phi)], np.sin(phi) * u / np.linalg.norm(u)])


def left_right_matrix(a, b):
    """The 4x4 matrix of x -> a x conj(b) on H in the basis 1, i, j, k."""
    conj_b = np.asarray(b, dtype=float) * [1.0, -1.0, -1.0, -1.0]
    return quaternion_product(quaternion_product(a, np.eye(4)), conj_b).T


def rotation(theta):
    """The image of e^(i theta) in SO(2)."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])
