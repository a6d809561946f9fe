"""One-element bodies of the stacked evaluators, kept as test oracles.

``groups.membership_residuals``, ``alignment._sl2_align_stack`` and the
stacked subspace checks take a whole stack at a time, and
``membership_residual``, ``_sl2_align``, ``orientation_sign`` and the
single-shot subspace verifiers are their one-element cases.  These are the
direct per-matrix statements they replaced, with
``scipy.linalg.subspace_angles`` for the principal angles.  They share no
code with the package, so a test that compares the two does not compare
the code with itself.

The last three are per-element forms built on the package's own
primitives: ``component_dimension``, the numeric adjoint rank that the
exact ``torsion.orbit_dimension`` is checked against, and
``random_torsion_point`` and ``random_torsion_element``, one draw at a
time in the order the stacked ``sweeps._torsion_draw`` takes it.
"""

import numpy as np
from scipy.linalg import subspace_angles

from torsion_orbits.groups import adjoint_matrix, group_inverse, random_element
from torsion_orbits.subspaces import TOL_RANK, image_basis
from torsion_orbits.torsion import _indexable_count, torsion_point


def membership_residual_oracle(spec, g):
    """Frobenius-scale distance from the defining group constraints, one
    matrix at a time: the max over the terms, or the first NaN term."""
    g = np.asarray(g)
    m = spec.size
    if g.shape != (m, m):
        return float("inf")
    eye = np.eye(m)
    gr = np.real(g)
    if spec.family in ("U", "SU"):
        terms = [np.linalg.norm(g.conj().T @ g - eye)]
        if spec.family == "SU":
            terms.append(abs(np.linalg.det(g) - 1.0))
    else:
        terms = [abs(np.linalg.det(gr) - 1.0),
                 np.linalg.norm(np.imag(g)) if np.iscomplexobj(g) else 0.0]
        if spec.family == "SO":
            terms.insert(0, np.linalg.norm(gr.T @ gr - eye))
    nans = [t for t in terms if t != t]
    return float(nans[0] if nans else max(terms))


def sl2_align_oracle(g):
    """(h, phase) with h in SL(2,R) and g = h R(2 pi phase) h^-1, for +-I
    and elliptic g; ValueError (LinAlgError for a non-finite g) otherwise."""
    g = np.asarray(g, dtype=float)
    eye = np.eye(2)
    if np.linalg.norm(g - eye) <= 1e-8:
        return eye.copy(), 0.0
    if np.linalg.norm(g + eye) <= 1e-8:
        return eye.copy(), 0.5
    tr = float(np.trace(g))
    if abs(tr) >= 2:
        raise ValueError("element is not elliptic or central; it has no "
                         "finite order in SL(2,R)")
    theta = float(np.arctan2(np.sqrt(max(0.0, 1 - tr * tr / 4)), tr / 2))
    mu = tr / 2 + 1j * np.sin(theta)
    _, _, Vt = np.linalg.svd(g.astype(complex) - mu * np.eye(2))
    v = Vt[-1].conj()
    x, y = v.real, v.imag
    delta = x[0] * y[1] - x[1] * y[0]
    if abs(delta) < 1e-12:
        raise ValueError("degenerate eigenvector; cannot align")
    if delta < 0:
        h = np.column_stack([y, x]) / np.sqrt(-delta)
        phase = theta / (2 * np.pi)
    else:
        h = np.column_stack([x, y]) / np.sqrt(delta)
        phase = 1.0 - theta / (2 * np.pi)
    return h, phase


def orientation_sign_oracle(g):
    """-1 for a rotation phase in (0, 1/2), +1 in (1/2, 1), 0 for +-I and
    for whatever ``sl2_align_oracle`` refuses."""
    try:
        _, phase = sl2_align_oracle(g)
    except ValueError:
        return 0
    if phase in (0.0, 0.5):
        return 0
    return -1 if phase < 0.5 else 1


def _subspace_svds(A, n):
    """S = I + A + ... + A^(n-1), the SVD of I - A and the SVD of S."""
    S = P = np.eye(len(A))
    for _ in range(n - 1):
        P = P @ A
        S = S + P
    return S, np.linalg.svd(np.eye(len(A)) - A), np.linalg.svd(S)


def _rank(s, tol):
    return int(np.sum(s > tol * max(1.0, float(s[0]))))


def kernel_image_oracle(A, n, tol_rank, tol_subspace):
    """(residuals, passed, details) of the kernel-image check on one
    adjoint matrix A, one subspace_angles call per matrix."""
    S, (U, s, _), (_, s_S, Vt_S) = _subspace_svds(A, n)
    im = U[:, :_rank(s, tol_rank)].copy()
    ker = Vt_S[_rank(s_S, tol_rank):].T.copy()
    if im.shape[1] != ker.shape[1]:
        passed, angle = False, np.pi / 2
    elif im.shape[1] == 0:
        passed, angle = True, 0.0
    else:
        angle = float(np.sort(subspace_angles(im, ker))[-1])
        passed = angle <= tol_subspace
    containment = 0.0
    if im.shape[1]:
        containment = float(np.max(np.linalg.norm(S @ im, axis=0)))
    return ({"principal_angle": angle, "containment": containment}, passed,
            {"image_dim": im.shape[1], "kernel_dim": ker.shape[1]})


def zero_intersection_oracle(A, n, tol_rank, angle_tol):
    """(residuals, passed, details) of the zero-intersection check on one
    adjoint matrix A, one subspace_angles call per matrix."""
    _, (_, s, Vt), (_, s_S, Vt_S) = _subspace_svds(A, n)
    fixed = Vt[_rank(s, tol_rank):].T.copy()
    ker = Vt_S[_rank(s_S, tol_rank):].T.copy()
    est, min_angle = 0, np.pi / 2
    if fixed.shape[1] and ker.shape[1]:
        angles = np.sort(subspace_angles(fixed, ker))
        est, min_angle = int(np.sum(angles < angle_tol)), float(angles[0])
    return ({"intersection_dim": float(est)}, est == 0,
            {"fixed_dim": fixed.shape[1], "kernel_dim": ker.shape[1],
             "min_principal_angle": min_angle})


def component_dimension(spec, g, tol_rank=TOL_RANK):
    """Dimension of the conjugation orbit of g: the numeric rank of
    I - Ad(g)."""
    A = adjoint_matrix(spec, g)
    return image_basis(np.eye(spec.dim) - A, tol_rank).dim


def random_torsion_point(spec, n, rng):
    """Uniform torus point killed by n, from one ``rng.integers`` draw over
    the point count."""
    return torsion_point(spec, n, int(rng.integers(_indexable_count(spec, n))))


def random_torsion_element(spec, n, rng):
    """Random conjugate of a random torsion point: (matrix, point)."""
    point = random_torsion_point(spec, n, rng)
    h = random_element(spec, rng)
    return h @ point.matrix() @ group_inverse(spec, h), point
