"""SVD-backed subspace computations and the kernel/image verifiers.

Subspaces of R^d are stored as column-orthonormal matrices.  Rank decisions
use a relative threshold tol * sigma_max, with the kernel and image of one
matrix split by the same threshold so rank + nullity = d holds exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import time

import numpy as np
from scipy.linalg import subspace_angles

from .groups import GroupSpec, adjoint_matrix, require_member
from .reports import single_trial_report

#: Relative singular-value threshold for rank decisions.
TOL_RANK = 1e-9

#: Two subspaces are reported equal when every principal angle is below this.
TOL_SUBSPACE = 1e-7


@dataclass
class SubspaceBasis:
    """Column-orthonormal basis of a subspace of R^(ambient_dim)."""

    ambient_dim: int
    vectors: np.ndarray  # shape (ambient_dim, k); k may be 0
    tol: float = TOL_RANK

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def _rank_cut(s: np.ndarray, tol: float) -> float:
    # Relative cut with an absolute floor: matrices here (adjoints and their
    # polynomials) live at norm O(1), so a sigma_max of 1e-16 means "zero up
    # to rounding", not "rescale the threshold down to 1e-25".
    top = float(s[0]) if s.size else 0.0
    return tol * max(1.0, top)


def image_basis(A: np.ndarray, tol: float = TOL_RANK) -> SubspaceBasis:
    """Orthonormal basis of the column span of A.

    Keeps the left singular vectors whose singular values exceed
    tol * max(1, sigma_max).  A numerically zero matrix yields the empty
    basis.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    d = A.shape[0]
    U, s, _ = np.linalg.svd(A)
    cut = _rank_cut(s, tol)
    k = int(np.sum(s > cut))
    return SubspaceBasis(d, U[:, :k].copy(), tol)


def kernel_basis(A: np.ndarray, tol: float = TOL_RANK) -> SubspaceBasis:
    """Orthonormal basis of the null space of A (right singular vectors with
    singular value <= tol * max(1, sigma_max))."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    d = A.shape[1]
    _, s, Vt = np.linalg.svd(A)
    cut = _rank_cut(s, tol)
    rank = int(np.sum(s > cut))
    return SubspaceBasis(d, Vt[rank:].T.copy(), tol)


def principal_angles(P: SubspaceBasis, Q: SubspaceBasis) -> np.ndarray:
    """Principal angles between two nonempty subspaces, ascending."""
    return np.sort(subspace_angles(P.vectors, Q.vectors))


def subspace_equal(P: SubspaceBasis, Q: SubspaceBasis,
                   tol: float = TOL_SUBSPACE) -> tuple[bool, float]:
    """(equal, residual): dims must match and the largest principal angle
    must stay below ``tol``.  Dimension mismatch reports residual pi/2."""
    if P.ambient_dim != Q.ambient_dim:
        raise ValueError("subspaces live in different ambient spaces")
    if P.dim != Q.dim:
        return False, np.pi / 2
    if P.dim == 0:
        return True, 0.0
    residual = float(principal_angles(P, Q)[-1])
    return residual <= tol, residual


def intersection_dimension(P: SubspaceBasis, Q: SubspaceBasis,
                           angle_tol: float = TOL_SUBSPACE) -> tuple[int, float]:
    """(estimated dim of intersection, smallest principal angle).

    The estimate counts principal angles below ``angle_tol``; the sine-based
    angle computation resolves angles down to ~1e-12, well under the
    threshold."""
    if P.dim == 0 or Q.dim == 0:
        return 0, np.pi / 2
    angles = principal_angles(P, Q)
    return int(np.sum(angles < angle_tol)), float(angles[0])


def _adjoint_power_sum(A: np.ndarray, n: int) -> np.ndarray:
    S = np.eye(A.shape[0])
    P = np.eye(A.shape[0])
    for _ in range(n - 1):
        P = P @ A
        S = S + P
    return S


def _finite_order_inputs(spec: GroupSpec, g, n, tol_membership, check,
                         inputs, config, t0, note_suffix=""):
    """(g, None) when g is a member with g^n = e up to n * tol_membership;
    (g, rejected single-trial report of ``check``) when g^n = e fails."""
    g = require_member(spec, g, tol_membership)
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    power = np.linalg.matrix_power(g, n)
    if np.linalg.norm(power - spec.identity()) <= n * tol_membership:
        return g, None
    return g, single_trial_report(
        check, inputs, {}, passed=False, status="rejected",
        note=f"precondition g^{n} = e fails{note_suffix}", config=config,
        wall_time_s=time.perf_counter() - t0)


#: Note suffix of a rejected subspace check.
_NOT_A_VERDICT = "; not a verdict on the identity"


def verify_kernel_image_identity(spec: GroupSpec, g: np.ndarray, n: int,
                                 tol_rank: float = TOL_RANK,
                                 tol_subspace: float = TOL_SUBSPACE,
                                 tol_membership: float = 1e-9):
    """Check ker(I + Ad(g) + ... + Ad(g)^(n-1)) = Im(I - Ad(g)) for g^n = e.

    Returns a VerificationReport carrying the subspace dimensions, the
    largest principal angle between the two subspaces, and the containment
    residual max_v ||Sum_i Ad(g)^i v|| over image basis vectors v.
    A precondition violation (g^n far from e) yields a rejected report.
    """
    t0 = time.perf_counter()
    inputs = {"group": spec.label(), "n": n}
    config = {"check": "kernel-image", "tol_rank": tol_rank,
              "tol_subspace": tol_subspace, "tol_membership": tol_membership}
    g, rejected = _finite_order_inputs(spec, g, n, tol_membership,
                                       "kernel-image", inputs, config, t0,
                                       _NOT_A_VERDICT)
    if rejected is not None:
        return rejected
    A = adjoint_matrix(spec, g)
    S = _adjoint_power_sum(A, n)
    im = image_basis(np.eye(spec.dim) - A, tol_rank)
    ker = kernel_basis(S, tol_rank)
    equal, angle = subspace_equal(im, ker, tol_subspace)
    containment = 0.0
    if im.dim:
        containment = float(np.max(np.linalg.norm(S @ im.vectors, axis=0)))
    residuals = {"principal_angle": angle, "containment": containment}
    details = {"image_dim": im.dim, "kernel_dim": ker.dim}
    return single_trial_report(
        "kernel-image", inputs, residuals, passed=bool(equal), config=config,
        details=details, wall_time_s=time.perf_counter() - t0,
        worst_residual=angle)


def verify_zero_intersection(spec: GroupSpec, g: np.ndarray, n: int,
                             tol_rank: float = TOL_RANK,
                             angle_tol: float = TOL_SUBSPACE,
                             tol_membership: float = 1e-9):
    """Check ker(I - Ad(g)) cap ker(Sum_i Ad(g)^i) = {0} for g^n = e.

    The fixed space of Ad(g) is mapped to n times itself by the power sum, so
    the two kernels can only share the zero vector; the report records the
    estimated intersection dimension and the smallest principal angle.
    """
    t0 = time.perf_counter()
    inputs = {"group": spec.label(), "n": n}
    config = {"check": "zero-intersection", "tol_rank": tol_rank,
              "angle_tol": angle_tol, "tol_membership": tol_membership}
    g, rejected = _finite_order_inputs(spec, g, n, tol_membership,
                                       "zero-intersection", inputs, config, t0,
                                       _NOT_A_VERDICT)
    if rejected is not None:
        return rejected
    A = adjoint_matrix(spec, g)
    S = _adjoint_power_sum(A, n)
    fixed = kernel_basis(np.eye(spec.dim) - A, tol_rank)
    ker = kernel_basis(S, tol_rank)
    est, min_angle = intersection_dimension(fixed, ker, angle_tol)
    residuals = {"intersection_dim": float(est)}
    details = {"fixed_dim": fixed.dim, "kernel_dim": ker.dim,
               "min_principal_angle": min_angle}
    return single_trial_report(
        "zero-intersection", inputs, residuals, passed=(est == 0),
        config=config, details=details,
        wall_time_s=time.perf_counter() - t0, worst_residual=float(est))
