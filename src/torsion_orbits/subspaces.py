"""SVD-backed subspace computations and the kernel/image verifiers.

Subspaces of R^d are stored as column-orthonormal matrices.  Rank decisions
use a relative threshold tol * sigma_max, with the kernel and image of one
matrix split by the same threshold so rank + nullity = d holds exactly.

``kernel_image_outcomes`` and ``zero_intersection_outcomes`` evaluate a
stack of group members, which they do not check for membership again;
``verify_kernel_image_identity`` and ``verify_zero_intersection`` are their
one-element cases, which refuse a non-member first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import time

import numpy as np
from scipy.linalg import subspace_angles

from .groups import TOL_MEMBERSHIP, GroupSpec, adjoint_stack, require_member
from .reports import fill_kept, single_trial_report

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


def _image_from_svd(U: np.ndarray, s: np.ndarray,
                    tol: float) -> SubspaceBasis:
    k = int(np.sum(s > _rank_cut(s, tol)))
    return SubspaceBasis(U.shape[0], U[:, :k].copy(), tol)


def _kernel_from_svd(s: np.ndarray, Vt: np.ndarray,
                     tol: float) -> SubspaceBasis:
    rank = int(np.sum(s > _rank_cut(s, tol)))
    return SubspaceBasis(Vt.shape[1], Vt[rank:].T.copy(), tol)


def image_basis(A: np.ndarray, tol: float = TOL_RANK) -> SubspaceBasis:
    """Orthonormal basis of the column span of A.

    Keeps the left singular vectors whose singular values exceed
    tol * max(1, sigma_max).  A numerically zero matrix yields the empty
    basis.
    """
    U, s, _ = np.linalg.svd(np.atleast_2d(np.asarray(A, dtype=float)))
    return _image_from_svd(U, s, tol)


def kernel_basis(A: np.ndarray, tol: float = TOL_RANK) -> SubspaceBasis:
    """Orthonormal basis of the null space of A (right singular vectors with
    singular value <= tol * max(1, sigma_max))."""
    _, s, Vt = np.linalg.svd(np.atleast_2d(np.asarray(A, dtype=float)))
    return _kernel_from_svd(s, Vt, tol)


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
    """I + A + ... + A^(n-1), for one matrix or each of a stack."""
    S = P = np.eye(A.shape[-1])
    for _ in range(n - 1):
        P = P @ A
        S = S + P
    return np.broadcast_to(S, A.shape)


def _one_member(spec: GroupSpec, g, n):
    """g as a one-element stack for the single-shot checkers, which raise
    for a non-member or a bad n."""
    g = require_member(spec, g)
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    return g[None]


def _torsion_outcomes(spec: GroupSpec, g: np.ndarray, n: int, evaluate,
                      note_suffix=""):
    """One outcome per slice of the stack g of group members: rejected where
    g^n = e fails beyond n * TOL_MEMBERSHIP, else the outcome that
    ``evaluate(keep)`` gives for that slice, ``keep`` being the indices of
    the slices that pass.  An outcome holds the TrialRecord fields
    ``residuals``, ``passed``, ``status`` and ``note``, and a check's
    ``details`` when it ran."""
    eye = spec.identity()
    return fill_kept(
        [np.linalg.norm(p - eye) <= n * TOL_MEMBERSHIP
         for p in np.linalg.matrix_power(g, n)], evaluate,
        lambda i: {"residuals": {}, "passed": False, "status": "rejected",
                   "note": f"precondition g^{n} = e fails{note_suffix}"})


def _outcome(residuals, passed, details):
    return {"residuals": residuals, "passed": bool(passed), "status": "ok",
            "note": "", "details": details}


def _outcome_report(check, inputs, outcome, config, t0, worst=None):
    """Single-trial report of one outcome; ``worst`` names the residual
    that is the report's worst residual (default: every residual)."""
    return single_trial_report(
        check, inputs, config=config, wall_time_s=time.perf_counter() - t0,
        worst_residual=outcome["residuals"].get(worst), **outcome)


#: Note suffix of a rejected subspace check.
_NOT_A_VERDICT = "; not a verdict on the identity"


def _subspace_outcomes(spec: GroupSpec, g: np.ndarray, n: int, check_slice):
    """``_torsion_outcomes`` of a subspace check: for the slices with
    g^n = e, one stacked adjoint, power sum S = I + Ad(g) + ... +
    Ad(g)^(n-1) and SVD each of I - Ad(g) and S, then
    ``check_slice(S, U, s, Vt, s_S, Vt_S)`` per slice."""
    def evaluate(keep):
        A = adjoint_stack(spec, g[keep])
        S = _adjoint_power_sum(A, n)
        U, s, Vt = np.linalg.svd(np.eye(spec.dim) - A)
        _, s_S, Vt_S = np.linalg.svd(S)
        return list(map(check_slice, S, U, s, Vt, s_S, Vt_S))

    return _torsion_outcomes(spec, g, n, evaluate, _NOT_A_VERDICT)


def kernel_image_outcomes(spec: GroupSpec, g: np.ndarray, n: int,
                          tol_rank: float = TOL_RANK,
                          tol_subspace: float = TOL_SUBSPACE):
    """Outcome of ``verify_kernel_image_identity`` for each slice of the
    stack g of group members."""
    def check_slice(S, U, s, Vt, s_S, Vt_S):
        im = _image_from_svd(U, s, tol_rank)
        ker = _kernel_from_svd(s_S, Vt_S, tol_rank)
        equal, angle = subspace_equal(im, ker, tol_subspace)
        containment = 0.0
        if im.dim:
            containment = float(np.max(np.linalg.norm(S @ im.vectors, axis=0)))
        return _outcome({"principal_angle": angle, "containment": containment},
                        equal, {"image_dim": im.dim, "kernel_dim": ker.dim})

    return _subspace_outcomes(spec, g, n, check_slice)


def zero_intersection_outcomes(spec: GroupSpec, g: np.ndarray, n: int,
                               tol_rank: float = TOL_RANK,
                               angle_tol: float = TOL_SUBSPACE):
    """Outcome of ``verify_zero_intersection`` for each slice of the stack g
    of group members."""
    def check_slice(S, U, s, Vt, s_S, Vt_S):
        fixed = _kernel_from_svd(s, Vt, tol_rank)
        ker = _kernel_from_svd(s_S, Vt_S, tol_rank)
        est, min_angle = intersection_dimension(fixed, ker, angle_tol)
        return _outcome({"intersection_dim": float(est)}, est == 0,
                        {"fixed_dim": fixed.dim, "kernel_dim": ker.dim,
                         "min_principal_angle": min_angle})

    return _subspace_outcomes(spec, g, n, check_slice)


def verify_kernel_image_identity(spec: GroupSpec, g: np.ndarray, n: int,
                                 tol_rank: float = TOL_RANK,
                                 tol_subspace: float = TOL_SUBSPACE):
    """Check ker(I + Ad(g) + ... + Ad(g)^(n-1)) = Im(I - Ad(g)) for g^n = e.

    Returns a VerificationReport carrying the subspace dimensions, the
    largest principal angle between the two subspaces, and the containment
    residual max_v ||Sum_i Ad(g)^i v|| over image basis vectors v.
    A precondition violation (g^n far from e) yields a rejected report.
    This is the one-element case of ``kernel_image_outcomes``.
    """
    t0 = time.perf_counter()
    config = {"check": "kernel-image", "tol_rank": tol_rank,
              "tol_subspace": tol_subspace, "tol_membership": TOL_MEMBERSHIP}
    outcome, = kernel_image_outcomes(spec, _one_member(spec, g, n), n,
                                     tol_rank, tol_subspace)
    return _outcome_report("kernel-image", {"group": spec.label(), "n": n},
                           outcome, config, t0, "principal_angle")


def verify_zero_intersection(spec: GroupSpec, g: np.ndarray, n: int,
                             tol_rank: float = TOL_RANK,
                             angle_tol: float = TOL_SUBSPACE):
    """Check ker(I - Ad(g)) cap ker(Sum_i Ad(g)^i) = {0} for g^n = e.

    The fixed space of Ad(g) is mapped to n times itself by the power sum, so
    the two kernels can only share the zero vector; the report records the
    estimated intersection dimension and the smallest principal angle.
    This is the one-element case of ``zero_intersection_outcomes``.
    """
    t0 = time.perf_counter()
    config = {"check": "zero-intersection", "tol_rank": tol_rank,
              "angle_tol": angle_tol, "tol_membership": TOL_MEMBERSHIP}
    outcome, = zero_intersection_outcomes(spec, _one_member(spec, g, n), n,
                                          tol_rank, angle_tol)
    return _outcome_report("zero-intersection",
                           {"group": spec.label(), "n": n}, outcome, config,
                           t0, "intersection_dim")
