"""SVD-backed subspace computations and the kernel/image verifiers.

Subspaces of R^d are stored as column-orthonormal matrices.  Rank decisions
use a relative threshold tol * sigma_max, with the kernel and image of one
matrix split by the same threshold so rank + nullity = d holds exactly.

Principal angles come from ``principal_angles_stack``, a numpy transcription
of ``scipy.linalg.subspace_angles`` (Knyazev & Argentati, SIAM J. Sci.
Comput. 23, 2002) over a whole stack of pairs, which reproduces scipy's
angles bit for bit; ``principal_angles`` is its one-element case.

``kernel_image_outcomes`` and ``zero_intersection_outcomes`` evaluate a
stack of group members, which they do not check for membership again;
``verify_kernel_image_identity`` and ``verify_zero_intersection`` are their
one-element cases, which refuse a non-member first.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass

import numpy as np

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


def _rank_counts(s: np.ndarray, tol: float) -> np.ndarray:
    """Rank of each matrix of a stack from its descending singular values
    (last axis): the count above tol * max(1, sigma_max)."""
    # Relative cut with an absolute floor: matrices here (adjoints and their
    # polynomials) live at norm O(1), so a sigma_max of 1e-16 means "zero up
    # to rounding", not "rescale the threshold down to 1e-25".  The where
    # keeps Python max's order: a NaN sigma_max gives the floor.
    top = s[..., 0] if s.shape[-1] else np.zeros(s.shape[:-1])
    cut = tol * np.where(top > 1.0, top, 1.0)
    return np.sum(s > cut[..., None], axis=-1)


def image_basis(A: np.ndarray, tol: float = TOL_RANK) -> SubspaceBasis:
    """Orthonormal basis of the column span of A.

    Keeps the left singular vectors whose singular values exceed
    tol * max(1, sigma_max).  A numerically zero matrix yields the empty
    basis.
    """
    U, s, _ = np.linalg.svd(np.atleast_2d(np.asarray(A, dtype=float)))
    k = _rank_counts(s, tol)
    return SubspaceBasis(U.shape[0], U[:, :k].copy(), tol)


def kernel_basis(A: np.ndarray, tol: float = TOL_RANK) -> SubspaceBasis:
    """Orthonormal basis of the null space of A (right singular vectors with
    singular value <= tol * max(1, sigma_max))."""
    _, s, Vt = np.linalg.svd(np.atleast_2d(np.asarray(A, dtype=float)))
    rank = _rank_counts(s, tol)
    return SubspaceBasis(Vt.shape[1], Vt[rank:].T.copy(), tol)


def _dim_groups(a: np.ndarray, b: np.ndarray):
    """((a_i, b_i), rows) for each distinct pair of the int stacks a, b, rows
    being the indices where it occurs."""
    for key in set(zip(a.tolist(), b.tolist())):
        yield key, np.flatnonzero((a == key[0]) & (b == key[1]))


def _orth_transposed(A: np.ndarray):
    """(Q^T, rank) for each slice of the stack A: ``scipy.linalg.orth``'s
    SVD and cut eps * max(M, N) * sigma_max, with Q^T C-contiguous, so that
    each slice of its ``swapaxes`` view is Fortran-ordered like the U that
    scipy's LAPACK returns."""
    u, s, _ = np.linalg.svd(A, full_matrices=False)
    rcond = np.finfo(float).eps * max(A.shape[-2:])
    rank = np.sum(s > (s.max(axis=-1, initial=0.0) * rcond)[:, None], axis=-1)
    return np.ascontiguousarray(u.swapaxes(-1, -2)), rank


def principal_angles_stack(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Principal angles between the column spans of A[i] and B[i], for
    stacks A of shape (G, M, N) and B of shape (G, M, K).

    Row i holds ``np.sort(scipy.linalg.subspace_angles(A[i], B[i]))`` bit
    for bit, padded at the end with NaN up to min(N, K) where the spans have
    lower rank.  The last bits depend on the memory layout that BLAS
    receives, so each orthonormal basis is multiplied as a Fortran-ordered
    slice, the layout in which scipy's LAPACK returns it; C-ordered slices
    miss scipy by an ulp near pi/2.  Non-finite input raises ValueError, as
    scipy does.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if not (np.isfinite(A).all() and np.isfinite(B).all()):
        raise ValueError("array must not contain infs or NaNs")
    QAt, rank_a = _orth_transposed(A)
    QBt, rank_b = _orth_transposed(B)
    angles = np.full((A.shape[0], min(A.shape[-1], B.shape[-1])), np.nan)
    for (a, b), rows in _dim_groups(rank_a, rank_b):
        qat, qbt = QAt[rows, :a], QBt[rows, :b]
        qa, qb = qat.swapaxes(1, 2), qbt.swapaxes(1, 2)
        C = qat @ qb
        sigma = np.linalg.svd(C, compute_uv=False)
        # scipy's step 3: the residual of the wider basis's projection
        R = qb - qa @ C if a >= b else qa - qb @ C.swapaxes(1, 2)
        use_sin = sigma ** 2 >= 0.5
        mu = np.zeros_like(sigma)
        some = use_sin.any(axis=1)
        if some.any():
            mu[some] = np.arcsin(np.clip(
                np.linalg.svd(R[some], compute_uv=False), -1., 1.))
        theta = np.where(use_sin, mu,
                         np.arccos(np.clip(sigma[:, ::-1], -1., 1.)))
        angles[rows, :theta.shape[1]] = np.sort(theta, axis=1)
    return angles


def principal_angles(P: SubspaceBasis, Q: SubspaceBasis) -> np.ndarray:
    """Principal angles between two nonempty subspaces, ascending; the
    one-element case of ``principal_angles_stack``."""
    angles = principal_angles_stack(P.vectors[None], Q.vectors[None])[0]
    return angles[~np.isnan(angles)]


def _equal_stack(P: np.ndarray, Q: np.ndarray, tol: float):
    """(equal, residual) of ``subspace_equal`` for each pair of the stacks
    P of shape (G, d, a) and Q of shape (G, d, b) of bases."""
    if P.shape[-1] != Q.shape[-1]:
        return np.zeros(len(P), bool), np.full(len(P), np.pi / 2)
    if P.shape[-1] == 0:
        return np.ones(len(P), bool), np.zeros(len(P))
    residual = np.nanmax(principal_angles_stack(P, Q), axis=1)
    return residual <= tol, residual


def subspace_equal(P: SubspaceBasis, Q: SubspaceBasis,
                   tol: float = TOL_SUBSPACE) -> tuple[bool, float]:
    """(equal, residual): dims must match and the largest principal angle
    must stay below ``tol``.  Dimension mismatch reports residual pi/2."""
    if P.ambient_dim != Q.ambient_dim:
        raise ValueError("subspaces live in different ambient spaces")
    equal, residual = _equal_stack(P.vectors[None], Q.vectors[None], tol)
    return bool(equal[0]), float(residual[0])


def _intersection_stack(P: np.ndarray, Q: np.ndarray, angle_tol: float):
    """(estimate, smallest angle) of ``intersection_dimension`` for each
    pair of the stacks P of shape (G, d, a) and Q of shape (G, d, b) of
    bases."""
    if P.shape[-1] == 0 or Q.shape[-1] == 0:
        return np.zeros(len(P), int), np.full(len(P), np.pi / 2)
    angles = principal_angles_stack(P, Q)
    return np.sum(angles < angle_tol, axis=1), angles[:, 0]


def intersection_dimension(P: SubspaceBasis, Q: SubspaceBasis,
                           angle_tol: float = TOL_SUBSPACE) -> tuple[int, float]:
    """(estimated dim of intersection, smallest principal angle).

    The estimate counts principal angles below ``angle_tol``; the sine-based
    angle computation resolves angles down to ~1e-12, well under the
    threshold."""
    est, angle = _intersection_stack(P.vectors[None], Q.vectors[None],
                                     angle_tol)
    return int(est[0]), float(angle[0])


def _adjoint_power_sum(A: np.ndarray, n: int) -> np.ndarray:
    """I + A + ... + A^(n-1), for one matrix or each of a stack."""
    S = P = np.eye(A.shape[-1])
    for _ in range(n - 1):
        P = P @ A
        S = S + P
    return np.broadcast_to(S, A.shape)


def _one_member(spec: GroupSpec, g, n):
    """(g as a one-element stack, n as an int) for the single-shot
    checkers, which raise for a non-member or a bad n.  n is any integer
    (numpy's too, through ``operator.index``) but a bool."""
    g = require_member(spec, g)
    try:
        order = operator.index(n)
    except TypeError:
        order = 0
    if isinstance(n, bool) or order < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    return g[None], order


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


def _subspace_outcomes(spec: GroupSpec, g: np.ndarray, n: int, check):
    """``_torsion_outcomes`` of a subspace check: for the slices with
    g^n = e, one stacked adjoint, power sum S = I + Ad(g) + ... +
    Ad(g)^(n-1) and SVD each of I - Ad(g) and S, then the list of outcomes
    ``check(S, U, s, Vt, s_S, Vt_S)`` of the stack."""
    def evaluate(keep):
        A = adjoint_stack(spec, g[keep])
        S = _adjoint_power_sum(A, n)
        U, s, Vt = np.linalg.svd(np.eye(spec.dim) - A)
        _, s_S, Vt_S = np.linalg.svd(S)
        return check(S, U, s, Vt, s_S, Vt_S)

    return _torsion_outcomes(spec, g, n, evaluate, _NOT_A_VERDICT)


def _kernels(Vt: np.ndarray, rows: np.ndarray, k: int) -> np.ndarray:
    """Stacked bases of the k-dimensional kernels of the matrices whose
    right singular vectors are Vt[rows]: their last k rows, as columns."""
    return Vt[rows, Vt.shape[-1] - k:].swapaxes(1, 2)


def kernel_image_outcomes(spec: GroupSpec, g: np.ndarray, n: int,
                          tol_rank: float = TOL_RANK,
                          tol_subspace: float = TOL_SUBSPACE):
    """Outcome of ``verify_kernel_image_identity`` for each slice of the
    stack g of group members, taken once per group of slices with the same
    image and kernel dimensions."""
    def check(S, U, s, Vt, s_S, Vt_S):
        im_dim = _rank_counts(s, tol_rank)
        ker_dim = spec.dim - _rank_counts(s_S, tol_rank)
        equal = np.zeros(len(s), bool)
        angle, containment = np.zeros(len(s)), np.zeros(len(s))
        for (a, b), rows in _dim_groups(im_dim, ker_dim):
            im = U[rows, :, :a]
            equal[rows], angle[rows] = _equal_stack(
                im, _kernels(Vt_S, rows, b), tol_subspace)
            if a:
                containment[rows] = np.linalg.norm(S[rows] @ im,
                                                   axis=1).max(1)
        return [_outcome({"principal_angle": p, "containment": c}, e,
                         {"image_dim": i, "kernel_dim": k})
                for p, c, e, i, k in zip(angle.tolist(), containment.tolist(),
                                         equal.tolist(), im_dim.tolist(),
                                         ker_dim.tolist())]

    return _subspace_outcomes(spec, g, n, check)


def zero_intersection_outcomes(spec: GroupSpec, g: np.ndarray, n: int,
                               tol_rank: float = TOL_RANK,
                               angle_tol: float = TOL_SUBSPACE):
    """Outcome of ``verify_zero_intersection`` for each slice of the stack g
    of group members, taken once per group of slices with the same fixed
    space and kernel dimensions."""
    def check(S, U, s, Vt, s_S, Vt_S):
        fixed_dim = spec.dim - _rank_counts(s, tol_rank)
        ker_dim = spec.dim - _rank_counts(s_S, tol_rank)
        est, min_angle = np.zeros(len(s), int), np.zeros(len(s))
        for (a, b), rows in _dim_groups(fixed_dim, ker_dim):
            est[rows], min_angle[rows] = _intersection_stack(
                _kernels(Vt, rows, a), _kernels(Vt_S, rows, b), angle_tol)
        return [_outcome({"intersection_dim": float(e)}, e == 0,
                         {"fixed_dim": f, "kernel_dim": k,
                          "min_principal_angle": m})
                for e, f, k, m in zip(est.tolist(), fixed_dim.tolist(),
                                      ker_dim.tolist(), min_angle.tolist())]

    return _subspace_outcomes(spec, g, n, check)


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
    stack, n = _one_member(spec, g, n)
    outcome, = kernel_image_outcomes(spec, stack, n, tol_rank, tol_subspace)
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
    stack, n = _one_member(spec, g, n)
    outcome, = zero_intersection_outcomes(spec, stack, n, tol_rank, angle_tol)
    return _outcome_report("zero-intersection",
                           {"group": spec.label(), "n": n}, outcome, config,
                           t0, "intersection_dim")
