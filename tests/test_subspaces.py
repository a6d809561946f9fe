"""Numerical subspaces and the stacked kernel/image identity checks.

Ranks of the structured matrices used here are integers with a wide spectral
margin, so an independent Gaussian-elimination oracle pins them exactly.
``scipy.linalg.subspace_angles`` is the oracle of the stacked principal-angle
kernel, which must reproduce it bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import subspace_angles

from phase_oracles import enumerate_torsion
from stack_oracles import (kernel_image_oracle, random_torsion_element,
                           zero_intersection_oracle)
from torsion_orbits.groups import (GroupSpec, adjoint_matrix, adjoint_stack,
                                   random_element)
from torsion_orbits.subspaces import (TOL_RANK, TOL_SUBSPACE,
                                      _adjoint_power_sum, _equal_stack,
                                      _intersection_stack, _kernels,
                                      _rank_counts, kernel_image_outcomes,
                                      principal_angles_stack,
                                      zero_intersection_outcomes)
from torsion_orbits.sweeps import COMPACT_SWEEP_SPECS


def gauss_rank(A, tol=1e-6):
    """Row-reduction rank with partial pivoting; no SVD involved."""
    M = np.array(A, dtype=float)
    rows, cols = M.shape
    rank = 0
    for c in range(cols):
        if rank == rows:
            break
        pivot = rank + int(np.argmax(np.abs(M[rank:, c])))
        if abs(M[pivot, c]) <= tol:
            continue
        M[[rank, pivot]] = M[[pivot, rank]]
        M[rank] = M[rank] / M[rank, c]
        for r in range(rows):
            if r != rank:
                M[r] = M[r] - M[r, c] * M[rank]
        rank += 1
    return rank


def rank(A, tol=TOL_RANK):
    """The package's rank decision on one matrix."""
    return int(_rank_counts(np.linalg.svd(A, compute_uv=False), tol))


def kernel(A, tol=TOL_RANK):
    """Orthonormal basis of the null space of A, as the stacked checks
    take it: the last right singular vectors, as columns."""
    _, s, Vt = np.linalg.svd(A[None])
    return _kernels(Vt, np.array([0]), len(A) - _rank_counts(s, tol)[0])[0]


def kernel_image(spec, g, n):
    """The kernel-image outcome of one element."""
    return kernel_image_outcomes(spec, g[None], n)[0]


def zero_intersection(spec, g, n):
    """The zero-intersection outcome of one element."""
    return zero_intersection_outcomes(spec, g[None], n)[0]


def conjugated_torsion(spec, phases_index, n, seed):
    point = enumerate_torsion(spec, n)[phases_index]
    h = random_element(spec, seed)
    if spec.is_complex:
        return h @ point.matrix() @ h.conj().T
    return h @ point.matrix() @ h.T


# --------------------------------------------------------------- rank basics

def test_image_threshold_semantics():
    A = np.diag([1.0, 1e-14, 0.0])
    assert rank(A, tol=1e-9) == 1
    assert kernel(A, tol=1e-9).shape == (3, 2)


def test_zero_matrix_conventions():
    Z = np.zeros((4, 4))
    assert rank(Z) == 0
    assert kernel(Z).shape == (4, 4)
    # numerically zero behaves like zero: no rescaling down to roundoff
    assert rank(Z + 1e-15) == 0


def test_rank_nullity_always_holds():
    rng = np.random.default_rng(2)
    for _ in range(50):
        d = int(rng.integers(1, 8))
        r = int(rng.integers(0, d + 1))
        A = (rng.standard_normal((d, r)) @ rng.standard_normal((r, d))
             if r else np.zeros((d, d)))
        assert rank(A) + kernel(A).shape[1] == d
        assert rank(A) == gauss_rank(A)


def test_basis_vectors_are_orthonormal():
    rng = np.random.default_rng(8)
    A = rng.standard_normal((6, 3)) @ rng.standard_normal((3, 6))
    V = kernel(A)
    assert V.shape == (6, 3)
    assert np.linalg.norm(V.T @ V - np.eye(3)) < 1e-12
    assert np.linalg.norm(A @ V) < 1e-12


# ----------------------------------------------------------- principal angles

def test_principal_angles_resolve_1e9():
    # two lines at an angle of exactly 1e-9 radians
    eps = 1e-9
    P = np.array([[1.0], [0.0]])
    Q = np.array([[np.cos(eps)], [np.sin(eps)]])
    ang = principal_angles_stack(P[None], Q[None])[0]
    assert abs(ang[0] - eps) < 1e-11


def _angle_pair(rng, kind, M, N, K):
    """(A, B) of shapes (M, N) and (M, K) of one of four kinds: generic;
    rank-deficient (A of lower rank, B with a repeated column);
    near-orthogonal (spans of orthogonal columns, cosines ~1e-16); or
    near-equal (B's span a 1e-10 perturbation of part of A's, the arcsin
    branch)."""
    if kind == "generic":
        return rng.standard_normal((M, N)), rng.standard_normal((M, K))
    if kind == "deficient":
        r = max(1, N - 1)
        A = rng.standard_normal((M, r)) @ rng.standard_normal((r, N))
        B = rng.standard_normal((M, K))
        B[:, -1] = 3.0 * B[:, 0]
        return A, B
    Q = np.linalg.qr(rng.standard_normal((M, M)))[0]
    if kind == "orthogonal":
        return (Q[:, :N] @ rng.standard_normal((N, N)),
                Q[:, N:N + K] @ rng.standard_normal((K, K)))
    B = Q[:, :K] @ rng.standard_normal((K, K))
    return Q[:, :N], B + 1e-10 * rng.standard_normal((M, K))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(["generic", "deficient", "orthogonal", "equal"]),
       st.integers(1, 25), st.integers(1, 25), st.integers(1, 25),
       st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_principal_angles_stack_is_scipy_bit_for_bit(kind, M, N, K, count,
                                                     seed):
    if kind == "orthogonal":
        M = max(M, 2)
        N = min(N, M - 1)
        K = min(K, M - N)
    elif kind == "equal":
        N = min(N, M)
        K = min(K, N)
    rng = np.random.default_rng(seed)
    pairs = [_angle_pair(rng, kind, M, N, K) for _ in range(count)]
    got = principal_angles_stack(np.stack([a for a, _ in pairs]),
                                 np.stack([b for _, b in pairs]))
    assert got.shape == (count, min(N, K))
    for row, (A, B) in zip(got, pairs):
        want = np.sort(subspace_angles(A, B))
        # rows are padded with NaN where the spans have lower rank
        assert np.array_equal(row[:len(want)], want)
        assert np.isnan(row[len(want):]).all()


def test_principal_angles_refuse_non_finite_input():
    A = np.eye(3)[:, :2]
    for bad in (np.nan, np.inf):
        B = A.copy()
        B[0, 0] = bad
        with pytest.raises(ValueError):
            subspace_angles(A, B)
        with pytest.raises(ValueError):
            principal_angles_stack(A[None], B[None])


def test_principal_angles_of_a_zero_span_are_empty_as_in_scipy():
    A, B = np.zeros((3, 2)), np.eye(3)[:, :2]
    assert subspace_angles(A, B).shape == (0,)
    assert np.isnan(principal_angles_stack(A[None], B[None])).all()


#: Trials of ``verify zero-intersection --trials 1500 --seed 113215257``
#: whose smallest principal angle, between a (3, 1) and a (3, 2) basis at
#: cosine ~1e-16, an evaluation on C-ordered orthonormal bases puts 1 ulp
#: off scipy's: the last bits of these angles depend on the memory layout
#: that BLAS receives.
LAYOUT_SENSITIVE_TRIALS = (177, 276, 372, 398, 551, 771, 827, 878, 884, 1037,
                           1073, 1344, 1463)


@pytest.mark.parametrize("trial", LAYOUT_SENSITIVE_TRIALS)
def test_zero_intersection_angle_near_pi_over_2_is_scipy_bit_for_bit(trial):
    rng = np.random.default_rng(113215257 + trial)
    spec = COMPACT_SWEEP_SPECS[int(rng.integers(len(COMPACT_SWEEP_SPECS)))]
    n = 1 + int(rng.integers(6))
    g, _ = random_torsion_element(spec, n, rng)
    A = adjoint_matrix(spec, g)
    fixed = kernel(np.eye(spec.dim) - A)
    ker = kernel(_adjoint_power_sum(A, n))
    assert (fixed.shape[1], ker.shape[1]) == (1, 2)
    want = float(np.sort(subspace_angles(fixed, ker))[0])
    assert abs(want - np.pi / 2) < 1e-15
    outcome = zero_intersection(spec, g, n)
    assert outcome["details"]["min_principal_angle"] == want


@pytest.mark.parametrize("spec,n", [(GroupSpec("U", 3), 6),
                                    (GroupSpec("SO", 4), 4),
                                    (GroupSpec("SU", 4), 6),
                                    (GroupSpec("U", 4), 12),
                                    (GroupSpec("SL2R", 2), 24)])
@pytest.mark.parametrize("tol_rank,tol_subspace", [(1e-9, 1e-7),
                                                   (1e-3, 1e-300)])
def test_stacked_subspace_checks_match_per_matrix_oracles(
        spec, n, tol_rank, tol_subspace):
    # a (spec, n) stack mixes classes of several image and kernel
    # dimensions; each slice's outcome is the per-matrix statement's, bit
    # for bit, whatever group of dimensions it is evaluated in
    rng = np.random.default_rng(12)
    g = np.stack([random_torsion_element(spec, n, rng)[0]
                  for _ in range(120)])
    A = adjoint_stack(spec, g)
    image = kernel_image_outcomes(spec, g, n, tol_rank, tol_subspace)
    zero = zero_intersection_outcomes(spec, g, n, tol_rank, tol_subspace)
    dims = set()
    for Ai, ki, zi in zip(A, image, zero):
        assert ki["status"] == zi["status"]
        if ki["status"] == "rejected":  # g^n = e fails (SL(2,R) only)
            continue
        residuals, passed, details = kernel_image_oracle(Ai, n, tol_rank,
                                                         tol_subspace)
        assert (ki["residuals"], ki["passed"], ki["details"]) == (
            residuals, passed, details)
        residuals, passed, details = zero_intersection_oracle(
            Ai, n, tol_rank, tol_subspace)
        assert (zi["residuals"], zi["passed"], zi["details"]) == (
            residuals, passed, details)
        dims.add(tuple(ki["details"].values()))
    assert len(dims) > 1


def test_subspace_equal_is_basis_independent():
    rng = np.random.default_rng(4)
    V = np.linalg.qr(rng.standard_normal((5, 2)))[0]
    R = np.linalg.qr(rng.standard_normal((2, 2)))[0]
    eq, res = _equal_stack(V[None], (V @ R)[None], TOL_SUBSPACE)
    assert eq[0] and res[0] < 1e-10


def test_subspace_equal_dimension_mismatch():
    P, Q = np.eye(3)[None, :, :1], np.eye(3)[None, :, :2]
    eq, res = _equal_stack(P, Q, TOL_SUBSPACE)
    assert not eq[0] and res[0] == pytest.approx(np.pi / 2)


def test_empty_subspaces_are_equal():
    P = Q = np.zeros((1, 3, 0))
    eq, res = _equal_stack(P, Q, TOL_SUBSPACE)
    assert (bool(eq[0]), float(res[0])) == (True, 0.0)
    dim, angle = _intersection_stack(P, Q, TOL_SUBSPACE)
    assert (int(dim[0]), float(angle[0])) == (0, pytest.approx(np.pi / 2))


def test_intersection_dimension_planes_in_3d():
    # two distinct planes in R^3 share a line
    P = np.eye(3)[None, :, :2]
    Q = np.stack([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]], axis=1)[None]
    dim, _ = _intersection_stack(P, Q, TOL_SUBSPACE)
    assert dim[0] == 1


# --------------------------------------------------- kernel/image identity

def test_kernel_image_identity_hand_checked_u2():
    # g = diag(1, -1), n = 2: Ad has eigenvalues {1, 1, -1, -1} on u(2), so
    # I - Ad and the averaged power sum I + Ad both have rank 2, and the
    # identity Im(I - Ad) = ker(I + Ad) is the (-1)-eigenspace.
    spec = GroupSpec("U", 2)
    g = np.diag([1.0 + 0j, -1.0 + 0j])
    A = adjoint_matrix(spec, g)
    assert gauss_rank(np.eye(4) - A) == 2
    assert gauss_rank(np.eye(4) + A) == 2
    outcome = kernel_image(spec, g, 2)
    assert outcome["passed"]
    assert outcome["details"]["image_dim"] == 2
    assert outcome["details"]["kernel_dim"] == 2
    assert outcome["residuals"]["principal_angle"] < 1e-8


def test_kernel_image_identity_identity_element():
    # g = e: both sides are the zero subspace
    spec = GroupSpec("SU", 2)
    outcome = kernel_image(spec, np.eye(2, dtype=complex), 1)
    assert outcome["passed"]
    assert outcome["details"]["image_dim"] == 0


def test_kernel_image_identity_rejects_non_torsion():
    spec = GroupSpec("SO", 2)
    th = 1.0  # irrational multiple of pi, g^4 far from I
    g = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    outcome = kernel_image(spec, g, 4)
    assert not outcome["passed"]
    assert outcome["status"] == "rejected"
    assert outcome["note"] == (
        "precondition g^4 = e fails; not a verdict on the identity")


@pytest.mark.parametrize("family,size", [("U", 2), ("U", 3), ("SU", 2),
                                         ("SU", 3), ("SO", 3), ("SO", 4)])
def test_kernel_image_identity_randomized(family, size):
    spec = GroupSpec(family, size)
    for n in (2, 3, 4):
        for idx in (0, len(enumerate_torsion(spec, n)) // 2):
            g = conjugated_torsion(spec, idx, n, seed=n * 7 + idx)
            outcome = kernel_image(spec, g, n)
            assert outcome["passed"], outcome
            assert outcome["residuals"]["principal_angle"] <= 1e-7


def test_kernel_image_dims_match_gauss_oracle():
    spec = GroupSpec("SU", 3)
    g = conjugated_torsion(spec, 3, 3, seed=0)
    A = adjoint_matrix(spec, g)
    S = sum(np.linalg.matrix_power(A, i) for i in range(3))
    details = kernel_image(spec, g, 3)["details"]
    assert details["image_dim"] == gauss_rank(np.eye(8) - A)
    assert details["kernel_dim"] == 8 - gauss_rank(S)


# ------------------------------------------------------- zero intersection

def test_zero_intersection_basic_and_rejected():
    spec = GroupSpec("U", 2)
    g = np.diag([1.0 + 0j, -1.0 + 0j])
    outcome = zero_intersection(spec, g, 2)
    assert outcome["passed"]
    assert outcome["residuals"]["intersection_dim"] == 0
    assert outcome["details"]["min_principal_angle"] > 0.1
    bad = zero_intersection(spec, np.diag([1j, 1j]), 3)
    assert not bad["passed"]
    assert bad["status"] == "rejected"
    assert bad["note"] == (
        "precondition g^3 = e fails; not a verdict on the identity")


@pytest.mark.parametrize("family,size", [("U", 2), ("SU", 3), ("SO", 4)])
def test_zero_intersection_randomized(family, size):
    spec = GroupSpec(family, size)
    for n in (2, 3, 4, 6):
        g = conjugated_torsion(spec, 1, n, seed=n)
        outcome = zero_intersection(spec, g, n)
        assert outcome["passed"], outcome
