"""Matrix realizations of U(m), SU(m), SO(m) (m <= 5) and SL(2,R).

Group elements are plain ndarrays (complex for U/SU, real for SO/SL2R)
accompanied by a :class:`GroupSpec`.  Lie algebra elements are coordinate
vectors with respect to a fixed orthonormal basis of the algebra; the inner
product throughout is <X, Y> = Re tr(X* Y), which is Ad-invariant on the
compact families.

Membership residuals, adjoints and random elements are computed for a
stack of matrices at a time (``membership_residuals``, ``adjoint_stack``,
``elements_from_draws``); ``membership_residual``, ``adjoint_matrix`` and
``random_element`` are their one-element cases, bit for bit.  The
per-matrix membership body lives on in ``tests/stack_oracles.py`` as the
oracle the stack is checked against.

``membership_error`` is the one membership decision: the only code that
compares a membership residual with ``TOL_MEMBERSHIP``.  ``require_member``,
``require_residual`` and ``reports.members_only`` reach it; the stacked
evaluators (``adjoint_stack`` and those built on it) take group members and
do not check them again.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

FAMILIES = ("U", "SU", "SO", "SL2R")

#: Frobenius tolerance for membership checks.
TOL_MEMBERSHIP = 1e-9

#: Largest supported matrix size for the compact families.
MAX_SIZE = 5


class UnsupportedGroupError(ValueError):
    """A family/size combination outside the supported range."""


def positive_int(value, name: str) -> int:
    """``value`` as a Python int: any integer (numpy's too, through
    ``operator.index``) that is >= 1, but not a bool."""
    try:
        number = operator.index(value)
    except TypeError:
        number = 0
    if isinstance(value, bool) or number < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return number


@dataclass(frozen=True)
class GroupSpec:
    """Family tag plus matrix size.  ``SL2R`` forces size 2."""

    family: str
    size: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise UnsupportedGroupError(f"unknown family {self.family!r}")
        object.__setattr__(self, "size", positive_int(self.size, "size"))
        if self.family == "SL2R":
            if self.size != 2:
                raise UnsupportedGroupError("SL2R is only realized on 2x2 matrices")
        else:
            lo = 2 if self.family in ("SU", "SO") else 1
            if self.size < lo or self.size > MAX_SIZE:
                raise UnsupportedGroupError(
                    f"{self.family}({self.size}) is out of the supported range "
                    f"{lo}..{MAX_SIZE}")

    @property
    def is_complex(self) -> bool:
        return self.family in ("U", "SU")

    @property
    def dim(self) -> int:
        """Real dimension of the Lie algebra."""
        m = self.size
        if self.family == "U":
            return m * m
        if self.family == "SU":
            return m * m - 1
        if self.family == "SO":
            return m * (m - 1) // 2
        return 3

    @property
    def rank(self) -> int:
        """Dimension of a maximal torus."""
        m = self.size
        if self.family == "U":
            return m
        if self.family == "SU":
            return m - 1
        if self.family == "SO":
            return m // 2
        return 1

    @property
    def eigenphase_count(self) -> int:
        # Number of unit-circle eigenphases moved when perturbing along the
        # torus: every eigenvalue for U/SU, both members of each rotation
        # pair for SO, the single rotation pair for SL2R.
        if self.family == "SO":
            return 2 * self.rank
        if self.family == "SL2R":
            return 2
        return self.size

    def identity(self) -> np.ndarray:
        dtype = complex if self.is_complex else float
        return np.eye(self.size, dtype=dtype)

    def label(self) -> str:
        return "SL(2,R)" if self.family == "SL2R" else f"{self.family}({self.size})"


class AlgebraBasis:
    """Fixed orthonormal basis of the Lie algebra of ``spec``.

    ``matrices`` has shape (d, m, m); ``gram`` is the matrix of pairwise
    inner products (the identity, up to roundoff, by construction).
    """

    def __init__(self, spec: GroupSpec, matrices: np.ndarray):
        self.spec = spec
        self.matrices = matrices
        d = matrices.shape[0]
        flat = matrices.reshape(d, -1)
        self.gram = np.real(flat.conj() @ flat.T)

    def __len__(self):
        return self.matrices.shape[0]


def _su_diagonal_directions(m: int) -> list[np.ndarray]:
    # Orthonormal basis of the traceless real diagonals: the l-th vector has
    # l ones followed by -l, scaled by 1/sqrt(l(l+1)).
    out = []
    for l in range(1, m):
        v = np.zeros(m)
        v[:l] = 1.0
        v[l] = -l
        out.append(v / np.sqrt(l * (l + 1)))
    return out


@lru_cache(maxsize=None)
def algebra_basis(spec: GroupSpec) -> AlgebraBasis:
    """Orthonormal basis (w.r.t. Re tr(X* Y)) of the Lie algebra."""
    m = spec.size
    mats = []
    if spec.family in ("U", "SU"):
        if spec.family == "U":
            for j in range(m):
                B = np.zeros((m, m), dtype=complex)
                B[j, j] = 1j
                mats.append(B)
        else:
            for v in _su_diagonal_directions(m):
                mats.append(np.diag(1j * v))
        for j in range(m):
            for k in range(j + 1, m):
                A = np.zeros((m, m), dtype=complex)
                A[j, k], A[k, j] = 1.0, -1.0
                mats.append(A / np.sqrt(2))
                S = np.zeros((m, m), dtype=complex)
                S[j, k], S[k, j] = 1j, 1j
                mats.append(S / np.sqrt(2))
    elif spec.family == "SO":
        for j in range(m):
            for k in range(j + 1, m):
                A = np.zeros((m, m))
                A[j, k], A[k, j] = 1.0, -1.0
                mats.append(A / np.sqrt(2))
    else:  # sl(2,R): traceless real
        mats.append(np.diag([1.0, -1.0]) / np.sqrt(2))
        mats.append(np.array([[0.0, 1.0], [1.0, 0.0]]) / np.sqrt(2))
        mats.append(np.array([[0.0, 1.0], [-1.0, 0.0]]) / np.sqrt(2))
    stack = np.stack(mats)
    assert stack.shape[0] == spec.dim
    return AlgebraBasis(spec, stack)


def algebra_matrix(spec: GroupSpec, coords) -> np.ndarray:
    """Matrix form sum_i coords[i] * B_i of an algebra element."""
    coords = np.asarray(coords, dtype=float)
    if coords.shape != (spec.dim,):
        raise ValueError(f"expected {spec.dim} coordinates, got shape {coords.shape}")
    basis = algebra_basis(spec)
    return np.tensordot(coords, basis.matrices, axes=(0, 0))


def _coords(spec: GroupSpec, X, name: str = "X") -> np.ndarray:
    """X as ``spec.dim`` finite algebra coordinates, else ValueError
    naming ``name``: the one coordinate check of ``exp_element`` and the
    curves."""
    X = np.asarray(X, dtype=float)
    if X.shape != (spec.dim,) or not np.isfinite(X).all():
        raise ValueError(f"{name} must be {spec.dim} finite algebra "
                         f"coordinates, got {X.tolist()}")
    return X


def algebra_coords(spec: GroupSpec, mat: np.ndarray) -> np.ndarray:
    """Coordinates of ``mat`` in the fixed basis (orthonormal projection)."""
    basis = algebra_basis(spec)
    d = spec.dim
    flat = basis.matrices.reshape(d, -1)
    return np.real(flat.conj() @ np.asarray(mat).ravel())


def constraint_residual(spec: GroupSpec, mat: np.ndarray) -> float:
    """How far ``mat`` is from the defining algebra constraints."""
    mat = np.asarray(mat)
    if spec.family == "U":
        return float(np.linalg.norm(mat + mat.conj().T))
    if spec.family == "SU":
        return float(max(np.linalg.norm(mat + mat.conj().T), abs(np.trace(mat))))
    if spec.family == "SO":
        return float(max(np.linalg.norm(mat + mat.T), np.linalg.norm(np.imag(mat))))
    return float(max(abs(np.trace(mat)), np.linalg.norm(np.imag(mat))))


def exp_element(spec: GroupSpec, coords) -> np.ndarray:
    """Group element exp(sum_i coords[i] B_i).

    Scaling-and-squaring Pade exponential; the result lands in the group to
    machine precision because the generator satisfies the algebra constraints
    exactly.  Coordinates of the wrong length or not finite are refused
    with ValueError before any exponential is taken.
    """
    # imported here, so that importing groups loads no scipy
    from scipy.linalg import expm

    g = expm(algebra_matrix(spec, _coords(spec, coords, "coords")))
    if not spec.is_complex:
        g = np.real(g)
    return g


def group_inverse(spec: GroupSpec, g: np.ndarray) -> np.ndarray:
    """Inverse of g, or of each matrix in a stack g of shape (..., m, m)."""
    g = np.asarray(g)
    if spec.family in ("U", "SU"):
        return g.conj().swapaxes(-1, -2)
    if spec.family == "SO":
        return g.swapaxes(-1, -2)
    # det = 1: adjugate formula, exact up to the det residual
    inv = np.empty_like(g)
    inv[..., 0, 0], inv[..., 1, 1] = g[..., 1, 1], g[..., 0, 0]
    inv[..., 0, 1], inv[..., 1, 0] = -g[..., 0, 1], -g[..., 1, 0]
    return inv


def membership_residual(spec: GroupSpec, g: np.ndarray) -> float:
    """Frobenius-scale distance from the defining group constraints; the
    one-element case of ``membership_residuals`` (inf for a wrong shape)."""
    g = np.asarray(g)
    if g.shape != (spec.size, spec.size):
        return float("inf")
    return float(membership_residuals(spec, g[None])[0])


def _frobenius(a: np.ndarray) -> np.ndarray:
    # Frobenius norm of each (m, m) slice, bit for bit np.linalg.norm's:
    # the sum of squares of a contiguous row (a strided one, such as the
    # imaginary part of a complex stack, sums in another order)
    flat = np.ascontiguousarray(a).reshape(len(a), a.shape[1] * a.shape[2])
    if np.iscomplexobj(flat):
        sq = (np.vecdot(flat.real, flat.real)
              + np.vecdot(flat.imag, flat.imag))
    else:
        sq = np.vecdot(flat, flat)
    return np.sqrt(sq)


def _det_offset(a: np.ndarray) -> np.ndarray:
    # |det - 1| of each slice; hypot is what the scalar abs of a complex
    # computes, where np.abs on a complex array can differ in the last bit
    d = np.linalg.det(a) - 1.0
    return np.hypot(d.real, d.imag) if np.iscomplexobj(d) else np.abs(d)


def membership_residuals(spec: GroupSpec, g: np.ndarray) -> np.ndarray:
    """``membership_residual`` of each matrix of the stack g of shape
    (count, m, m), as a float array: the max of ||g^H g - I|| (U, SU; SO
    with g real), |det g - 1| (SU, SO, SL(2,R)) and the norm of any
    imaginary part (SO, SL(2,R)); NaN when any of them is NaN."""
    g = np.asarray(g)
    m = spec.size
    if g.ndim != 3 or g.shape[1:] != (m, m):
        raise ValueError(f"expected a stack of {m}x{m} matrices, "
                         f"got shape {g.shape}")
    eye = np.eye(m)
    if spec.family in ("U", "SU"):
        r = _frobenius(g.conj().swapaxes(-1, -2) @ g - eye)
        if spec.family == "SU":
            r = np.maximum(r, _det_offset(g))
        return r
    imag = (_frobenius(np.imag(g)) if np.iscomplexobj(g)
            else np.zeros(len(g)))
    gr = np.real(g)
    r = _det_offset(gr)
    if spec.family == "SO":
        r = np.maximum(_frobenius(gr.swapaxes(-1, -2) @ gr - eye), r)
    return np.maximum(r, imag)


def membership_error(spec: GroupSpec, r: float) -> ValueError | None:
    """The one membership decision: None when membership residual r is
    within TOL_MEMBERSHIP, else the ValueError that refuses the element
    (NaN is refused)."""
    if r <= TOL_MEMBERSHIP:
        return None
    return ValueError(f"g is not in {spec.label()} within {TOL_MEMBERSHIP:g} "
                      f"(residual {r:.3e})")


def require_member(spec: GroupSpec, g: np.ndarray) -> np.ndarray:
    g = np.asarray(g)
    require_residual(spec, membership_residual(spec, g))
    return g


def require_residual(spec: GroupSpec, r: float) -> float:
    """``require_member`` for an element whose membership residual r is
    already known: returns r, or raises ``membership_error``."""
    error = membership_error(spec, r)
    if error is not None:
        raise error
    return r


def adjoint_stack(spec: GroupSpec, g: np.ndarray) -> np.ndarray:
    """Matrices of Ad(g_i): X -> g_i X g_i^-1, one per matrix of the stack g
    of group members, of shape (count, m, m).  Membership is the caller's
    decision and is not checked again here; ``adjoint_matrix`` is the
    one-element case that checks it."""
    g = np.asarray(g)
    basis = algebra_basis(spec)
    conj = np.einsum("sij,ajk,skl->sail", g, basis.matrices,
                     group_inverse(spec, g))
    # A[a, b] = <B_a, g B_b g^-1>; orthonormal basis, so no gram solve needed.
    return np.real(np.einsum("aij,sbij->sab", basis.matrices.conj(), conj))


def adjoint_matrix(spec: GroupSpec, g: np.ndarray) -> np.ndarray:
    """Matrix of Ad(g): X -> g X g^-1 in the fixed algebra basis.

    Returns a real (d, d) array, and raises for a non-member.  For the
    compact families this matrix is orthogonal with respect to the basis
    gram matrix.
    """
    return adjoint_stack(spec, require_member(spec, g)[None])[0]


def cartan_decompose(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split g in SL(2,R) as k * exp(p), k in SO(2), p symmetric traceless.

    Returns ``(k, p)``.  The polar factors k = u vh and vh^T s vh come from
    the SVD g = u s vh; p is the log of the positive factor.
    """
    spec = GroupSpec("SL2R", 2)
    g = require_member(spec, np.asarray(g, dtype=float))
    u, s, vh = np.linalg.svd(g)
    k, pos = u @ vh, (vh.T * s) @ vh
    w, V = np.linalg.eigh(pos)
    if w.min() <= 0:
        raise ValueError("numerically singular input")
    p = (V * np.log(w)) @ V.T
    p = (p + p.T) / 2.0
    p -= np.trace(p) / 2.0 * np.eye(2)  # det g = 1 forces tracelessness
    return k, p


def element_order(spec: GroupSpec, g: np.ndarray, n_max: int,
                  tol: float = TOL_MEMBERSHIP) -> int | None:
    """Smallest d in [1, n_max] with ||g^d - I|| <= tol, else None."""
    n_max = positive_int(n_max, "n_max")
    g = np.asarray(g)
    eye = spec.identity()
    power = g
    for d in range(1, n_max + 1):
        if np.linalg.norm(power - eye) <= tol:
            return d
        power = power @ g
    return None


#: Smallest |det| of an SL(2,R) draw that ``element_draws`` keeps.
_SL2_MIN_DET = 1e-6
#: The margin of ``_sl2_keeps``: a relative term on |ad| + |bc|, an
#: absolute one near the threshold and one on (1 + s)**2 for underflow.
_SL2_MARGIN_REL = 2.0 ** -49
_SL2_MARGIN_ABS = 2.0 ** -32 * _SL2_MIN_DET
_SL2_MARGIN_UNDERFLOW = 2.0 ** -1070


def _sl2_keeps(z: np.ndarray) -> bool:
    """``abs(np.linalg.det(z)) >= _SL2_MIN_DET`` for a (2, 2) draw z,
    decided on the closed form ad - bc; LAPACK is called only when
    | |ad - bc| - _SL2_MIN_DET | is within the margin, where the two
    evaluations could fall on either side.

    The margin bounds the distance between them a priori, with u = 2**-53
    and s the largest |entry|:
    - the closed form rounds ad, bc and their difference: within
      2u (|ad| + |bc|) of the exact det;
    - LAPACK's pivoted LU takes l = c * (1/a) (rows swapped when |c| >
      |a|, so |l| <= 1) and u22 = d - l*b: u11 * u22 is within
      4u (|ad| + |bc|);
    - numpy then returns sign * exp(log|u11| + log|u22|), which adds a
      relative error of a few ulps of |log| <= 745 each, below 1e-12 of
      |det|: 2**-32 of the threshold covers it near the threshold;
    - underflow adds absolute errors only, half a subnormal spacing
      (2**-1075) per subnormal ad, bc, l or l*b, scaled by at most s**2
      (1/a stays normal while s**2 is finite).
    The margin is 16u (|ad| + |bc|) + 2**-32 * _SL2_MIN_DET +
    2**-1070 (1 + s)**2, at least twice each bound.  An overflowing
    product or s**2 makes it infinite, and a NaN fails the comparison, so
    both go to LAPACK."""
    (a, b), (c, d) = z.tolist()
    ad, bc = a * d, b * c
    det = abs(ad - bc)
    s = 1.0 + max(abs(a), abs(b), abs(c), abs(d))
    margin = (_SL2_MARGIN_REL * (abs(ad) + abs(bc)) + _SL2_MARGIN_ABS
              + _SL2_MARGIN_UNDERFLOW * s * s)
    if abs(det - _SL2_MIN_DET) > margin:
        return det >= _SL2_MIN_DET
    return abs(np.linalg.det(z)) >= _SL2_MIN_DET


def element_draws(spec: GroupSpec, rng) -> np.ndarray:
    """The normal draws behind one ``random_element``, in its draw order:
    a real and then an imaginary (m, m) block, drawn as one (2, m, m)
    block, for U/SU; one (m, m) block for SO; for SL(2,R) the first (2, 2)
    draw with ``abs(np.linalg.det(z)) >= _SL2_MIN_DET`` (100 consecutive
    rejections raise).  ``_sl2_keeps`` decides that on the closed form
    ad - bc and calls LAPACK only within a margin derived a priori from
    the roundoff of both evaluations, so every decision, and so every
    draw, is LAPACK's."""
    m = spec.size
    if spec.is_complex:
        return rng.standard_normal((2, m, m))
    if spec.family == "SO":
        return rng.standard_normal((m, m))
    for _ in range(100):
        z = rng.standard_normal((2, 2))
        if _sl2_keeps(z):
            return z
    raise RuntimeError("rejected 100 consecutive near-singular SL(2,R) draws")


def elements_from_draws(spec: GroupSpec, draws: np.ndarray) -> np.ndarray:
    """Stack of group elements, one per stacked ``element_draws`` result.

    Compact families: QR of the Gaussian matrices with the phase (U/SU) or
    sign (SO) correction of Mezzadri (arXiv:math-ph/0609050), which makes
    U and SO Haar; SU rescales by a det phase, and SO swaps the first two
    columns where det = -1.  SL(2,R): columns swapped where det < 0, then
    rescaled to det 1.  Slice i equals ``random_element`` from the rng that
    drew ``draws[i]``, bit for bit.
    """
    draws = np.asarray(draws)
    m = spec.size
    if spec.is_complex:
        z = (draws[:, 0] + 1j * draws[:, 1]) / np.sqrt(2)
        q, r = np.linalg.qr(z)
        d = np.diagonal(r, axis1=-2, axis2=-1)
        d = np.where(np.abs(d) < 1e-300, 1.0, d)
        q = q * (d / np.abs(d))[:, None, :]
        if spec.family == "SU":
            # (angle / m), not (-1j * angle) / m: numpy divides a complex
            # array by an int through a rounded reciprocal, which is off in
            # the last bit for m = 3 and 5.
            angle = np.angle(np.linalg.det(q))
            q = q * np.exp(-1j * (angle / m))[:, None, None]
        return q
    if spec.family == "SO":
        q, r = np.linalg.qr(draws)
        signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
        signs[signs == 0] = 1.0
        q = q * signs[:, None, :]
        flip = np.linalg.det(q) < 0
        if flip.any():
            q[flip, :, :2] = q[flip, :, 1::-1]
        return q
    det = np.linalg.det(draws)
    flip = det < 0
    if flip.any():
        draws = draws.copy()
        draws[flip] = draws[flip, :, ::-1]
    return draws / np.sqrt(np.abs(det))[:, None, None]


def random_element(spec: GroupSpec, seed) -> np.ndarray:
    """Seeded random group element: ``elements_from_draws`` of one
    ``element_draws``.

    Compact families: orthogonalized Gaussian matrix with the usual phase
    correction (Haar for U/SO), determinant corrected per family.  SL(2,R):
    Gaussian matrix rescaled to determinant 1; draws with |det| < 1e-6 before
    scaling are rejected, and 100 consecutive rejections raise.
    """
    rng = np.random.default_rng(seed)
    return elements_from_draws(spec, element_draws(spec, rng)[None])[0]


def random_algebra(spec: GroupSpec, seed) -> np.ndarray:
    """Seeded Gaussian coordinate vector in the algebra."""
    return np.random.default_rng(seed).standard_normal(spec.dim)
