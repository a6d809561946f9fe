"""Matrix realizations of U(m), SU(m), SO(m) (m <= 5) and SL(2,R).

Group elements are plain ndarrays (complex for U/SU, real for SO/SL2R)
accompanied by a :class:`GroupSpec`.  Lie algebra elements are coordinate
vectors with respect to a fixed orthonormal basis of the algebra; the inner
product throughout is <X, Y> = Re tr(X* Y), which is Ad-invariant on the
compact families.

Every fact that makes a family what it is is decided here, once, in its
``Family`` record (``FAMILY_RECORDS``): the label template, the admissible
sizes, complex or real (``is_complex``), det = 1 (``det_one``; for a
complex family, the SU phase-sum constraint) and compact or not
(``is_compact``), with ``dim(m)`` and ``rank(m)`` derived from them.  A
``GroupSpec`` looks its record up by family tag and derives the shapes the
other layers branch on: ``phase_slots``, ``phase_sum``, the Weyl action
(``weyl``: permutations, signed permutations, or trivial for SO(2) and
SL(2,R)) and the SO(2r) ``parity_split``.  No other module tests a family
tag, and the branches of this module read the same parameters.

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
from functools import lru_cache, reduce

import numpy as np

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
class Family:
    """The parameters of one matrix family; ``dim`` and ``rank`` of its
    size-m group, and every shape ``GroupSpec`` exposes, follow from them.

    A complex family is a group of unitary matrices, a real compact one of
    orthogonal matrices; either way its maximal torus is the standard one.
    A real noncompact family is a real form of SL(m, C) whose torus is
    that of its maximal compact subgroup SO(m)."""

    #: ``str.format`` template of a group's label, given its size m.
    label: str
    #: The admissible matrix sizes m.
    sizes: range
    is_complex: bool
    #: det g = 1; for a complex family, the torus phases sum to an integer.
    det_one: bool
    is_compact: bool

    @property
    def orthogonal(self) -> bool:
        """Real orthogonal matrices: a real form of SO(m, C).  The other
        families are real forms of GL(m, C) or SL(m, C)."""
        return self.is_compact and not self.is_complex

    def dim(self, m: int) -> int:
        """Real dimension of the Lie algebra: m(m-1)/2 skew-symmetric
        real matrices, else m^2 entries less the trace for det = 1."""
        return m * (m - 1) // 2 if self.orthogonal else m * m - self.det_one

    def rank(self, m: int) -> int:
        """Dimension of a maximal torus: the m eigenphases less the sum
        constraint (complex), or the m // 2 rotation blocks (real)."""
        return m - self.det_one if self.is_complex else m // 2


#: The record of each family, by the tag ``GroupSpec`` takes.
FAMILY_RECORDS = {
    # tag: Family(label, sizes, is_complex, det_one, is_compact)
    "U": Family("U({})", range(1, MAX_SIZE + 1), True, False, True),
    "SU": Family("SU({})", range(2, MAX_SIZE + 1), True, True, True),
    "SO": Family("SO({})", range(2, MAX_SIZE + 1), False, True, True),
    "SL2R": Family("SL(2,R)", range(2, 3), False, True, False),
}

FAMILIES = tuple(FAMILY_RECORDS)


@dataclass(frozen=True)
class GroupSpec:
    """Family tag plus matrix size.  Every family fact is read off the
    family's ``Family`` record (``record``), looked up, not stored."""

    family: str
    size: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise UnsupportedGroupError(f"unknown family {self.family!r}")
        object.__setattr__(self, "size", positive_int(self.size, "size"))
        sizes = self.record.sizes
        if self.size not in sizes:
            if len(sizes) == 1:
                raise UnsupportedGroupError(
                    f"{self.family} is only realized on {sizes[0]}x{sizes[0]} "
                    "matrices")
            raise UnsupportedGroupError(
                f"{self.family}({self.size}) is out of the supported range "
                f"{sizes[0]}..{sizes[-1]}")

    @property
    def record(self) -> Family:
        """The family's record, looked up on every read."""
        return FAMILY_RECORDS[self.family]

    @property
    def is_complex(self) -> bool:
        return self.record.is_complex

    @property
    def is_compact(self) -> bool:
        return self.record.is_compact

    @property
    def phase_sum(self) -> bool:
        """The torus phases sum to an integer (SU: det = 1 on the torus)."""
        return self.is_complex and self.record.det_one

    @property
    def dim(self) -> int:
        """Real dimension of the Lie algebra."""
        return self.record.dim(self.size)

    @property
    def rank(self) -> int:
        """Dimension of a maximal torus."""
        return self.record.rank(self.size)

    @property
    def phase_slots(self) -> int:
        """Length of a torus phase vector: one phase per eigenvalue for a
        complex family (the sum constraint cuts the dimension down to the
        rank), one per rotation block for a real one."""
        return self.size if self.is_complex else self.rank

    @property
    def eigenphase_count(self) -> int:
        # Number of unit-circle eigenphases moved when perturbing along the
        # torus: every eigenvalue of a complex family, both members of each
        # rotation pair of a real one.
        return self.size if self.is_complex else 2 * self.rank

    @property
    def weyl(self) -> str:
        """How the Weyl group acts on a torus phase vector:
        "permutations" (complex families), "signed" permutations, each
        sign reflecting a phase p -> 1 - p (real families, m >= 3), or
        "trivial" (SO(2), SL(2,R))."""
        if self.is_complex:
            return "permutations"
        return "trivial" if self.size == 2 else "signed"

    @property
    def parity_split(self) -> bool:
        """SO(2r), r >= 2: the Weyl group makes only even sign changes, so
        a class with every phase off {0, 1/2} splits in two by parity."""
        return self.weyl == "signed" and self.size % 2 == 0

    def identity(self) -> np.ndarray:
        dtype = complex if self.is_complex else float
        return np.eye(self.size, dtype=dtype)

    def label(self) -> str:
        return self.record.label.format(self.size)


#: The one SL(2,R) group, which the SL(2,R)-only code runs on.
SL2R = GroupSpec("SL2R", 2)


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
    """Orthonormal basis (w.r.t. Re tr(X* Y)) of the Lie algebra: unless
    the family is orthogonal, the diagonals (traceless for det = 1; times
    i for a complex family), then per pair j < k of indices the skew
    direction A = E_jk - E_kj and, unless orthogonal, the symmetric one
    S = u (E_jk + E_kj), u = i or 1; a noncompact family lists S first."""
    m, record = spec.size, spec.record
    unit = 1j if spec.is_complex else 1.0
    diagonals = [] if record.orthogonal else (
        _su_diagonal_directions(m) if record.det_one else np.eye(m))
    mats = [np.diag(unit * v) for v in diagonals]
    for j in range(m):
        for k in range(j + 1, m):
            A = np.zeros((m, m), dtype=type(unit))
            A[j, k], A[k, j] = 1.0, -1.0
            S = np.zeros((m, m), dtype=type(unit))
            S[j, k] = S[k, j] = unit
            pair = [A] if record.orthogonal else [A, S]
            mats += [B / np.sqrt(2)
                     for B in (pair if spec.is_compact else pair[::-1])]
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
    naming ``name``: the coordinate check of ``exp_element``."""
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
    parts = []
    if spec.is_compact:  # skew-Hermitian, or skew-symmetric
        parts.append(np.linalg.norm(
            mat + (mat.conj().T if spec.is_complex else mat.T)))
    if spec.record.det_one and not spec.record.orthogonal:  # traceless
        parts.append(abs(np.trace(mat)))
    if not spec.is_complex:
        parts.append(np.linalg.norm(np.imag(mat)))
    return float(max(parts))


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
    if spec.is_compact:
        return g.conj().swapaxes(-1, -2)
    # 2x2, det = 1: adjugate formula, exact up to the det residual
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
    (count, m, m), as a float array: the max of the norm of any imaginary
    part (real families; the other terms then read the real part),
    ||g^H g - I|| (compact families) and |det g - 1| (det = 1: SU, SO,
    SL(2,R)); NaN when any of them is NaN."""
    g = np.asarray(g)
    m = spec.size
    if g.ndim != 3 or g.shape[1:] != (m, m):
        raise ValueError(f"expected a stack of {m}x{m} matrices, "
                         f"got shape {g.shape}")
    parts = []
    if not spec.is_complex:
        parts.append(_frobenius(np.imag(g)) if np.iscomplexobj(g)
                     else np.zeros(len(g)))
        g = np.real(g)
    if spec.is_compact:
        parts.append(_frobenius(g.conj().swapaxes(-1, -2) @ g - np.eye(m)))
    if spec.record.det_one:
        parts.append(_det_offset(g))
    return reduce(np.maximum, parts)


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
    g = require_member(SL2R, np.asarray(g, dtype=float))
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
    if spec.is_compact:
        return rng.standard_normal((2, m, m) if spec.is_complex else (m, m))
    for _ in range(100):
        z = rng.standard_normal((2, 2))
        if _sl2_keeps(z):
            return z
    raise RuntimeError("rejected 100 consecutive near-singular SL(2,R) draws")


def elements_from_draws(spec: GroupSpec, draws: np.ndarray) -> np.ndarray:
    """Stack of group elements, one per stacked ``element_draws`` result.

    Compact families: QR of the Gaussian matrices (complex ones for a
    complex family) with the phase correction of Mezzadri
    (arXiv:math-ph/0609050), the phase of each diagonal entry of R (its
    sign, for a real family; 1 below 1e-300), which makes U and SO Haar;
    for det = 1, SU rescales by a det phase, and SO swaps the first two
    columns where det = -1.  SL(2,R): columns swapped where det < 0, then
    rescaled to det 1.  Slice i equals ``random_element`` from the rng that
    drew ``draws[i]``, bit for bit.
    """
    draws = np.asarray(draws)
    m = spec.size
    if spec.is_compact:
        z = ((draws[:, 0] + 1j * draws[:, 1]) / np.sqrt(2) if spec.is_complex
             else draws)
        q, r = np.linalg.qr(z)
        d = np.diagonal(r, axis1=-2, axis2=-1)
        d = np.where(np.abs(d) < 1e-300, 1.0, d)
        q = q * (d / np.abs(d))[:, None, :]
        if spec.phase_sum:
            # (angle / m), not (-1j * angle) / m: numpy divides a complex
            # array by an int through a rounded reciprocal, which is off in
            # the last bit for m = 3 and 5.
            angle = np.angle(np.linalg.det(q))
            q = q * np.exp(-1j * (angle / m))[:, None, None]
        elif spec.record.det_one:
            flip = np.linalg.det(q) < 0
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
