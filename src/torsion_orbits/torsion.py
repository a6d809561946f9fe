"""Torsion points of maximal tori and their conjugation-orbit catalogs.

Every g with g^n = e in one of the supported groups is conjugate to a point
of the standard maximal torus whose block phases are exact fractions k/n.
Conjugation permutes and (family permitting) reflects those phases, so an
orbit is labeled by a canonical invariant: the Weyl-reduced phase multiset.
The phase rules have one implementation, on integer numerators k (phase
k/n): ``_class_walk`` walks the invariants, one per class with its orbit
size, so a catalog costs time in the classes rather than in the n^rank
torus points; ``_torsion_rows`` decodes point indices, ``_snap_rows`` snaps
eigenphases, ``_canonical_rows`` canonicalizes and ``_realized_rows`` picks
each class's representative.  The ``Fraction`` API (``canonicalize``,
``canonical_realization``, ``torsion_point``, ``matrix_invariant``,
``canonical_align``) is a view over them that builds ``Fraction``s only
for what it returns.  A catalog builds its representatives as one torus
stack and prints its JSON from a fixed template; ``count_components`` is
a closed form, with the walk as its test oracle.  ``enumerate_torsion``
lists every torus point by brute force, as the tests' oracle.

A class invariant needs no conjugator: ``_invariant_rows`` reads a stack
of compact elements off one stacked eigensolve (``_eigen_rows``; SO(2) off
one arctan2, the SO(4) parity off the sign of a Pfaffian), and sends only
an element it cannot decide to the Schur alignment.  ``matrix_invariant``
is its one-element case.  Where the conjugator is wanted
(``canonical_align``, ``_nearest_torsion``), an element is decomposed
once: a complex Schur form for U/SU, one real Schur scan for SO.  A stack
of SL(2,R) elements is aligned by ``_sl2_align_stack`` (one trace, arctan2
and SVD per stack), off which the SL(2,R) orientations are also read;
``_sl2_align`` and ``orientation_sign`` are its one-element cases.
Snapping refuses an n whose 1/n grid is finer than 2 SNAP_TOL, where every
phase would snap.  The censuses draw each sample from its own seeded
Generator, so a sample replays alone, and evaluate the samples as stacks
through ``reports.run_stacked_trials``: one Haar QR, torus build,
conjugation, membership residual and ``_invariant_rows`` per stack.
``_torsion_draw`` and ``_conjugates`` are the draw and build of both
censuses and of the three torsion sweeps.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.linalg import schur

from .groups import (GroupSpec, UnsupportedGroupError, adjoint_matrix,
                     element_draws, elements_from_draws, group_inverse,
                     require_member)
from .reports import (VerificationReport, inputs_memo, members_only,
                      run_stacked_trials, single_trial_report)
from .subspaces import TOL_RANK, image_basis

#: Phases farther than this from every k/n grid point fail to snap.
SNAP_TOL = 1e-6

#: Decimal digits of the trace that ``sl2_component_census`` clusters by.
TRACE_DIGITS = 6

#: Catalogs, counts, invariant sets and censuses refuse a group and order
#: whose class_count_bound exceeds this.
MAX_CLASSES = 2_000_000

def phase_slots(spec: GroupSpec) -> int:
    """Length of a torus phase vector: one phase per eigenvalue for U/SU
    (the SU integer-sum constraint cuts the dimension down to the rank),
    one per rotation block for SO and SL(2,R)."""
    return spec.size if spec.family in ("U", "SU") else spec.rank


@dataclass(frozen=True)
class TorusTorsionPoint:
    """Point of the standard maximal torus with exact rational phases."""

    spec: GroupSpec
    phases: tuple

    def __post_init__(self):
        phases = tuple(Fraction(p) for p in self.phases)
        object.__setattr__(self, "phases", phases)
        if len(phases) != phase_slots(self.spec):
            raise ValueError(
                f"expected {phase_slots(self.spec)} phases, got {len(phases)}")
        if any(p < 0 or p >= 1 for p in phases):
            raise ValueError("phases must lie in [0, 1)")
        if self.spec.family == "SU" and sum(phases) % 1 != 0:
            raise ValueError("SU phases must sum to an integer")

    def matrix(self) -> np.ndarray:
        return torus_matrix(self.spec, self.phases)


def torus_matrix(spec: GroupSpec, phases) -> np.ndarray:
    """Standard torus element with the given block phases (cycles, not
    radians): diagonal for U/SU, rotation blocks for SO (odd sizes keep a
    trailing fixed axis), a rotation for SL(2,R)."""
    return torus_stack(spec, [[float(p) for p in phases]])[0]


def torus_stack(spec: GroupSpec, phases) -> np.ndarray:
    """Stack of standard torus elements, one per row of the (count, slots)
    float array ``phases``; row i gives ``torus_matrix`` of that row."""
    phases = np.asarray(phases, dtype=float)
    m, slots = spec.size, phase_slots(spec)
    if phases.ndim != 2 or phases.shape[1] != slots:
        raise ValueError(f"expected {slots} phases")
    if spec.family in ("U", "SU"):
        out = np.zeros((len(phases), m, m), dtype=complex)
        out.reshape(-1, m * m)[:, ::m + 1] = np.exp(2j * np.pi * phases)
        return out
    theta = 2 * np.pi * phases
    c, s = np.cos(theta), np.sin(theta)
    out = np.zeros((len(phases), m, m))
    for b in range(slots):
        i, j = 2 * b, 2 * b + 1
        out[:, i, i] = out[:, j, j] = c[:, b]
        out[:, i, j], out[:, j, i] = -s[:, b], s[:, b]
    if spec.family == "SO" and m % 2 == 1:
        out[:, m - 1, m - 1] = 1.0
    return out


def enumerate_torsion(spec: GroupSpec, n: int) -> tuple:
    """All torus points killed by n: the complete, duplicate-free tuple of
    phase vectors with entries in {0, 1/n, ..., (n-1)/n} (SU: summing to an
    integer), in lexicographic order.

    This is the O(n^rank) brute-force oracle the tests check
    ``class_table`` and ``torsion_point`` against; no catalog, census or
    sweep calls it."""
    if n < 1:
        raise ValueError("n must be >= 1")
    r = phase_slots(spec)
    points = []
    for ks in itertools.product(range(n), repeat=r):
        if spec.family == "SU" and sum(ks) % n != 0:
            continue
        points.append(TorusTorsionPoint(spec, tuple(Fraction(k, n) for k in ks)))
    return tuple(points)


def torsion_point_count(spec: GroupSpec, n: int) -> int:
    """Number of torus points killed by n: n^rank (for SU the sum
    constraint fixes the last of the m phases)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return n ** spec.rank


def torsion_point(spec: GroupSpec, n: int, i: int) -> TorusTorsionPoint:
    """The i-th torus point killed by n, equal to
    ``enumerate_torsion(spec, n)[i]`` but decoded in O(rank) by
    ``_torsion_rows``."""
    if not 0 <= i < torsion_point_count(spec, n):
        raise IndexError(f"torsion point index {i} out of range")
    row = _torsion_rows(spec, n, [i])[0].tolist()
    return TorusTorsionPoint(spec, tuple(Fraction(k, n) for k in row))


def _indexable_count(spec: GroupSpec, n: int) -> int:
    # the point count, when one 64-bit rng.integers draw can index it
    count = torsion_point_count(spec, n)
    if count > np.iinfo(np.int64).max:
        raise ValueError(f"{spec.label()} n={n} has {count:.3e} torus points, "
                         "too many to index with one 64-bit draw")
    return count


def random_torsion_point(spec: GroupSpec, n: int, rng) -> TorusTorsionPoint:
    """Uniform torus point killed by n, from one ``rng.integers`` draw over
    the point count."""
    return torsion_point(spec, n, int(rng.integers(_indexable_count(spec, n))))


def _torsion_rows(spec: GroupSpec, n: int, indices) -> np.ndarray:
    """Phase numerators k (phases k/n) of the torus points killed by n with
    the given indices, one row per index: the free phases are the base-n
    digits of the index, most significant first, and the last SU phase is
    minus their sum.  The rows are int64, or Python ints when the point
    count does not fit in int64."""
    wide = torsion_point_count(spec, n) > np.iinfo(np.int64).max
    indices = np.array(indices, dtype=object if wide else np.int64)
    rows = np.empty((len(indices), phase_slots(spec)), dtype=indices.dtype)
    for j in reversed(range(spec.rank)):
        indices, rows[:, j] = indices // n, indices % n
    if spec.family == "SU":
        rows[:, -1] = -rows[:, :-1].sum(axis=1) % n
    return rows


def _point_label(n: int, row) -> list:
    # a torus point's phases k/n, k in the int row, as trial inputs print them
    return [str(Fraction(k, n)) for k in row]


@dataclass(frozen=True)
class CanonicalInvariant:
    """Weyl-reduced label of a conjugation orbit.

    ``phases`` is the canonical phase tuple; ``parity`` is the reflection
    parity bit kept only for SO(2r), r >= 2, when no phase sits at 0 or 1/2
    (otherwise None)."""

    phases: tuple
    parity: int | None = None

    def label(self) -> str:
        parts = [f"{p.numerator}/{p.denominator}" for p in self.phases]
        if self.parity is not None:
            parts.append(f"p{self.parity}")
        return ",".join(parts)

    def sort_key(self):
        return (self.phases, -1 if self.parity is None else self.parity)


def canonicalize(spec: GroupSpec, phases) -> CanonicalInvariant:
    """Canonical invariant of a torus point; equal outputs exactly when two
    points are conjugate in the group.

    U/SU: sorted phase multiset (coordinate permutations).  SO(2r+1): sorted
    multiset of min(p, 1-p) (signed permutations).  SO(2r), r >= 2: the same
    fold, plus the flip parity when no phase is self-paired.  SO(2) and
    SL(2,R): the phase itself (trivial Weyl group).  Computed by
    ``_canonical_rows`` on the phases scaled exactly (floats too) to ints.
    """
    n, ks = _scaled(phases)
    row = _canonical_rows(spec, n, np.array([ks], dtype=object))[0]
    return _row_invariant(n, row.tolist())


def canonical_realization(spec: GroupSpec, canonical: CanonicalInvariant) -> tuple:
    """Phase tuple of the catalog representative realizing ``canonical``:
    the canonical phases, with the last block reflected when the SO(2r)
    parity bit is set."""
    n, ks = _scaled(canonical.phases)
    realized = _realized_rows(n, np.array([ks], dtype=object),
                              np.array([canonical.parity == 1]))
    return tuple(Fraction(k, n) for k in realized[0].tolist())


def _scaled(phases) -> tuple:
    """(n, ks), Python ints with ``phases[i] % 1 == ks[i] / n`` exactly
    (floats too): n is the lcm of the phases' denominators."""
    phases = [Fraction(p) % 1 for p in phases]
    n = math.lcm(*(p.denominator for p in phases))
    return n, [p.numerator * (n // p.denominator) for p in phases]


def _check_snap_grid(n: int) -> None:
    """Refuse an n whose 1/n grid is too fine to snap to: once
    2 n SNAP_TOL >= 1, every phase lies within SNAP_TOL of some k/n, and a
    snap would accept any element as having order dividing n."""
    if 2 * n * SNAP_TOL >= 1:
        raise ValueError(
            f"n={n} is too large to recover phases on the 1/n grid: every "
            f"phase is within SNAP_TOL={SNAP_TOL:g} of a multiple of 1/n "
            f"once n >= 1/(2 SNAP_TOL) = {round(1 / (2 * SNAP_TOL)):,}")


def _snap(raw: np.ndarray, n: int):
    """(ks, off): every phase of the (count, slots) array ``raw`` rounded
    to the 1/n grid, as int64s k (phases k/n) in [0, n), 0 where ``off``
    marks a phase farther than SNAP_TOL from every k/n.  Raises ValueError
    for an n ``_check_snap_grid`` refuses."""
    _check_snap_grid(n)
    k = np.rint(raw * n)
    off = ~(np.abs(raw - k / n) <= SNAP_TOL)
    return np.where(off, 0.0, k).astype(np.int64) % n, off


def _off_grid(phase: float, n: int) -> ValueError:
    # the error of a phase that does not snap to the 1/n grid
    return ValueError(
        f"phase {float(phase)!r} is not within {SNAP_TOL:g} of a "
        f"multiple of 1/{n}; the element does not have order dividing n")


def _snap_rows(raw: np.ndarray, n: int) -> np.ndarray:
    """The ks of ``_snap``, raising ValueError for the first phase, in row
    order, that does not snap."""
    ks, off = _snap(raw, n)
    if off.any():
        raise _off_grid(raw[off][0], n)
    return ks


def _canonical_rows(spec: GroupSpec, n: int, ks: np.ndarray) -> np.ndarray:
    """``canonicalize`` of each row of ints k in [0, n) (phases k/n; int64
    or Python ints), as an int row: the canonical numerators, then the
    parity bit or -1."""
    parity = np.full((len(ks), 1), -1)
    if spec.family in ("U", "SU"):
        return np.hstack([np.sort(ks, axis=1), parity])
    if spec.family == "SL2R" or spec.size == 2:
        return np.hstack([ks, parity])
    folded = np.minimum(ks, n - ks)
    if spec.size % 2 == 0:
        free = ((folded != 0) & (2 * folded != n)).all(axis=1)
        flips = (2 * ks > n).sum(axis=1) % 2
        parity[free, 0] = flips[free]
    return np.hstack([np.sort(folded, axis=1), parity])


def _realized_rows(n: int, ks: np.ndarray, flip: np.ndarray) -> np.ndarray:
    """``canonical_realization`` on integers: the rows of canonical
    numerators ``ks`` (phases k/n), with the last block reflected,
    k -> (n - k) % n, in the rows where ``flip`` (parity bit 1) is set."""
    ks = np.array(ks)
    ks[flip, -1] = (n - ks[flip, -1]) % n
    return ks


def _row_invariant(n: int, row) -> CanonicalInvariant:
    # the CanonicalInvariant of one ``_canonical_rows`` row of Python ints
    *ks, parity = row
    return CanonicalInvariant(tuple(Fraction(k, n) for k in ks),
                              None if parity < 0 else parity)


def _unitary_eigenstructure(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Complex Schur of a (normal) unitary matrix: unitary Z, diagonal T.
    T, Z = schur(np.asarray(g, dtype=complex), output="complex")
    off = T - np.diag(np.diag(T))
    if np.linalg.norm(off) > 1e-7:
        raise ValueError("matrix is not normal enough to diagonalize unitarily")
    phases = np.mod(np.angle(np.diag(T)) / (2 * np.pi), 1.0)
    return Z, phases


def _so_torus_align(g: np.ndarray):
    """(Q, phases) with Q in SO(m) and g = Q t Q^T, t the standard block
    torus with the returned phases (cycles).

    One scan of the real Schur form g = Z T Z^T: the rotation planes in
    Schur order (a plane's basis swapped to fold its angle into [0, pi]),
    then the -1 pairs (phase 1/2), the +1 pairs (phase 0) and, for odd m,
    the leftover +1 as the fixed axis.  All phases land in [0, 1/2] except
    possibly the last, which absorbs the determinant constraint."""
    m = g.shape[0]
    T, Z = schur(np.asarray(g, dtype=float), output="real")
    cols, phases, plus, minus = [], [], [], []
    i = 0
    while i < m:
        if i + 1 < m and abs(T[i + 1, i]) > 1e-10:
            theta = float(np.arctan2(T[i + 1, i], T[i, i])) % (2 * np.pi)
            fold = theta > np.pi
            cols += [i + 1, i] if fold else [i, i + 1]
            phases.append((2 * np.pi - theta if fold else theta) / (2 * np.pi))
            i += 2
        else:
            (plus if T[i, i] > 0 else minus).append(i)
            i += 1
    if len(minus) % 2:
        raise ValueError("odd count of -1 eigenvalues; matrix is not in SO")
    phases += [0.5] * (len(minus) // 2) + [0.0] * (len(plus) // 2)
    Q = Z[:, cols + minus + plus]
    if np.linalg.det(Q) < 0:
        fixed = False
        for b, p in enumerate(phases):
            if min(p, 1 - p) < 1e-9 or abs(p - 0.5) < 1e-9:
                Q[:, [2 * b, 2 * b + 1]] = Q[:, [2 * b + 1, 2 * b]]
                fixed = True  # block is I or -I; swap only flips det
                break
        if not fixed and m % 2:
            Q[:, -1] = -Q[:, -1]
            fixed = True
        if not fixed:
            b = len(phases) - 1
            Q[:, [2 * b, 2 * b + 1]] = Q[:, [2 * b + 1, 2 * b]]
            phases[b] = 1.0 - phases[b]
    return Q, phases


#: Why ``_sl2_align_stack`` refused a slice, by its refusal code (0: it
#: did not); ``_sl2_align`` raises the message.
_SL2_REFUSALS = (None,
                 "element is not elliptic or central; it has no finite "
                 "order in SL(2,R)",
                 "degenerate eigenvector; cannot align",
                 "SVD did not converge")


def _sl2_align_stack(g: np.ndarray):
    """(h, phases, refused) for the stack g of shape (count, 2, 2): where
    ``refused`` is 0, g_i = h_i R(2 pi phase_i) h_i^-1 with h_i in SL(2,R).

    Defined for elements of finite order: +-I (phases 0 and 1/2) and the
    elliptic ones, from one trace, one arctan2 and one SVD of g_i - mu_i I
    per stack, mu_i the eigenvalue with positive imaginary part.  The
    refusal code indexes ``_SL2_REFUSALS``: 1 for |trace| >= 2, 2 for a
    degenerate eigenvector, 3 where the SVD does not converge (as for some
    non-finite inputs); a refused slice has phase 0 and h = I.
    Orientations are read off the phases: -1 in (0, 1/2), +1 in
    (1/2, 1)."""
    g = np.asarray(g, dtype=float)
    eye = np.eye(2)
    count = len(g)
    h = np.tile(eye, (count, 1, 1))
    phases = np.zeros(count)
    refused = np.zeros(count, dtype=np.int8)
    plus = _distance(g, eye) <= 1e-8
    minus = ~plus & (_distance(g, -eye) <= 1e-8)
    phases[minus] = 0.5
    tr = np.trace(g, axis1=1, axis2=2)
    rest = ~(plus | minus)
    refused[rest & (np.abs(tr) >= 2)] = 1
    rest &= refused == 0
    tr = tr[rest]
    half = 1 - tr * tr / 4
    theta = np.arctan2(np.sqrt(np.where(half > 0.0, half, 0.0)), tr / 2)
    mu = tr / 2 + 1j * np.sin(theta)
    vt, failed = _svd_vt(g[rest].astype(complex) - mu[:, None, None] * eye)
    v = vt[:, -1].conj()
    x, y = v.real, v.imag
    delta = x[:, 0] * y[:, 1] - x[:, 1] * y[:, 0]
    code = np.where(failed, 3, np.where(np.abs(delta) < 1e-12, 2, 0))
    ok = code == 0
    flip = delta < 0
    scale = np.sqrt(np.where(flip, -delta, delta))
    cols = np.where(flip[:, None, None], np.stack([y, x], axis=2),
                    np.stack([x, y], axis=2))
    cycles = theta / (2 * np.pi)
    where = np.flatnonzero(rest)
    refused[where] = code
    h[where[ok]] = cols[ok] / scale[ok, None, None]
    phases[where[ok]] = np.where(flip, cycles, 1.0 - cycles)[ok]
    return h, phases, refused


def _distance(g: np.ndarray, a: np.ndarray) -> np.ndarray:
    # Frobenius distance of each 2x2 slice of the real stack g from a,
    # bit for bit np.linalg.norm's: the dot of the flattened difference
    d = (g - a).reshape(len(g), 4)
    return np.sqrt(np.vecdot(d, d))


def _svd_vt(a: np.ndarray):
    """(Vt, failed) of the SVD of each matrix of the stack a: one stacked
    SVD, or, when it raises, one per slice, so that the slices on which
    numpy's SVD does not converge are told apart (their Vt is zero)."""
    try:
        return np.linalg.svd(a)[2], np.zeros(len(a), dtype=bool)
    except np.linalg.LinAlgError:
        vt, failed = np.zeros_like(a), np.zeros(len(a), dtype=bool)
        for j, slice_ in enumerate(a):
            try:
                vt[j] = np.linalg.svd(slice_)[2]
            except np.linalg.LinAlgError:
                failed[j] = True
        return vt, failed


def _sl2_align(g: np.ndarray):
    """(h, phase) with h in SL(2,R) and g = h R(2 pi phase) h^-1: the
    one-element case of ``_sl2_align_stack``, raising ValueError (numpy's
    LinAlgError where the SVD does not converge) where it refuses."""
    h, phases, refused = _sl2_align_stack(np.asarray(g, dtype=float)[None])
    if refused[0]:
        raise _sl2_refusal(refused[0])
    return h[0], float(phases[0])


def _sl2_refusal(code: int) -> ValueError:
    # the error of an _sl2_align_stack refusal code
    error = np.linalg.LinAlgError if code == 3 else ValueError
    return error(_SL2_REFUSALS[code])


def _alignment(spec: GroupSpec, g: np.ndarray):
    """(Q, raw phases) of a group member g, with g = Q t Q^-1 for t the
    torus point with those phases (cycles): a complex Schur form for U/SU,
    ``_so_torus_align`` for SO and ``_sl2_align`` for SL(2,R)."""
    if spec.family in ("U", "SU"):
        return _unitary_eigenstructure(g)
    if spec.family == "SL2R":
        Q, phase = _sl2_align(g)
        return Q, [phase]
    return _so_torus_align(g)


def _snapped_alignment(spec: GroupSpec, g: np.ndarray, n: int):
    """(Q, ks) with Q in the group and g = Q t Q^-1 for t the torus point
    with phases k/n: g's eigenphases snapped to the 1/n grid, as an int64
    row in the order the eigensolver returns them."""
    Q, raw = _alignment(spec, require_member(spec, g))
    return Q, _snap_rows(np.array(raw, dtype=float, ndmin=2), n)[0]


def canonical_align(spec: GroupSpec, g: np.ndarray, n: int):
    """Conjugator onto the catalog representative.

    Returns (Q, realized) with Q in the group, realized the exact phase
    tuple of the representative, and g = Q t Q^-1 for t =
    torus_matrix(spec, realized).  The target is
    canonical_realization(canonicalize(...)) of g's snapped phases, reached
    by reordering Q's columns (SO: and swapping plane bases).  Raises
    ValueError when g does not have order dividing n within SNAP_TOL.
    """
    Q, ks = _snapped_alignment(spec, g, n)
    canonical = _canonical_rows(spec, n, ks[None])
    realized = _realized_rows(n, canonical[:, :-1],
                              canonical[:, -1] == 1)[0].tolist()
    ks = ks.tolist()
    if spec.family in ("U", "SU"):
        Q = Q[:, sorted(range(len(ks)), key=ks.__getitem__)]
        if spec.family == "SU":
            Q = Q * np.exp(-1j * np.angle(np.linalg.det(Q)) / spec.size)
    elif spec.family == "SO" and spec.size > 2:
        order = sorted(range(len(ks)), key=lambda b: min(ks[b], n - ks[b]))
        # moving whole planes keeps det Q = 1; an odd axis stays last
        Q = Q[:, [c for b in order for c in (2 * b, 2 * b + 1)]
              + list(range(2 * len(order), spec.size))]
        # swapping a plane's basis reflects its phase p -> 1 - p
        swaps = [b for b, o in enumerate(order) if ks[o] != realized[b]]
        if len(swaps) % 2:
            # restore det Q = 1 on a self-paired plane (phase 0 or 1/2),
            # where a swap moves no phase.  With none, the count is even:
            # odd sizes arrive folded, and SO(2r) keeps its parity bit.
            swaps.append(next(b for b, k in enumerate(realized)
                              if 2 * k % n == 0))
        for b in swaps:
            Q[:, [2 * b, 2 * b + 1]] = Q[:, [2 * b + 1, 2 * b]]
    return Q, tuple(Fraction(k, n) for k in realized)


def matrix_invariant(spec: GroupSpec, g: np.ndarray,
                     n: int) -> CanonicalInvariant:
    """Canonical invariant computed from a matrix of order dividing n: the
    one-element case of ``_invariant_rows``, raising its error."""
    rows, errors = _invariant_rows(spec, n, require_member(spec, g)[None])
    if errors[0] is not None:
        raise errors[0]
    return _row_invariant(n, rows[0].tolist())


def component_dimension(spec: GroupSpec, g: np.ndarray,
                        tol_rank: float = TOL_RANK) -> int:
    """Dimension of the conjugation orbit of g: rank of I - Ad(g).  The
    numeric counterpart of ``orbit_dimension``, kept as its oracle."""
    A = adjoint_matrix(spec, g)
    return image_basis(np.eye(spec.dim) - A, tol_rank).dim


def orbit_dimension(spec: GroupSpec, canonical: CanonicalInvariant) -> int:
    """Dimension of the class labeled by ``canonical``: dim G - dim Z(t),
    with the centralizer dimension read off the phase multiplicities.

    U/SU: a phase of multiplicity c contributes u(c), so the orbit has
    dimension m^2 - sum c^2.  SO(N): the a-dimensional +1 and b-dimensional
    -1 eigenspaces contribute so(a) and so(b), each other folded phase of
    multiplicity c contributes u(c).  SL(2,R): +-I are central, every
    elliptic class is a 2-dimensional orbit."""
    return _class_dimension(spec, *_scaled(canonical.phases))


def _class_dimension(spec: GroupSpec, n: int, ks) -> int:
    # ``orbit_dimension`` of the phases k/n, k in [0, n), from integers
    if spec.family == "SL2R":
        return 0 if 2 * ks[0] % n == 0 else 2
    if spec.family in ("U", "SU"):
        return spec.size ** 2 - sum(c * c for c in Counter(ks).values())
    folded = Counter(min(k, n - k) for k in ks)
    a = 2 * folded.pop(0, 0) + spec.size % 2
    b = 0 if n % 2 else 2 * folded.pop(n // 2, 0)
    centralizer = (a * (a - 1) // 2 + b * (b - 1) // 2
                   + sum(c * c for c in folded.values()))
    return spec.dim - centralizer


@dataclass
class ComponentDescriptor:
    """One conjugation orbit inside {g : g^n = e}."""

    spec: GroupSpec
    n: int
    canonical: CanonicalInvariant
    representative: np.ndarray
    dimension: int
    exact_order: int
    orbit_size: int  # torus points mapping to this invariant


def class_count_bound(spec: GroupSpec, n: int) -> int:
    """Upper bound on the number of classes of {g : g^n = e}, which is also
    the number of multisets ``class_table`` walks: C(n+m-1, m) for U(m) and
    SU(m), 2 C(n//2 + r, r) for SO(m) of rank r, m >= 3, and n for SO(2) and
    SL(2,R)."""
    if spec.family in ("U", "SU"):
        return math.comb(n + spec.size - 1, spec.size)
    if spec.family == "SO" and spec.size > 2:
        return 2 * math.comb(n // 2 + spec.rank, spec.rank)
    return n


def _arrangements(ks: tuple) -> int:
    # Distinct orderings of a sorted tuple: the multinomial of its runs.
    out = math.factorial(len(ks))
    for _, run in itertools.groupby(ks):
        out //= math.factorial(sum(1 for _ in run))
    return out


def _class_walk(spec: GroupSpec, n: int):
    """Yield (ks, parity, orbit size) for each class of {g : g^n = e}, in
    sort order: ks are the canonical phase numerators (phases k/n), parity
    the SO(2r) bit or None.

    The walk runs over the invariants themselves, in time proportional to
    the multisets walked: sorted phase multisets (SU: those summing to an
    integer) for U/SU; for SO, multisets of folded phases f/n with
    f <= n/2, each slot off {0, n/2} having two preimages, and for SO(2r),
    r >= 2, a split into two parity classes when every slot is off
    {0, n/2}; the n phases k/n for SO(2) and SL(2,R).  Raises ValueError
    when ``class_count_bound`` exceeds MAX_CLASSES."""
    _check_class_budget(spec, n)
    if spec.family == "SL2R" or (spec.family == "SO" and spec.size == 2):
        for k in range(n):
            yield (k,), None, 1
        return
    if spec.family in ("U", "SU"):
        for ks in itertools.combinations_with_replacement(range(n), spec.size):
            if spec.family == "SU" and sum(ks) % n:
                continue
            yield ks, None, _arrangements(ks)
        return
    r = spec.rank
    for fs in itertools.combinations_with_replacement(range(n // 2 + 1), r):
        free = sum(1 for f in fs if f and 2 * f != n)
        orbit = _arrangements(fs) << free
        if spec.size % 2 == 0 and free == r:
            yield fs, 0, orbit // 2
            yield fs, 1, orbit // 2
        else:
            yield fs, None, orbit


def class_table(spec: GroupSpec, n: int) -> dict:
    """{canonical invariant: orbit size} over the classes of {g : g^n = e},
    in sort order; the orbit size counts the torus points in the class.
    Built from the invariants themselves (see ``_class_walk``), in time
    proportional to the class count.  Raises ValueError when
    ``class_count_bound`` exceeds MAX_CLASSES."""
    grid = [Fraction(k, n) for k in range(n)]
    return {CanonicalInvariant(tuple(grid[k] for k in ks), parity): orbit
            for ks, parity, orbit in _class_walk(spec, n)}


def catalog_components(spec: GroupSpec, n: int) -> list[ComponentDescriptor]:
    """Complete catalog of orbits of {g : g^n = e}, sorted by canonical
    invariant.  One entry per Weyl orbit of torsion points; the
    representatives are the rows of one torus stack."""
    walk = list(_class_walk(spec, n))
    realized = _realized_rows(
        n, np.array([ks for ks, _, _ in walk], dtype=np.int64),
        np.array([parity == 1 for _, parity, _ in walk], dtype=bool))
    reps = torus_stack(spec, realized / n)
    grid = [Fraction(k, n) for k in range(n)]
    return [ComponentDescriptor(
                spec, n, CanonicalInvariant(tuple(grid[k] for k in ks), parity),
                rep, _class_dimension(spec, n, ks), n // math.gcd(n, *ks),
                orbit)
            for (ks, parity, orbit), rep in zip(walk, reps)]


def count_components(spec: GroupSpec, n: int) -> int:
    """Number of conjugation orbits of {g : g^n = e}, in closed form: the
    number of Weyl orbits on the torus points killed by n, which
    ``_class_walk`` lists one by one (Đoković, Proc. AMS 80, 1980).

    U(m): C(n+m-1, m) phase multisets.  SU(m): the m-multisets of Z/n
    summing to 0, (1/n) sum over d | gcd(n, m) of phi(d) C(n/d + m/d - 1,
    m/d).  SO(2r+1): C(f + r, r) multisets of the f + 1 folded phases,
    f = n // 2; SO(2r), r >= 2, adds C(h + r - 1, r) for the classes with
    every phase among the h = (n - 1) // 2 free ones, which split by
    parity.  SO(2) and SL(2,R): n.  Raises ValueError where
    ``_class_walk`` does: n < 1, or ``class_count_bound`` above
    MAX_CLASSES."""
    _check_class_budget(spec, n)
    m, r = spec.size, spec.rank
    if spec.family == "U":
        return math.comb(n + m - 1, m)
    if spec.family == "SU":
        return sum(_totient(d) * math.comb(n // d + m // d - 1, m // d)
                   for d in range(1, m + 1)
                   if n % d == 0 and m % d == 0) // n
    if spec.family == "SL2R" or m == 2:
        return n
    count = math.comb(n // 2 + r, r)
    if m % 2 == 0:
        count += math.comb((n - 1) // 2 + r - 1, r)
    return count


def _totient(d: int) -> int:
    # Euler's phi: the residues mod d prime to d
    return sum(1 for k in range(1, d + 1) if math.gcd(k, d) == 1)


def _check_class_budget(spec: GroupSpec, n: int) -> None:
    """Refuse n < 1, and a group and order whose ``class_count_bound``
    exceeds MAX_CLASSES."""
    if n < 1:
        raise ValueError("n must be >= 1")
    bound = class_count_bound(spec, n)
    if bound > MAX_CLASSES:
        raise ValueError(
            f"{spec.label()} n={n} has up to {bound:,} classes, above the "
            f"limit of {MAX_CLASSES:,}")


def invariant_set(spec: GroupSpec, n: int) -> frozenset:
    return frozenset(class_table(spec, n))


def gcd_intersection_check(spec: GroupSpec, n: int, m: int) -> VerificationReport:
    """Check that the invariant sets satisfy set(n) & set(m) == set(gcd(n,m)).

    Each class is keyed by its canonical phases scaled to the common
    denominator lcm(n, m), plus its parity, so the same orbit gets the same
    key no matter which n produced it; the check is exact.
    """
    t0 = time.perf_counter()
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    g, common = math.gcd(n, m), math.lcm(n, m)

    def keys(order):
        scale = common // order
        return {(tuple(k * scale for k in ks), parity)
                for ks, parity, _ in _class_walk(spec, order)}

    s_n, s_m, s_g = keys(n), keys(m), keys(g)
    inter = s_n & s_m
    mismatch = inter ^ s_g
    labels = sorted(CanonicalInvariant(tuple(Fraction(k, common) for k in ks),
                                       parity).label()
                    for ks, parity in mismatch)[:10]
    inputs = {"group": spec.label(), "n": n, "m": m, "gcd": g}
    details = {"count_n": len(s_n), "count_m": len(s_m),
               "count_gcd": len(s_g), "count_intersection": len(inter),
               "mismatched_invariants": labels}
    return single_trial_report(
        "gcd-intersection", inputs, {"mismatch_count": float(len(mismatch))},
        passed=(not mismatch), config={"check": "gcd-intersection"},
        details=details, wall_time_s=time.perf_counter() - t0,
        worst_residual=float(len(mismatch)))


def approximation_bound(spec: GroupSpec, N: int, corrections: int = 0) -> float:
    """Worst-case Frobenius distance of nearest_torsion_approximant: each
    eigenphase moves by at most pi/N (3pi/N for the phases adjusted to
    restore det = 1 in SU)."""
    p = spec.eigenphase_count
    c = min(corrections, p)
    return (2 * np.pi / N) * float(np.sqrt((p - c) * 0.25 + c * 2.25))


def _refuse_nearest(spec: GroupSpec, N: int) -> None:
    # the refusals of nearest torsion approximation that precede membership
    if spec.family == "SL2R":
        raise UnsupportedGroupError(
            "nearest torsion approximation is defined for the compact families")
    if N < 1:
        raise ValueError("N must be >= 1")


def _nearest_torsion(spec: GroupSpec, g: np.ndarray, N: int):
    """(approx, distance, bound) for a group member g, which is not checked
    again."""
    _refuse_nearest(spec, N)
    corrections = 0
    if spec.family in ("U", "SU"):
        Z, phases = _unitary_eigenstructure(g)
        ks = np.rint(phases * N).astype(int)
        if spec.family == "SU":
            # det g = 1 means the raw phases sum to an integer; push the
            # rounded sum back onto the grid with minimal extra movement.
            target = int(np.rint(phases.sum()))
            s = int(ks.sum()) - target * N
            while s != 0:
                step = -1 if s > 0 else 1
                # step toward the grid on the phase that overshot most
                j = int(np.argmax(step * (phases * N - ks)))
                ks[j] += step
                s += step
                corrections += 1
        t = np.diag(np.exp(2j * np.pi * (ks % N) / N))
        approx = Z @ t @ Z.conj().T
    else:
        Q, phases = _so_torus_align(g)
        ks = [int(np.rint(p * N)) % N for p in phases]
        approx = Q @ torus_matrix(spec, np.array(ks) / N) @ Q.T
    distance = float(np.linalg.norm(g - approx))
    return approx, distance, approximation_bound(spec, N, corrections)


def nearest_torsion_approximant(spec: GroupSpec, g: np.ndarray, N: int):
    """Element of order dividing N near g, found by rounding eigenphases to
    the 1/N grid (SU determinants restored on-grid).

    Returns (approx, distance); the distance obeys approximation_bound.
    Refuses SL(2,R), then N < 1, then a non-member.
    """
    _refuse_nearest(spec, N)
    approx, distance, _ = _nearest_torsion(spec, require_member(spec, g), N)
    return approx, distance


def orientation_sign(g: np.ndarray) -> int:
    """Conjugation-invariant orientation of an elliptic SL(2,R) element.

    The one-element case of ``_orientations``: -1 when g is conjugate to a
    rotation by a phase in (0, 1/2), +1 for a phase in (1/2, 1), and 0 for
    +-I, for any input ``_sl2_align_stack`` refuses (|trace| >= 2, a
    degenerate eigenvector, an SVD that does not converge) and for a
    non-2x2 input.  It equals the sign of det [Re v, Im v] with v an
    eigenvector for the eigenvalue with positive imaginary part, which
    conjugation by det h = 1 and complex rescaling of v leave unchanged.
    """
    try:
        _, phases, refused = _sl2_align_stack(np.asarray(g, dtype=float)[None])
    except ValueError:  # not a 2x2 matrix
        return 0
    return int(_orientations(phases, refused)[0])


def _orientations(phases: np.ndarray, refused: np.ndarray) -> np.ndarray:
    # orientation_sign of each slice of an _sl2_align_stack result
    sigma = np.where(phases < 0.5, -1, 1)
    sigma[(refused != 0) | (phases == 0.0) | (phases == 0.5)] = 0
    return sigma


def _expected_sigma(k: int, n: int) -> int:
    if k == 0 or 2 * k == n:
        return 0
    return -1 if 2 * k < n else 1


def _torsion_draw(spec: GroupSpec, n: int):
    """draw(rng) of a run over conjugates of torsion points, in
    ``random_torsion_point`` and then ``element_draws`` order: ((spec, n),
    the torus point index, the conjugator's normal draws)."""
    key, count = (spec, n), _indexable_count(spec, n)

    def draw(rng):
        return key, int(rng.integers(count)), element_draws(spec, rng)

    return draw


def _conjugates(key, stack):
    """build of a run over ``_torsion_draw`` draws: the stack of their
    conjugated torus points."""
    spec, n = key
    rows = _torsion_rows(spec, n, [d[1] for d in stack])
    return _conjugate_stack(spec, n, rows, [d[2] for d in stack])


def _conjugate_stack(spec: GroupSpec, n: int, rows: np.ndarray, draws):
    """Stack of torus points with phase numerators ``rows`` (phases k/n),
    each conjugated by the element ``elements_from_draws`` makes of the
    matching ``element_draws`` result: one QR, torus build and conjugation
    for the whole stack.  For the rows of torus point indices, slice j
    equals ``random_torsion_element`` from the Generator that drew the
    j-th index and then ``draws[j]``."""
    h = elements_from_draws(spec, np.stack(draws))
    return h @ torus_stack(spec, rows / n) @ group_inverse(spec, h)


def sl2_component_census(n: int, samples: int,
                         seed: int) -> VerificationReport:
    """Monte-Carlo census of {g : g^n = e} in SL(2,R).

    Samples random conjugates of the n rotations R(2 pi k/n) and clusters
    them by the invariant pair (trace rounded to TRACE_DIGITS decimals,
    orientation sign).  Passes when exactly n classes appear and the
    orientation sign never flips within a sampled orbit: the k-th and
    (n-k)-th rotations share a trace but stay in different components.

    Sample i draws k, the SL(2,R) torus point index, and then its
    conjugator from its own Generator, as ``cluster_census`` does, so it
    replays alone at seed + i; the samples are conjugated, and their
    orientations and traces read, as stacks.  Membership is recorded as a
    residual, not required.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    spec = GroupSpec("SL2R", 2)
    classes = set()
    memo = inputs_memo()

    def records(key, stack, g, residuals):
        _, phases, refused = _sl2_align_stack(g)
        sigmas = _orientations(phases, refused).tolist()
        traces = np.trace(g, axis1=1, axis2=2).tolist()
        fields = []
        for (_, k, _), sigma, tr, r in zip(stack, sigmas, traces, residuals):
            classes.add((round(tr, TRACE_DIGITS), sigma))
            flipped = sigma != _expected_sigma(k, n)
            inputs, digest = memo(k, lambda: {"k": k, "n": n})
            fields.append({"inputs": inputs, "digest": digest,
                           "residuals": {"membership": r,
                                         "sigma_flip": float(flipped)},
                           "passed": not flipped})
        return fields

    report = run_stacked_trials("sl2-census", samples, seed,
                                _torsion_draw(spec, n), _conjugates, records,
                                {"n": n, "samples": samples, "seed": seed,
                                 "trace_digits": TRACE_DIGITS},
                                worst_residual="membership")
    flip_count = sum(not t.passed for t in report.trials)
    report.passed = report.passed and len(classes) == n
    report.details = {"class_count": len(classes), "expected_classes": n,
                      "sigma_flips": flip_count,
                      "classes": sorted(map(list, classes))}
    return report


def cluster_census(spec: GroupSpec, n: int, samples: int,
                   seed: int) -> VerificationReport:
    """Monte-Carlo census for any supported group: random conjugates of
    random torsion points, clustered by the canonical invariant recovered
    from the matrix alone.  Passes when the cluster count matches
    count_components(spec, n) and every recovered invariant agrees with the
    invariant of the torus point that produced the sample.

    Sample i draws from its own Generator, as ``random_torsion_point`` and
    then ``random_element`` would, so it replays alone at seed + i.  The
    draws are evaluated as stacks: one QR, one torus build, one conjugation
    and one membership residual per stack, then the members' invariants
    from ``_invariant_rows`` (one eigensolve per stack; one
    ``_sl2_align_stack`` for SL(2,R)), on integer phase numerators.  A run
    with a sample off the group or off the 1/n grid raises the error
    ``matrix_invariant`` would, for the first such sample; an n too fine
    to snap at is refused before any sample is drawn."""
    t0 = time.perf_counter()
    _check_snap_grid(n)
    expected = count_components(spec, n)
    seen = set()
    memo = inputs_memo()

    def records(key, stack, g, residuals):
        drawn = _torsion_rows(spec, n, [d[1] for d in stack])
        found, errors = _invariant_rows(spec, n, g)
        consistent = (found == _canonical_rows(spec, n, drawn)).all(axis=1)
        seen.update(map(tuple, np.unique(found, axis=0).tolist()))
        fields = []
        for d, row, r, ok, error in zip(stack, drawn.tolist(), residuals,
                                        consistent.tolist(), errors):
            inputs, digest = memo(d[1], lambda: {
                "point": _point_label(n, row), "n": n})
            fields.append(error or {
                "inputs": inputs, "digest": digest,
                "residuals": {"membership": r,
                              "invariant_mismatch": 0.0 if ok else 1.0},
                "passed": ok})
        return fields

    report = run_stacked_trials("cluster-census", samples, seed,
                                _torsion_draw(spec, n), _conjugates,
                                members_only(records),
                                {"group": spec.label(), "n": n,
                                 "samples": samples, "seed": seed},
                                worst_residual="membership")
    labels = sorted(_row_invariant(n, row).label() for row in seen)
    report.passed = report.passed and len(seen) == expected
    report.details = {"cluster_count": len(seen), "expected_clusters": expected,
                      "clusters": labels}
    report.wall_time_s = time.perf_counter() - t0  # with the class count
    return report


def _invariant_rows(spec: GroupSpec, n: int, g: np.ndarray):
    """(canonical rows, errors) of a stack g of group members of order
    dividing n: ``_canonical_rows`` of each member's snapped phases, and
    ``errors[i]``, the error of member i's refused or failed alignment,
    else of its first phase off the grid, else None (row i is then
    meaningless).

    SL(2,R) is aligned by one ``_sl2_align_stack``.  The compact families
    are read off one stacked eigensolve (``_eigen_rows``); a member it
    leaves undecided goes through the Schur alignment (``_alignment``)
    alone, which decides it, or raises the error, exactly as it would for
    that member by itself.  A member the eigenvalues decide is one the
    Schur path accepts too: a member's Schur form is diagonal to within
    its membership residual, far inside the 1e-7 that path allows, and an
    SO member (det 1) has an even count of -1 eigenvalues.  Both read the
    same eigenvalues up to rounding, so they could snap a phase apart only
    within rounding of SNAP_TOL from the grid."""
    errors = [None] * len(g)
    if spec.family == "SL2R":
        _, phases, refused = _sl2_align_stack(g)
        for i in np.flatnonzero(refused):
            errors[i] = _sl2_refusal(refused[i])
        raw = phases[:, None]
        ks, off = _snap(raw, n)
        for i in np.flatnonzero(off.any(axis=1)):
            errors[i] = errors[i] or _off_grid(raw[i][off[i]][0], n)
        return _canonical_rows(spec, n, ks), errors
    ks, decided = _eigen_rows(spec, n, g)
    for i in np.flatnonzero(~decided):
        try:
            raw = np.array(_alignment(spec, g[i])[1], dtype=float, ndmin=2)
            ks[i] = _snap_rows(raw, n)[0]
        except ValueError as error:  # numpy's LinAlgError included
            errors[i] = error
    return _canonical_rows(spec, n, ks), errors


def _eigen_rows(spec: GroupSpec, n: int, g: np.ndarray):
    """(ks, decided) for a stack g of compact group members: in the rows
    where ``decided`` is set, phase numerators k (phases k/n) of a torus
    point conjugate to the member, read off one stacked eigensolve.

    U/SU: the eigenphases snapped by ``_snap``.  SO(2): the phase of
    arctan2(g[1,0], g[0,0]).  SO(m), m >= 3: the snapped eigenphases with
    one phase 0 dropped for odd m, folded to one k <= n/2 per conjugate
    pair.  A class of SO(4) with no phase 0 or 1/2 splits by parity, read
    off the sign of the Pfaffian of (g - g^T)/2: conjugation by SO(4) keeps
    it, and on the torus it is sin(2 pi k1/n) sin(2 pi k2/n), so a negative
    one takes the last pair's k -> n - k.  GroupSpec caps sizes at
    MAX_SIZE = 5, so SO(4) is the only SO(2r), r >= 2.  A row is undecided
    where a phase does not snap, the phases do not pair up as a real
    orthogonal matrix's do, or the Pfaffian is below half its torus value,
    too close to 0 for its sign to be trusted."""
    if spec.family == "SO":
        g = np.asarray(g, dtype=float)
    if spec.family == "SO" and spec.size == 2:
        raw = np.arctan2(g[:, 1, 0], g[:, 0, 0])[:, None] / (2 * np.pi) % 1.0
    else:
        raw = np.angle(np.linalg.eigvals(g)) / (2 * np.pi) % 1.0
    ks, off = _snap(raw, n)
    decided = ~off.any(axis=1)
    if spec.family != "SO" or spec.size == 2:
        return ks, decided
    ks = np.sort(ks, axis=1)
    decided &= (ks == np.sort((n - ks) % n, axis=1)).all(axis=1)
    folded = np.sort(np.minimum(ks, n - ks), axis=1)
    if spec.size % 2:  # the fixed axis
        decided &= folded[:, 0] == 0
        folded = folded[:, 1:]
    pairs = folded[:, 0::2]
    decided &= (pairs == folded[:, 1::2]).all(axis=1)
    if spec.size == 4:
        a = (g - g.swapaxes(1, 2)) / 2
        pf = (a[:, 0, 1] * a[:, 2, 3] - a[:, 0, 2] * a[:, 1, 3]
              + a[:, 0, 3] * a[:, 1, 2])
        free = ((pairs != 0) & (2 * pairs != n)).all(axis=1)
        torus = np.prod(np.sin(2 * np.pi * pairs / n), axis=1)
        decided &= ~free | (np.abs(pf) >= torus / 2)
        flip = free & (pf < 0)
        pairs[flip, -1] = n - pairs[flip, -1]
    return pairs, decided


# ---------------------------------------------------------------------------
# catalog serialization

CATALOG_CSV_COLUMNS = ("group", "size", "n", "component_index", "canonical",
                       "dimension", "exact_order")


def catalog_rows(catalog: list[ComponentDescriptor]) -> list[dict]:
    rows = []
    for idx, comp in enumerate(catalog):
        rows.append({
            "group": comp.spec.family, "size": comp.spec.size, "n": comp.n,
            "component_index": idx, "canonical": comp.canonical.label(),
            "dimension": comp.dimension, "exact_order": comp.exact_order,
        })
    return rows


def write_catalog_csv(catalog: list[ComponentDescriptor], fileobj) -> None:
    import csv
    writer = csv.DictWriter(fileobj, fieldnames=CATALOG_CSV_COLUMNS,
                            lineterminator="\n")
    writer.writeheader()
    for row in catalog_rows(catalog):
        writer.writerow(row)


#: One catalog entry of ``write_catalog_json``, at its depth in the
#: document and with its keys in sorted order.
_JSON_ENTRY = """\
    {{
      "canonical": {canonical},
      "component_index": {index},
      "dimension": {dimension},
      "exact_order": {exact_order},
      "group": {group},
      "n": {n},
      "orbit_size": {orbit_size},
      "parity": {parity},
      "phases": [
{phases}
      ],
      "representative": {{
{imag}        "real": {real},
        "shape": [
          {shape}
        ]
      }},
      "size": {size}
    }}"""


def _json_floats(values: np.ndarray) -> str:
    # a representative's part as json.dumps(indent=2) prints it at depth 4
    text = repr(values.ravel().tolist())
    if "n" in text:  # repr spells inf and nan so; a finite float has no n
        raise ValueError("a catalog representative is not finite; JSON "
                         "cannot hold it")
    return ("[\n          " + text[1:-1].replace(", ", ",\n          ")
            + "\n        ]")


def write_catalog_json(catalog: list[ComponentDescriptor], config: dict,
                       fileobj) -> None:
    """Write ``{"config": config, "components": [...]}`` exactly as
    ``json.dumps(..., sort_keys=True, indent=2)`` prints it, plus a newline.
    A component lists its label, phases as [numerator, denominator] pairs,
    parity, dimension, exact order, orbit size and its representative,
    row-major with full double precision, split into real and imaginary
    parts.  Raises ValueError for a non-finite representative: repr spells
    it nan or inf, where json.dumps prints NaN or Infinity, which is not
    JSON either."""
    entries = []
    for idx, comp in enumerate(catalog):
        rep = np.asarray(comp.representative)
        parity = comp.canonical.parity
        entries.append(_JSON_ENTRY.format(
            canonical=json.dumps(comp.canonical.label()), index=idx,
            dimension=comp.dimension, exact_order=comp.exact_order,
            group=json.dumps(comp.spec.family), n=comp.n,
            orbit_size=comp.orbit_size,
            parity="null" if parity is None else parity,
            phases=",\n".join(f"        [\n          {p.numerator},\n"
                               f"          {p.denominator}\n        ]"
                               for p in comp.canonical.phases),
            imag=(f'        "imag": {_json_floats(rep.imag)},\n'
                  if np.iscomplexobj(rep) else ""),
            real=_json_floats(rep.real),
            shape=",\n          ".join(map(str, rep.shape)),
            size=comp.spec.size))
    components = ("[\n" + ",\n".join(entries) + "\n  ]") if entries else "[]"
    config_text = json.dumps(config, sort_keys=True, indent=2)
    fileobj.write('{\n  "components": ' + components + ',\n  "config": '
                  + config_text.replace("\n", "\n  ") + "\n}\n")
