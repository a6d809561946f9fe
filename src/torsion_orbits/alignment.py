"""Eigenphases of group elements, snapped to the 1/n grid: the matrix ->
class direction of ``torsion``.

A class invariant needs no conjugator: ``_invariant_rows`` reads a stack
of members of any family off one stacked pass (``_eigen_rows``: one
eigensolve for U/SU and SO(m >= 3), the SO(4) parity off the sign of a
Pfaffian; SO(2) off one arctan2; SL(2,R) off ``_sl2_align_stack``), and
sends only a member it cannot decide to the per-member alignment
``_alignment``, one path for every family.  ``matrix_invariant`` is its
one-element case.  Where the conjugator is
wanted (``canonical_align``, ``_nearest_torsion``), an element is
decomposed once by ``_alignment``: a complex Schur form for U/SU, one real
Schur scan for SO, and ``_sl2_align`` for SL(2,R).  A stack of SL(2,R)
elements is aligned by ``_sl2_align_stack`` in closed form (one trace and
arctan2 per stack, the eigenvector read off the entries), off which the
SL(2,R) orientations are also read; ``_sl2_align`` and
``orientation_sign`` are its one-element cases.
Snapping refuses an n whose 1/n grid is finer than 2 SNAP_TOL, where every
phase would snap; nearest torsion approximation refuses an N whose half
step pi/N is within the float64 roundoff of its distance.  The snapped
numerators are canonicalized and realized by the exact rules of
``torsion``; this module holds every floating-point decision between a
matrix and those rules, and is the only one of the two that imports
scipy.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from scipy.linalg import schur

from .groups import (GroupSpec, UnsupportedGroupError, _frobenius,
                     positive_int, require_member)
from .torsion import (CanonicalInvariant, _canonical_rows, _realized_rows,
                      _row_invariant, torus_matrix)

#: Phases farther than this from every k/n grid point fail to snap.
SNAP_TOL = 1e-6


def _check_snap_grid(n) -> int:
    """n as a Python int, refused with ValueError unless it is a positive
    integer (``groups.positive_int``) whose 1/n grid is coarse enough to
    snap to: once 2 n SNAP_TOL >= 1, every phase lies within SNAP_TOL of
    some k/n, and a snap would accept any element as having order
    dividing n."""
    n = positive_int(n, "n")
    if 2 * n * SNAP_TOL >= 1:
        raise ValueError(
            f"n={n} is too large to recover phases on the 1/n grid: every "
            f"phase is within SNAP_TOL={SNAP_TOL:g} of a multiple of 1/n "
            f"once n >= 1/(2 SNAP_TOL) = {round(1 / (2 * SNAP_TOL)):,}")
    return n


def _snap(raw: np.ndarray, n: int):
    """(ks, off): every phase of the (count, slots) array ``raw`` rounded
    to the 1/n grid, as int64s k (phases k/n) in [0, n), 0 where ``off``
    marks a phase farther than SNAP_TOL from every k/n.  Raises ValueError
    for an n ``_check_snap_grid`` refuses."""
    n = _check_snap_grid(n)
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
                 "degenerate eigenvector; cannot align")


def _sl2_align_stack(g: np.ndarray):
    """(h, phases, refused) for the stack g of shape (count, 2, 2): where
    ``refused`` is 0, g_i = h_i R(2 pi phase_i) h_i^-1 with h_i in SL(2,R).

    Defined for elements of finite order: +-I (phases 0 and 1/2) and the
    elliptic ones, in closed form.  For g = [[a, b], [c, d]] with
    |trace| < 2, theta = arccos(trace/2) in (0, pi) and v = x + i y with
    x = (b, (d - a)/2), y = (0, sin theta) is (for det g = 1) an
    eigenvector for mu = e^(i theta); delta = det [x y] = b sin theta.
    Where b > 0, h = [x y]/sqrt(delta) and the phase is 1 - theta/2pi;
    where b < 0, h = [y x]/sqrt(-delta) and the phase is theta/2pi.  The
    refusal code indexes ``_SL2_REFUSALS``: 1 for |trace| >= 2 or a
    non-finite entry, 2 for a degenerate eigenvector, |delta| < 1e-12
    |v|^2; a refused slice has phase 0 and h = I.  Orientations are read
    off the phases: -1 in (0, 1/2), +1 in (1/2, 1)."""
    g = np.asarray(g, dtype=float)
    eye = np.eye(2)
    count = len(g)
    h = np.tile(eye, (count, 1, 1))
    phases = np.zeros(count)
    refused = np.zeros(count, dtype=np.int8)
    plus = _frobenius(g - eye) <= 1e-8
    minus = ~plus & (_frobenius(g + eye) <= 1e-8)
    phases[minus] = 0.5
    tr = np.trace(g, axis1=1, axis2=2)
    rest = ~(plus | minus)
    refused[rest & ((np.abs(tr) >= 2)
                    | ~np.isfinite(g).all(axis=(1, 2)))] = 1
    rest &= refused == 0
    tr, b = tr[rest], g[rest, 0, 1]
    half = 1 - tr * tr / 4
    theta = np.arctan2(np.sqrt(np.where(half > 0.0, half, 0.0)), tr / 2)
    x = np.stack([b, (g[rest, 1, 1] - g[rest, 0, 0]) / 2], axis=1)
    y = np.stack([np.zeros_like(b), np.sin(theta)], axis=1)
    delta = b * y[:, 1]
    degenerate = np.abs(delta) < 1e-12 * (x * x + y * y).sum(axis=1)
    where = np.flatnonzero(rest)
    refused[where[degenerate]] = 2
    ok, flip = ~degenerate, b < 0
    cols = np.where(flip[:, None, None], np.stack([y, x], axis=2),
                    np.stack([x, y], axis=2))
    cycles = theta / (2 * np.pi)
    h[where[ok]] = cols[ok] / np.sqrt(np.abs(delta[ok]))[:, None, None]
    phases[where[ok]] = np.where(flip, cycles, 1.0 - cycles)[ok]
    return h, phases, refused


def _sl2_align(g: np.ndarray):
    """(h, phase) with h in SL(2,R) and g = h R(2 pi phase) h^-1: the
    one-element case of ``_sl2_align_stack``, raising ValueError where it
    refuses."""
    h, phases, refused = _sl2_align_stack(np.asarray(g, dtype=float)[None])
    if refused[0]:
        raise ValueError(_SL2_REFUSALS[refused[0]])
    return h[0], float(phases[0])


def _alignment(spec: GroupSpec, g: np.ndarray):
    """(Q, raw phases) of a group member g, with g = Q t Q^-1 for t the
    torus point with those phases (cycles): a complex Schur form for a
    complex family, ``_so_torus_align`` for a real compact one and
    ``_sl2_align`` for SL(2,R)."""
    if spec.is_complex:
        return _unitary_eigenstructure(g)
    if spec.is_compact:
        return _so_torus_align(g)
    Q, phase = _sl2_align(g)
    return Q, [phase]


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
    torus_matrix(spec, realized).  The target is the catalog
    representative (``_realized_rows``) of the class of g's snapped phases,
    reached by reordering Q's columns (SO: and swapping plane bases).  Raises
    ValueError when g does not have order dividing n within SNAP_TOL.
    """
    Q, ks = _snapped_alignment(spec, g, n)
    canonical = _canonical_rows(spec, n, ks[None])
    realized = _realized_rows(n, canonical[:, :-1],
                              canonical[:, -1] == 1)[0].tolist()
    ks = ks.tolist()
    if spec.weyl == "permutations":
        Q = Q[:, sorted(range(len(ks)), key=ks.__getitem__)]
        if spec.phase_sum:
            Q = Q * np.exp(-1j * np.angle(np.linalg.det(Q)) / spec.size)
    elif spec.weyl == "signed":
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


def _invariant_rows(spec: GroupSpec, n: int, g: np.ndarray):
    """(canonical rows, errors) of a stack g of group members of order
    dividing n: ``_canonical_rows`` of each member's snapped phases, and
    ``errors[i]``, the error of member i's refused or failed alignment,
    else of its first phase off the grid, else None (row i is then
    meaningless).

    Every family is read off one stacked pass (``_eigen_rows``); a member
    it leaves undecided goes through the per-member alignment
    (``_alignment``) alone, which decides it, or raises the error, exactly
    as it would for that member by itself.  A compact member the
    eigenvalues decide is one the Schur path accepts too: a member's Schur
    form is diagonal to within its membership residual, far inside the
    1e-7 that path allows, and an SO member (det 1) has an even count of
    -1 eigenvalues.  Both read the same eigenvalues up to rounding, so
    they could snap a phase apart only within rounding of SNAP_TOL from
    the grid.  An SL(2,R) member is read off ``_sl2_align_stack`` on both
    paths, so the fallback raises the refusal or off-grid error of the
    slice the stack left undecided."""
    errors = [None] * len(g)
    ks, decided = _eigen_rows(spec, n, g)
    for i in np.flatnonzero(~decided):
        try:
            raw = np.array(_alignment(spec, g[i])[1], dtype=float, ndmin=2)
            ks[i] = _snap_rows(raw, n)[0]
        except ValueError as error:  # numpy's LinAlgError included
            errors[i] = error
    return _canonical_rows(spec, n, ks), errors


def _eigen_rows(spec: GroupSpec, n: int, g: np.ndarray):
    """(ks, decided) for a stack g of group members: in the rows where
    ``decided`` is set, phase numerators k (phases k/n) of a torus point
    conjugate to the member, read off one stacked pass.

    U/SU: the eigenphases snapped by ``_snap``.  SO(2): the phase of
    arctan2(g[1,0], g[0,0]).  SL(2,R): the phase of ``_sl2_align_stack``,
    undecided where it refuses the slice.  SO(m), m >= 3: the snapped
    eigenphases with one phase 0 dropped for odd m, folded to one k <= n/2
    per conjugate pair.  A class of SO(4) with no phase 0 or 1/2 splits by
    parity, read off the sign of the Pfaffian of (g - g^T)/2: conjugation
    by SO(4) keeps it, and on the torus it is sin(2 pi k1/n) sin(2 pi
    k2/n), so a negative one takes the last pair's k -> n - k.  GroupSpec
    caps sizes at MAX_SIZE = 5, so SO(4) is the only SO(2r), r >= 2.  A
    row is undecided where a phase does not snap, the phases do not pair
    up as a real orthogonal matrix's do, or the Pfaffian is below half its
    torus value, too close to 0 for its sign to be trusted."""
    refused = 0
    if not spec.is_complex:
        g = np.asarray(g, dtype=float)
    if not spec.is_compact:
        _, raw, refused = _sl2_align_stack(g)
        raw = raw[:, None]
    elif spec.weyl == "trivial":
        raw = np.arctan2(g[:, 1, 0], g[:, 0, 0])[:, None] / (2 * np.pi) % 1.0
    else:
        raw = np.angle(np.linalg.eigvals(g)) / (2 * np.pi) % 1.0
    ks, off = _snap(raw, n)
    decided = ~off.any(axis=1) & (refused == 0)
    if spec.weyl != "signed":
        return ks, decided
    ks = np.sort(ks, axis=1)
    decided &= (ks == np.sort((n - ks) % n, axis=1)).all(axis=1)
    folded = np.sort(np.minimum(ks, n - ks), axis=1)
    if spec.size % 2:  # the fixed axis
        decided &= folded[:, 0] == 0
        folded = folded[:, 1:]
    pairs = folded[:, 0::2]
    decided &= (pairs == folded[:, 1::2]).all(axis=1)
    if spec.parity_split:
        a = (g - g.swapaxes(1, 2)) / 2
        pf = (a[:, 0, 1] * a[:, 2, 3] - a[:, 0, 2] * a[:, 1, 3]
              + a[:, 0, 3] * a[:, 1, 2])
        free = ((pairs != 0) & (2 * pairs != n)).all(axis=1)
        torus = np.prod(np.sin(2 * np.pi * pairs / n), axis=1)
        decided &= ~free | (np.abs(pf) >= torus / 2)
        flip = free & (pf < 0)
        pairs[flip, -1] = n - pairs[flip, -1]
    return pairs, decided


def approximation_bound(spec: GroupSpec, N: int, corrections: int = 0) -> float:
    """Worst-case Frobenius distance of nearest_torsion_approximant: each
    eigenphase moves by at most pi/N (3pi/N for the phases adjusted to
    restore det = 1 in SU)."""
    p = spec.eigenphase_count
    c = min(corrections, p)
    return (2 * np.pi / N) * float(np.sqrt((p - c) * 0.25 + c * 2.25))


def _rounding_slack(spec: GroupSpec) -> float:
    """A priori bound on the float64 error of the distance that
    ``_nearest_torsion`` computes for a member of size m, with u = 2^-53
    the unit roundoff: the decomposition's backward error, m u ||g||_F =
    m^(3/2) u; forming Q t Q^-1, two products of length m whose entries
    |Q| |t| |Q^-1| are at most 1, at most 3 m (m + 2) u; and, per phase,
    reading its angle (arctan2, the scaling by 1/2 pi, the mod 1: 5 pi u)
    and forming the grid angle 2 pi k/N and its exp, or cos and sin
    (5 pi u), so 10 pi sqrt(m) u over the phases.  Their sum is below
    5 (m + 2)^2 u at every size up to MAX_SIZE; the slack doubles it for
    the unstated constant of LAPACK's backward-error bound.  It enters
    the pass decision, never the printed distance or bound."""
    return 10 * (spec.size + 2) ** 2 * 2.0 ** -53


def _refuse_nearest(spec: GroupSpec, N: int) -> int:
    """The refusals of nearest torsion approximation that precede
    membership; returns N as an int.  Refuses SL(2,R), then an N that is
    not a positive integer (``positive_int``), then one whose rounding
    float64 cannot resolve: once a phase's half grid step pi/N is no
    larger than the distance's roundoff (``_rounding_slack``), a rounding
    one step off is as good as the right one."""
    if not spec.is_compact:
        raise UnsupportedGroupError(
            "nearest torsion approximation is defined for the compact families")
    N, slack = positive_int(N, "N"), _rounding_slack(spec)
    limit = int(np.ceil(np.pi / slack))
    if N >= limit:
        raise ValueError(
            f"N={N} is too large to round {spec.label()} to the 1/N grid in "
            f"float64: the half step pi/N is within the roundoff {slack:.3g} "
            f"of the distance once N >= pi/{slack:.3g} = {limit:,}")
    return N


def _nearest_torsion(spec: GroupSpec, g: np.ndarray, N: int):
    """(approx, distance, bound, passed) for a group member g: each phase
    of ``_alignment`` rounded to the 1/N grid (SU: the rounded sum pushed
    back onto the grid with minimal extra movement), and whether the
    distance is within the bound up to ``_rounding_slack``.  Neither
    membership nor the refusals of ``_refuse_nearest`` are checked here:
    the callers check both first."""
    Q, phases = _alignment(spec, g)
    phases = np.asarray(phases)
    ks = np.rint(phases * N).astype(int)
    corrections = 0
    if spec.phase_sum:
        # det g = 1 means the raw phases sum to an integer
        s = int(ks.sum()) - int(np.rint(phases.sum())) * N
        while s != 0:
            step = -1 if s > 0 else 1
            # step toward the grid on the phase that overshot most
            j = int(np.argmax(step * (phases * N - ks)))
            ks[j] += step
            s += step
            corrections += 1
    if spec.is_complex:
        t = np.diag(np.exp(2j * np.pi * (ks % N) / N))
    else:
        t = torus_matrix(spec, ks % N / N)
    approx = Q @ t @ Q.conj().T
    distance = float(np.linalg.norm(g - approx))
    bound = approximation_bound(spec, N, corrections)
    return approx, distance, bound, distance <= bound + _rounding_slack(spec)


def nearest_torsion_approximant(spec: GroupSpec, g: np.ndarray, N: int):
    """Element of order dividing N near g, found by rounding eigenphases to
    the 1/N grid (SU determinants restored on-grid).

    Returns (approx, distance); the distance obeys approximation_bound
    up to float64 roundoff (``_rounding_slack``).
    Refuses SL(2,R), then an N that is not a positive integer or too
    large to round at in float64 (``_refuse_nearest``), then a
    non-member.
    """
    N = _refuse_nearest(spec, N)
    return _nearest_torsion(spec, require_member(spec, g), N)[:2]


def orientation_sign(g: np.ndarray) -> int:
    """Conjugation-invariant orientation of an elliptic SL(2,R) element.

    The one-element case of ``_orientations``: -1 when g is conjugate to a
    rotation by a phase in (0, 1/2), +1 for a phase in (1/2, 1), and 0 for
    +-I, for any input ``_sl2_align_stack`` refuses (|trace| >= 2, a
    non-finite entry, a degenerate eigenvector) and for an input whose
    shape is not (2, 2).  It is the sign of det [Re v, Im v] for v an
    eigenvector of the eigenvalue with positive imaginary part, which
    conjugation by det h = 1 and complex rescaling of v leave unchanged;
    for g = [[a, b], [c, d]] that is the sign of b: v = (b, mu - a) gives
    det [Re v, Im v] = b sin theta with sin theta > 0, and b is not 0, as
    bc = ad - 1 < -((a - d)/2)^2 <= 0 when (a + d)^2 < 4.
    """
    try:
        g = np.asarray(g, dtype=float)
    except ValueError:  # ragged, or not numbers
        return 0
    if g.shape != (2, 2):
        return 0
    _, phases, refused = _sl2_align_stack(g[None])
    return int(_orientations(phases, refused)[0])


def _orientations(phases: np.ndarray, refused: np.ndarray) -> np.ndarray:
    # orientation_sign of each slice of an _sl2_align_stack result
    sigma = np.where(phases < 0.5, -1, 1)
    sigma[(refused != 0) | (phases == 0.0) | (phases == 0.5)] = 0
    return sigma
