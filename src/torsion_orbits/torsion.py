"""Torsion points of maximal tori and their conjugation-orbit catalogs,
decided exactly.

Every g with g^n = e in one of the supported groups is conjugate to a point
of the standard maximal torus whose block phases are exact fractions k/n.
Conjugation permutes and (family permitting) reflects those phases, so an
orbit is labeled by a canonical invariant: the Weyl-reduced phase multiset.
The phase rules have one implementation, on integer numerators k (phase
k/n): ``_class_rows`` builds one integer class table, a row per class with
its invariant, orbit size and dimension, so a catalog costs time in the
classes rather than in the n^rank torus points; ``_torsion_rows`` decodes
point indices, ``_canonical_rows`` canonicalizes, ``_dimension_rows``
reads dimensions off phase multiplicities and ``_realized_rows`` picks
each class's representative.  The ``Fraction`` API (``canonicalize``,
``torsion_point``, ``orbit_dimension``) is a view over them that builds
``Fraction``s only for what it returns.  A catalog is one class table
read in blocks (``_catalog_blocks``): each block is a slice of the
table's columns (phase numerators, parity, orbit size, dimension, order)
and the numerators of its representatives' phases; it builds no matrix.
One printer per format (text, CSV, JSON) prints blocks from one text
table per catalog (``_CatalogTable``), indexed by numerator: a label
part, a JSON pair and, since row i of a torus element reads one phase
(``_row_slots``), the text of each representative row at each phase, m
x n per part, printed once from a stack of n torus points.  A JSON block
is one join of the entry template's constant pieces and those texts.  So
the CLI holds one block at a time and builds no per-class object.
``catalog_components`` reads the same blocks as
``ComponentDescriptor``s, with one torus stack per block.
``count_components`` is a closed form.  A class-by-class walk in the
tests is the oracle of the table and of the count.  Every rule branches
on the shapes ``GroupSpec`` derives from its family record (``weyl``,
``parity_split``, ``phase_sum``, ``phase_slots``), never on a family tag.

This layer reads no matrix and imports no scipy: the catalogs, counts and
``verify gcd`` need only numpy, ``groups`` and ``reports``.  The opposite
direction, a matrix's class read off its eigenphases, is
``alignment``; the censuses, which draw conjugates of torus points and read
their classes back, are in ``sweeps``.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_string

import numpy as np

from .groups import GroupSpec, positive_int
from .reports import (VerificationReport, _json_list, _json_nested,
                      single_trial_report)

#: Catalogs, counts and censuses refuse a group and order whose
#: class_count_bound exceeds this.
MAX_CLASSES = 2_000_000


@dataclass(frozen=True)
class TorusTorsionPoint:
    """Point of the standard maximal torus with exact rational phases."""

    spec: GroupSpec
    phases: tuple

    def __post_init__(self):
        phases = tuple(Fraction(p) for p in self.phases)
        object.__setattr__(self, "phases", phases)
        if len(phases) != self.spec.phase_slots:
            raise ValueError(
                f"expected {self.spec.phase_slots} phases, got {len(phases)}")
        if any(p < 0 or p >= 1 for p in phases):
            raise ValueError("phases must lie in [0, 1)")
        if self.spec.phase_sum and sum(phases) % 1 != 0:
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
    m, slots = spec.size, spec.phase_slots
    if phases.ndim != 2 or phases.shape[1] != slots:
        raise ValueError(f"expected {slots} phases")
    if spec.is_complex:
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
    if m % 2:  # the fixed axis
        out[:, m - 1, m - 1] = 1.0
    return out


def _row_slots(spec: GroupSpec) -> np.ndarray:
    """The slot whose phase row i of a ``torus_stack`` element reads: slot
    i for U and SU, slot i // 2 for a rotation block (SO, SL(2,R)), and -1
    for the fixed axis of odd SO(m), whose row reads no phase."""
    rows = np.arange(spec.size)
    if spec.is_complex:
        return rows
    return np.where(rows < 2 * spec.phase_slots, rows // 2, -1)

def torsion_point_count(spec: GroupSpec, n: int) -> int:
    """Number of torus points killed by n: n^rank (for SU the sum
    constraint fixes the last of the m phases)."""
    return positive_int(n, "n") ** spec.rank


def torsion_point(spec: GroupSpec, n: int, i: int) -> TorusTorsionPoint:
    """The i-th torus point killed by n, in lexicographic order of the
    phase vectors (SU: of their free phases), decoded in O(rank) by
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

def _torsion_rows(spec: GroupSpec, n: int, indices) -> np.ndarray:
    """Phase numerators k (phases k/n) of the torus points killed by n with
    the given indices, one row per index: the free phases are the base-n
    digits of the index, most significant first, and the last SU phase is
    minus their sum.  The rows are int64, or Python ints when the point
    count does not fit in int64."""
    wide = torsion_point_count(spec, n) > np.iinfo(np.int64).max
    indices = np.array(indices, dtype=object if wide else np.int64)
    rows = np.empty((len(indices), spec.phase_slots), dtype=indices.dtype)
    for j in reversed(range(spec.rank)):
        indices, rows[:, j] = indices // n, indices % n
    if spec.phase_sum:
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


def _scaled(phases) -> tuple:
    """(n, ks), Python ints with ``phases[i] % 1 == ks[i] / n`` exactly
    (floats too): n is the lcm of the phases' denominators."""
    phases = [Fraction(p) % 1 for p in phases]
    n = math.lcm(*(p.denominator for p in phases))
    return n, [p.numerator * (n // p.denominator) for p in phases]

def _canonical_rows(spec: GroupSpec, n: int, ks: np.ndarray) -> np.ndarray:
    """``canonicalize`` of each row of ints k in [0, n) (phases k/n; int64
    or Python ints), as an int row: the canonical numerators, then the
    parity bit or -1."""
    parity = np.full((len(ks), 1), -1)
    if spec.weyl == "permutations":
        return np.hstack([np.sort(ks, axis=1), parity])
    if spec.weyl == "trivial":
        return np.hstack([ks, parity])
    folded = np.minimum(ks, n - ks)
    if spec.parity_split:
        free = ((folded != 0) & (2 * folded != n)).all(axis=1)
        flips = (2 * ks > n).sum(axis=1) % 2
        parity[free, 0] = flips[free]
    return np.hstack([np.sort(folded, axis=1), parity])


def _realized_rows(n: int, ks: np.ndarray, flip: np.ndarray) -> np.ndarray:
    """Catalog representatives of canonical rows: the rows of canonical
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

def orbit_dimension(spec: GroupSpec, canonical: CanonicalInvariant) -> int:
    """Dimension of the class labeled by ``canonical``: dim G - dim Z(t),
    with the centralizer dimension read off the phase multiplicities.

    A family that is not orthogonal (U, SU, and SL(2,R), a real form of
    SL(2, C)): an eigenphase of multiplicity c contributes gl(c), so the
    orbit has dimension m^2 - sum c^2 over the eigenphases (a rotation
    block has two, k/n and -k/n): +-I are central, every elliptic class of
    SL(2,R) is a 2-dimensional orbit.  SO(N): the a-dimensional +1 and
    b-dimensional -1 eigenspaces contribute so(a) and so(b), each other
    folded phase of multiplicity c contributes u(c).  The one-row case of
    ``_dimension_rows``."""
    n, ks = _scaled(canonical.phases)
    return int(_dimension_rows(spec, n, np.array([ks], dtype=object))[0])


def _run_places(rows: np.ndarray) -> np.ndarray:
    """Each entry's 1-based place in its run of equal entries, for rows
    sorted along axis 1.  A run of length c holds the places 1..c, so a
    row's product of places is the product of its runs' c!, and its sum of
    2 * place - 1 is the sum of their c^2."""
    places = np.ones(rows.shape, dtype=np.int64)
    for j in range(1, rows.shape[1]):
        same = rows[:, j] == rows[:, j - 1]
        places[same, j] = places[same, j - 1] + 1
    return places


def _dimension_rows(spec: GroupSpec, n: int, ks: np.ndarray) -> np.ndarray:
    """``orbit_dimension`` of each row of ints k in [0, n) (phases k/n, in
    any order; int64 or Python ints)."""
    if not spec.record.orthogonal:
        # the eigenphases: the ks, or k and -k of each rotation block
        eigen = ks if spec.is_complex else np.hstack([ks, (n - ks) % n])
        squares = 2 * _run_places(np.sort(eigen, axis=1)) - 1
        return spec.size ** 2 - squares.sum(axis=1)
    folded = np.sort(np.minimum(ks, n - ks), axis=1)
    zero, half = folded == 0, 2 * folded == n
    a = 2 * zero.sum(axis=1) + spec.size % 2
    b = 2 * half.sum(axis=1)
    paired = ((2 * _run_places(folded) - 1) * ~(zero | half)).sum(axis=1)
    return spec.dim - (a * (a - 1) // 2 + b * (b - 1) // 2 + paired)


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
    the number of multisets ``_class_keys`` lists: C(n+m-1, m) for U(m) and
    SU(m), 2 C(n//2 + r, r) for SO(m) of rank r, m >= 3, and n for SO(2) and
    SL(2,R)."""
    if spec.weyl == "permutations":
        return math.comb(n + spec.size - 1, spec.size)
    if spec.weyl == "signed":
        return 2 * math.comb(n // 2 + spec.rank, spec.rank)
    return n


def _class_keys(spec: GroupSpec, n: int) -> tuple:
    """(ks, parity) for the classes of {g : g^n = e}, one row per class in
    sort order, as int64 arrays: ks are the canonical phase numerators
    (phases k/n), parity the SO(2r) bit or -1.

    The rows are the invariants themselves, in time proportional to the
    multisets listed: sorted phase multisets (SU: those summing to an
    integer) for U/SU; for SO, multisets of folded phases f/n with
    f <= n/2, and for SO(2r), r >= 2, a split into two parity classes when
    every slot is off {0, n/2}; the n phases k/n for SO(2) and SL(2,R).
    Raises ValueError when ``class_count_bound`` exceeds MAX_CLASSES."""
    n = _check_class_budget(spec, n)
    if spec.weyl == "trivial":
        return np.arange(n)[:, None], np.full(n, -1)
    top = n if spec.weyl == "permutations" else n // 2 + 1
    slots = spec.phase_slots
    multisets = itertools.combinations_with_replacement(range(top), slots)
    ks = np.fromiter(itertools.chain.from_iterable(multisets), dtype=np.int64,
                     count=math.comb(top + slots - 1, slots) * slots)
    ks = ks.reshape(-1, slots)
    if spec.phase_sum:
        ks = ks[ks.sum(axis=1) % n == 0]
    if not spec.parity_split:
        return ks, np.full(len(ks), -1)
    split = ((ks != 0) & (2 * ks != n)).all(axis=1)
    copies = 1 + split
    parity = np.repeat(np.where(split, 0, -1), copies)
    parity[np.cumsum(copies)[split] - 1] = 1
    return np.repeat(ks, copies, axis=0), parity


def _class_rows(spec: GroupSpec, n: int) -> tuple:
    """The class table of {g : g^n = e}: int64 arrays (ks, parity, orbit
    size, dimension), one row per class in sort order, with ks and parity
    from ``_class_keys``.  The orbit size counts the torus points in the
    class: the distinct orderings of ks, m!/prod c!, times 2 for each SO
    slot off {0, n/2}, halved between the two parity classes of a split."""
    ks, parity = _class_keys(spec, n)
    orbit = math.factorial(ks.shape[1]) // _run_places(ks).prod(axis=1)
    if spec.weyl == "signed":
        orbit <<= ((ks != 0) & (2 * ks != n)).sum(axis=1)
        orbit[parity >= 0] //= 2
    return ks, parity, orbit, _dimension_rows(spec, n, ks)


def _table_invariants(grid: list, ks: list, parity: list) -> list:
    # the CanonicalInvariants of class-table rows (lists of ints), their
    # phases read off the grid of Fractions that the ints k index
    return [CanonicalInvariant(tuple(grid[k] for k in row),
                               None if bit < 0 else bit)
            for row, bit in zip(ks, parity)]


def class_table(spec: GroupSpec, n: int) -> dict:
    """{canonical invariant: orbit size} over the classes of {g : g^n = e},
    in sort order; the orbit size counts the torus points in the class.
    Built from the invariants themselves (see ``_class_rows``), in time
    proportional to the class count.  Raises ValueError when
    ``class_count_bound`` exceeds MAX_CLASSES."""
    ks, parity, orbit, _ = _class_rows(spec, n)
    grid = [Fraction(k, n) for k in range(n)]
    return dict(zip(_table_invariants(grid, ks.tolist(), parity.tolist()),
                    orbit.tolist()))


def catalog_components(spec: GroupSpec, n: int) -> list[ComponentDescriptor]:
    """Complete catalog of orbits of {g : g^n = e}, sorted by canonical
    invariant.  One entry per Weyl orbit of torsion points: the join of
    the blocks of ``_catalog_blocks``, each read as its components."""
    return list(itertools.chain.from_iterable(_catalog_blocks(spec, n)))


class _CatalogTable:
    """What the blocks of one catalog of {g : g^n = e} print from, made
    once per catalog, on first use.  Indexed by phase numerator k (phase
    k/n, in lowest terms the (numerator, denominator) pair ``pairs[k]``):
    label parts "num/den" and Fractions, and the JSON tables (``json``);
    the ints below ``top`` (every dimension, order and orbit size of the
    catalog) print from ``json`` too."""

    def __init__(self, spec: GroupSpec, n: int, top: int):
        self.spec, self.n, self.top = spec, n, top
        k = np.arange(n)
        gcd = np.gcd(k, n)
        self.pairs = list(zip((k // gcd).tolist(), (n // gcd).tolist()))

    @functools.cached_property
    def label_parts(self) -> list:
        return [f"{a}/{b}" for a, b in self.pairs]

    @functools.cached_property
    def fractions(self) -> list:
        return [Fraction(a, b) for a, b in self.pairs]

    @functools.cached_property
    def json(self) -> tuple:
        """(template, parts, pairs, numerals, rows) of ``_json_blocks``: the
        constant pieces of an entry, between which its cells go (the first
        opens with the separator from the entry before), and object arrays
        of texts: the label parts and JSON pairs by k, the ints
        below ``top``, and per part of the representatives (imaginary, then
        real, for a complex family) an (m, n) array holding row i at phase
        k/n.  Row i of a representative reads one phase (``_row_slots``),
        so the rows are those of the n torus points with every slot at
        phase k/n, refused when not finite: json.dumps would print NaN or
        Infinity, which is not JSON."""
        m, slots = self.spec.size, self.spec.phase_slots
        stack = torus_stack(self.spec, np.repeat(np.arange(self.n)[:, None]
                                                 / self.n, slots, axis=1))
        if not np.isfinite(stack).all():
            raise ValueError("a catalog representative is not finite; JSON "
                             "cannot hold it")
        parts = (stack.imag, stack.real) if stack.dtype.kind == "c" else (
            stack,)
        floats = _json_list([_CELL] * m, _PART_PAD)
        imag = f'        "imag": {floats},\n' if len(parts) == 2 else ""
        template = f"""\
,
    {{
      "canonical": "{",".join([_CELL] * slots)}{_CELL}",
      "component_index": {_CELL},
      "dimension": {_CELL},
      "exact_order": {_CELL},
      "group": {_json_string(self.spec.family)},
      "n": {self.n},
      "orbit_size": {_CELL},
      "parity": {_CELL},
      "phases": {_json_list([_CELL] * slots, _PHASES_PAD)},
      "representative": {{
{imag}        "real": {floats},
        "shape": {_json_list([str(m), str(m)], _PART_PAD)}
      }},
      "size": {m}
    }}""".split(_CELL)
        texts = [template, self.label_parts,
                 [_json_list([str(a), str(b)], _PART_PAD)
                  for a, b in self.pairs], list(map(str, range(self.top)))]
        return (*(np.array(t, dtype=object) for t in texts), [np.array(
            [_FLOAT_SEP.join(map(repr, row.tolist())) for row in
             part.transpose(1, 0, 2).reshape(m * self.n, m)],
            dtype=object).reshape(m, self.n) for part in parts])


@dataclass
class _CatalogBlock:
    """Consecutive catalog entries of one group and n, as columns: each
    entry's row of ks (numerators k of its canonical phases k/n, in
    order), parity bit (-1 for none), orbit size, dimension and exact
    order, and the numerators of its representative's phases
    (``_realized_rows``).  The numerators index the catalog's ``table``.
    Iterating a block gives its ``ComponentDescriptor``s, with their
    representatives from one ``torus_stack``; the printers read the
    columns and build no representative."""

    spec: GroupSpec
    n: int
    ks: np.ndarray
    parity: np.ndarray
    orbit: list
    dimension: list
    order: list
    realized: np.ndarray
    table: _CatalogTable

    def __len__(self) -> int:
        return len(self.ks)

    def __iter__(self):
        return map(functools.partial(ComponentDescriptor, self.spec, self.n),
                   _table_invariants(self.table.fractions, self.ks.tolist(),
                                     self.parity.tolist()),
                   torus_stack(self.spec, self.realized / self.n),
                   self.dimension, self.order, self.orbit)


#: Catalog entries per block of ``_catalog_blocks``.
_BLOCK = 256


def _catalog_blocks(spec: GroupSpec, n: int):
    """The catalog of {g : g^n = e} in order, as ``_CatalogBlock``s of at
    most ``_BLOCK`` classes: slices of one ``_class_rows`` table, whose ks
    are the phase numerators (phases k/n), with the realized numerators of
    their representatives and one ``_CatalogTable`` per catalog.  Raises
    ValueError where ``_class_keys`` does, at the first block."""
    n = positive_int(n, "n")
    ks, parity, orbit, dimension = _class_rows(spec, n)
    orders = n // np.gcd.reduce(ks, axis=1, initial=n)
    table = _CatalogTable(spec, n, max(n, orbit.max(), dimension.max()) + 1)
    for at in range(0, len(ks), _BLOCK):
        rows = slice(at, at + _BLOCK)
        yield _CatalogBlock(spec, n, ks[rows], parity[rows],
                            orbit[rows].tolist(), dimension[rows].tolist(),
                            orders[rows].tolist(),
                            _realized_rows(n, ks[rows], parity[rows] == 1),
                            table)


def count_components(spec: GroupSpec, n: int) -> int:
    """Number of conjugation orbits of {g : g^n = e}, in closed form: the
    number of Weyl orbits on the torus points killed by n, which
    ``_class_keys`` lists one by one (Đoković, Proc. AMS 80, 1980).

    U(m): C(n+m-1, m) phase multisets.  SU(m): the m-multisets of Z/n
    summing to 0, (1/n) sum over d | gcd(n, m) of phi(d) C(n/d + m/d - 1,
    m/d).  SO(2r+1): C(f + r, r) multisets of the f + 1 folded phases,
    f = n // 2; SO(2r), r >= 2, adds C(h + r - 1, r) for the classes with
    every phase among the h = (n - 1) // 2 free ones, which split by
    parity.  SO(2) and SL(2,R): n.  For U(m), SO(2) and SL(2,R) that is
    ``class_count_bound``, which is exact for them.  Raises ValueError
    where ``_class_keys`` does: n < 1, or ``class_count_bound`` above
    MAX_CLASSES."""
    n = _check_class_budget(spec, n)
    m, r = spec.size, spec.rank
    if spec.phase_sum:
        return sum(_totient(d) * math.comb(n // d + m // d - 1, m // d)
                   for d in range(1, m + 1)
                   if n % d == 0 and m % d == 0) // n
    if spec.weyl != "signed":
        return class_count_bound(spec, n)
    count = math.comb(n // 2 + r, r)
    if spec.parity_split:
        count += math.comb((n - 1) // 2 + r - 1, r)
    return count


def _totient(d: int) -> int:
    # Euler's phi: the residues mod d prime to d
    return sum(1 for k in range(1, d + 1) if math.gcd(k, d) == 1)


def _check_class_budget(spec: GroupSpec, n: int) -> int:
    """n as an int (``positive_int``); refuses a group and order whose
    ``class_count_bound`` exceeds MAX_CLASSES."""
    n = positive_int(n, "n")
    bound = class_count_bound(spec, n)
    if bound > MAX_CLASSES:
        raise ValueError(
            f"{spec.label()} n={n} has up to {bound:,} classes, above the "
            f"limit of {MAX_CLASSES:,}")
    return n


def gcd_intersection_check(spec: GroupSpec, n: int, m: int) -> VerificationReport:
    """Check that the invariant sets satisfy set(n) & set(m) == set(gcd(n,m)).

    Each class is keyed by its canonical phases scaled to the common
    denominator lcm(n, m), plus its parity, so the same orbit gets the same
    key no matter which n produced it; the check is exact.  A key is one
    class-table row, compared as one opaque array item.
    """
    t0 = time.perf_counter()
    n, m = positive_int(n, "n"), positive_int(m, "m")
    g, common = math.gcd(n, m), math.lcm(n, m)
    width = spec.phase_slots + 1

    def keys(order):
        ks, parity = _class_keys(spec, order)
        ks *= common // order
        rows = np.column_stack([ks, parity])
        return rows.view(np.dtype((np.void, rows.itemsize * width))).ravel()

    s_n, s_m, s_g = keys(n), keys(m), keys(g)
    inter = np.intersect1d(s_n, s_m, assume_unique=True)
    mismatch = np.setxor1d(inter, s_g, assume_unique=True)
    labels = sorted(_row_invariant(common, row).label() for row in
                    mismatch.view(np.int64).reshape(-1, width).tolist())[:10]
    inputs = {"group": spec.label(), "n": n, "m": m, "gcd": g}
    details = {"count_n": len(s_n), "count_m": len(s_m),
               "count_gcd": len(s_g), "count_intersection": len(inter),
               "mismatched_invariants": labels}
    return single_trial_report(
        "gcd-intersection", inputs, {"mismatch_count": float(len(mismatch))},
        passed=not len(mismatch), config={"check": "gcd-intersection"},
        details=details, wall_time_s=time.perf_counter() - t0,
        worst_residual=float(len(mismatch)))


# ---------------------------------------------------------------------------
# catalog serialization

CATALOG_CSV_COLUMNS = ("group", "size", "n", "component_index", "canonical",
                       "dimension", "exact_order")


def _labels(block: _CatalogBlock) -> list:
    # each entry's CanonicalInvariant.label, from the catalog's table
    parts = block.table.label_parts
    return [",".join([parts[k] for k in row] + ([] if bit < 0 else
                                                [f"p{bit}"]))
            for row, bit in zip(block.ks.tolist(), block.parity.tolist())]


def _csv_blocks(blocks):
    # the catalog given as blocks as CSV with the CATALOG_CSV_COLUMNS
    # header, one row per component, as csv.writer prints it (a label
    # holding a comma is quoted); one piece per block, the header with
    # the first
    head, index = ",".join(CATALOG_CSV_COLUMNS) + "\n", 0
    for block in blocks:
        row = f"{block.spec.family},{block.spec.size},{block.n},%d,%s,%s,%s\n"
        labels = [f'"{label}"' if "," in label else label
                  for label in _labels(block)]
        yield head + "".join(map(row.__mod__, zip(
            itertools.count(index), labels, block.dimension, block.order)))
        head, index = "", index + len(block)


def _text_blocks(spec: GroupSpec, n: int, blocks):
    # the text catalog of {g : g^n = e}, given as blocks: a count line,
    # then one line per component; one piece per block
    head = f"{spec.label()} n={n}: {count_components(spec, n)} components\n"
    index = 0
    for block in blocks:
        yield head + "".join(map(
            "  [%d] %-24s dim=%s order=%s orbit=%s\n".__mod__,
            zip(itertools.count(index), _labels(block), block.dimension,
                block.order, block.orbit)))
        head, index = "", index + len(block)


#: Indents of the closing brackets of an entry's phases and of the lists
#: inside its representative, and the separator of a list's floats.
_PHASES_PAD, _PART_PAD = " " * 6, " " * 8
_FLOAT_SEP = ",\n" + _PART_PAD + "  "

#: Where an entry's cells go in its template; no printed text holds it.
_CELL = "\0"

#: An entry's label suffix and parity text, by parity bit + 1.
_PARITY_SUFFIXES = np.array(["", ",p0", ",p1"], dtype=object)
_PARITY_TEXTS = np.array(["null", "0", "1"], dtype=object)


def _json_blocks(blocks, config: dict):
    """``{"config": config, "components": [...]}`` for a catalog given as
    blocks, exactly as ``json.dumps(..., sort_keys=True, indent=2)`` prints
    it, plus a newline: one piece per block, then the closing text.  A
    component lists its label, phases as [numerator, denominator] pairs,
    parity, dimension, exact order, orbit size and its representative,
    row-major with full double precision, split into real and imaginary
    parts.  A block's piece is one join: the constant pieces of its
    catalog's entry template (``_CatalogTable.json``), each entry's cells
    between them, read off the catalog's tables by the block's columns.
    The tables are made, and their representatives refused when not
    finite, before the catalog's first piece."""
    index = 0
    for block in blocks:
        template, parts, pairs, numerals, rows = block.table.json
        count, bit = len(block), block.parity + 1
        slot = block.realized[:, _row_slots(block.spec)]
        cells = np.empty((count, 2 * len(template) - 1), dtype=object)
        cells[:, ::2] = template
        cells[:, 1::2] = np.hstack([
            parts[block.ks], _PARITY_SUFFIXES[bit, None],
            np.array(list(map(str, range(index, index + count))),
                     dtype=object)[:, None],
            numerals[np.array([block.dimension, block.order, block.orbit]).T],
            _PARITY_TEXTS[bit, None], pairs[block.ks],
            *(texts[np.arange(block.spec.size), slot] for texts in rows)])
        if not index:  # the document's head, not a separator, comes first
            cells[0, 0] = '{\n  "components": [\n' + cells[0, 0][2:]
        yield "".join(cells.ravel().tolist())
        index += count
    yield (("\n  ]" if index else '{\n  "components": []') + ',\n  "config": '
           + _json_nested(config, "  ") + "\n}\n")
