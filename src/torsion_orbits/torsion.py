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
``Fraction``s only for what it returns.  A catalog builds its
representatives as one torus stack, and its JSON streams from a fixed
template with one float text per distinct value; ``count_components`` is
a closed form.  A class-by-class walk in the tests is the oracle of the
table and of the count.

This layer reads no matrix and imports no scipy: the catalogs, counts and
``verify gcd`` need only numpy, ``groups`` and ``reports``.  The opposite
direction, a matrix's class read off its eigenphases, is
``alignment``; the censuses, which draw conjugates of torus points and read
their classes back, are in ``sweeps``.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_string

import numpy as np

from .groups import GroupSpec
from .reports import VerificationReport, single_trial_report

#: Catalogs, counts and censuses refuse a group and order whose
#: class_count_bound exceeds this.
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

def torsion_point_count(spec: GroupSpec, n: int) -> int:
    """Number of torus points killed by n: n^rank (for SU the sum
    constraint fixes the last of the m phases)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return n ** spec.rank


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

    U/SU: a phase of multiplicity c contributes u(c), so the orbit has
    dimension m^2 - sum c^2.  SO(N): the a-dimensional +1 and b-dimensional
    -1 eigenspaces contribute so(a) and so(b), each other folded phase of
    multiplicity c contributes u(c).  SL(2,R): +-I are central, every
    elliptic class is a 2-dimensional orbit.  The one-row case of
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
    if spec.family == "SL2R":
        return np.where(2 * ks[:, 0] % n == 0, 0, 2)
    if spec.family in ("U", "SU"):
        squares = 2 * _run_places(np.sort(ks, axis=1)) - 1
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
    if spec.family in ("U", "SU"):
        return math.comb(n + spec.size - 1, spec.size)
    if spec.family == "SO" and spec.size > 2:
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
    _check_class_budget(spec, n)
    if spec.family == "SL2R" or (spec.family == "SO" and spec.size == 2):
        return np.arange(n)[:, None], np.full(n, -1)
    top = n if spec.family in ("U", "SU") else n // 2 + 1
    slots = phase_slots(spec)
    multisets = itertools.combinations_with_replacement(range(top), slots)
    ks = np.fromiter(itertools.chain.from_iterable(multisets), dtype=np.int64,
                     count=math.comb(top + slots - 1, slots) * slots)
    ks = ks.reshape(-1, slots)
    if spec.family == "SU":
        ks = ks[ks.sum(axis=1) % n == 0]
    if spec.family != "SO" or spec.size % 2:
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
    if spec.family == "SO" and spec.size > 2:
        orbit <<= ((ks != 0) & (2 * ks != n)).sum(axis=1)
        orbit[parity >= 0] //= 2
    return ks, parity, orbit, _dimension_rows(spec, n, ks)


def _table_invariants(n: int, ks: np.ndarray, parity: np.ndarray) -> list:
    # the CanonicalInvariants of class-table rows, from one Fraction grid
    grid = [Fraction(k, n) for k in range(n)]
    return [CanonicalInvariant(tuple(grid[k] for k in row),
                               None if bit < 0 else bit)
            for row, bit in zip(ks.tolist(), parity.tolist())]


def class_table(spec: GroupSpec, n: int) -> dict:
    """{canonical invariant: orbit size} over the classes of {g : g^n = e},
    in sort order; the orbit size counts the torus points in the class.
    Built from the invariants themselves (see ``_class_rows``), in time
    proportional to the class count.  Raises ValueError when
    ``class_count_bound`` exceeds MAX_CLASSES."""
    ks, parity, orbit, _ = _class_rows(spec, n)
    return dict(zip(_table_invariants(n, ks, parity), orbit.tolist()))


def catalog_components(spec: GroupSpec, n: int) -> list[ComponentDescriptor]:
    """Complete catalog of orbits of {g : g^n = e}, sorted by canonical
    invariant.  One entry per Weyl orbit of torsion points, read off one
    class table; the representatives are the rows of one torus stack."""
    ks, parity, orbit, dimension = _class_rows(spec, n)
    reps = torus_stack(spec, _realized_rows(n, ks, parity == 1) / n)
    orders = n // np.gcd.reduce(ks, axis=1, initial=n)
    return [ComponentDescriptor(spec, n, inv, rep, dim, order, size)
            for inv, rep, dim, order, size in zip(
                _table_invariants(n, ks, parity), reps, dimension.tolist(),
                orders.tolist(), orbit.tolist())]


def count_components(spec: GroupSpec, n: int) -> int:
    """Number of conjugation orbits of {g : g^n = e}, in closed form: the
    number of Weyl orbits on the torus points killed by n, which
    ``_class_keys`` lists one by one (Đoković, Proc. AMS 80, 1980).

    U(m): C(n+m-1, m) phase multisets.  SU(m): the m-multisets of Z/n
    summing to 0, (1/n) sum over d | gcd(n, m) of phi(d) C(n/d + m/d - 1,
    m/d).  SO(2r+1): C(f + r, r) multisets of the f + 1 folded phases,
    f = n // 2; SO(2r), r >= 2, adds C(h + r - 1, r) for the classes with
    every phase among the h = (n - 1) // 2 free ones, which split by
    parity.  SO(2) and SL(2,R): n.  Raises ValueError where
    ``_class_keys`` does: n < 1, or ``class_count_bound`` above
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


def gcd_intersection_check(spec: GroupSpec, n: int, m: int) -> VerificationReport:
    """Check that the invariant sets satisfy set(n) & set(m) == set(gcd(n,m)).

    Each class is keyed by its canonical phases scaled to the common
    denominator lcm(n, m), plus its parity, so the same orbit gets the same
    key no matter which n produced it; the check is exact.  A key is one
    class-table row, compared as one opaque array item.
    """
    t0 = time.perf_counter()
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    g, common = math.gcd(n, m), math.lcm(n, m)
    width = phase_slots(spec) + 1

    def keys(order):
        ks, parity = _class_keys(spec, order)
        ks *= common // order
        rows = np.column_stack([ks, parity])
        return rows.view(np.dtype((np.void, rows.itemsize * width))).ravel()

    s_n, s_m, s_g = keys(n), keys(m), keys(g)
    inter = np.intersect1d(s_n, s_m, assume_unique=True)
    mismatch = np.setxor1d(inter, s_g, assume_unique=True)
    labels = sorted(CanonicalInvariant(tuple(Fraction(k, common) for k in ks),
                                       None if parity < 0 else parity).label()
                    for *ks, parity in
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


#: Catalog entries per block of ``write_catalog_json`` output.
_JSON_BLOCK = 256


def _json_floats(texts: list) -> str:
    # a representative's part as json.dumps(indent=2) prints it at depth 4
    return "[\n          " + ",\n          ".join(texts) + "\n        ]"


def write_catalog_json(catalog: list[ComponentDescriptor], config: dict,
                       fileobj) -> None:
    """Write ``{"config": config, "components": [...]}`` exactly as
    ``json.dumps(..., sort_keys=True, indent=2)`` prints it, plus a newline.
    A component lists its label, phases as [numerator, denominator] pairs,
    parity, dimension, exact order, orbit size and its representative,
    row-major with full double precision, split into real and imaginary
    parts.  The text goes to ``fileobj`` in blocks of entries.  Raises
    ValueError for a non-finite representative, before anything is
    written: json.dumps would print NaN or Infinity, which is not JSON."""
    fileobj.writelines(_catalog_json_blocks(catalog, config))


def _catalog_json_blocks(catalog: list[ComponentDescriptor],
                         config: dict):
    """The text of ``write_catalog_json`` as an iterator of blocks.  Every
    representative is checked here, before the iterator is returned; the
    float texts are one repr per distinct bit pattern (0.0 and -0.0
    differ), shared by every entry."""
    reps = [np.asarray(comp.representative) for comp in catalog]
    parts = [part.ravel() for rep in reps
             for part in ((rep.real, rep.imag) if rep.dtype.kind == "c"
                          else (rep,))]
    floats = np.concatenate(parts or [np.empty(0)], dtype=np.float64)
    if not np.isfinite(floats).all():
        raise ValueError("a catalog representative is not finite; JSON "
                         "cannot hold it")
    bits, inverse = np.unique(floats.view(np.int64), return_inverse=True)
    texts = np.array([repr(x) for x in bits.view(np.float64).tolist()],
                     dtype=object)[inverse].tolist()
    config_text = json.dumps(config, sort_keys=True, indent=2)
    return _json_text(catalog, reps, texts,
                      config_text.replace("\n", "\n  "))


def _json_text(catalog, reps, texts, config_text):
    # the blocks of _catalog_json_blocks; texts holds every entry's float
    # texts in order, real part before imaginary part
    yield '{\n  "components": ' + ("[\n" if catalog else "[]")
    phase_texts = {}
    entries, at, sep = [], 0, ""
    for idx, (comp, rep) in enumerate(zip(catalog, reps)):
        labels, phases = [], []
        for p in comp.canonical.phases:
            key = p.numerator, p.denominator
            if key not in phase_texts:
                phase_texts[key] = (
                    f"{key[0]}/{key[1]}",
                    f"        [\n          {key[0]},\n          {key[1]}"
                    "\n        ]")
            label, phase = phase_texts[key]
            labels.append(label)
            phases.append(phase)
        parity = comp.canonical.parity
        if parity is not None:
            labels.append(f"p{parity}")
        real, at = texts[at:at + rep.size], at + rep.size
        imag = ""
        if rep.dtype.kind == "c":
            imag = f'        "imag": {_json_floats(texts[at:at + rep.size])},\n'
            at += rep.size
        entries.append(_JSON_ENTRY.format(
            canonical=_json_string(",".join(labels)), index=idx,
            dimension=comp.dimension, exact_order=comp.exact_order,
            group=_json_string(comp.spec.family), n=comp.n,
            orbit_size=comp.orbit_size,
            parity="null" if parity is None else parity,
            phases=",\n".join(phases), imag=imag, real=_json_floats(real),
            shape=",\n          ".join(map(str, rep.shape)),
            size=comp.spec.size))
        if len(entries) == _JSON_BLOCK or idx == len(catalog) - 1:
            yield sep + ",\n".join(entries)
            sep, entries = ",\n", []
    yield (("\n  ]" if catalog else "") + ',\n  "config": ' + config_text
           + "\n}\n")
