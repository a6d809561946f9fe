"""The ``Fraction`` forms of the torus-phase rules, kept as test oracles.

``torsion`` canonicalizes, realizes and decodes torus points, and
``alignment`` snaps eigenphases, on integer phase numerators k (phase k/n)
only, and their ``Fraction`` API is a view over that one implementation.
These are the direct ``Fraction`` statements of the same rules,
``enumerate_torsion`` lists every torus point by brute force, and
``class_walk`` lists the classes one at a time, the oracle of the
vectorized class table ``torsion._class_rows``.  They share
no code with ``torsion``, so a test that compares the two does not compare
the code with itself.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from torsion_orbits.alignment import SNAP_TOL
from torsion_orbits.torsion import CanonicalInvariant, TorusTorsionPoint

ZERO = Fraction(0)
HALF = Fraction(1, 2)


def canonicalize_oracle(spec, phases):
    """``torsion.canonicalize`` on Fractions: the sorted multiset for U/SU,
    the sorted multiset of min(p, 1-p) for SO(m), m >= 3, with the flip
    parity for SO(2r) when no phase is 0 or 1/2, and the phase itself for
    SO(2) and SL(2,R)."""
    phases = tuple(Fraction(p) % 1 for p in phases)
    if spec.family in ("U", "SU"):
        return CanonicalInvariant(tuple(sorted(phases)))
    if spec.family == "SL2R" or (spec.family == "SO" and spec.size == 2):
        return CanonicalInvariant(phases)
    folded = sorted(min(p, 1 - p) for p in phases)
    if spec.family == "SO" and spec.size % 2 == 0:
        if not any(p in (ZERO, HALF) for p in folded):
            flips = sum(1 for p in phases if p > HALF)
            return CanonicalInvariant(tuple(folded), flips % 2)
    return CanonicalInvariant(tuple(folded))


def canonical_realization(spec, canonical):
    """Phase tuple of the catalog representative realizing ``canonical``:
    the canonical phases, with the last block reflected, p -> (1 - p) % 1,
    when the SO(2r) parity bit is set."""
    phases = tuple(Fraction(p) % 1 for p in canonical.phases)
    if canonical.parity == 1:
        phases = phases[:-1] + ((1 - phases[-1]) % 1,)
    return phases


def enumerate_torsion(spec, n):
    """All torus points killed by n: the complete, duplicate-free tuple of
    phase vectors with entries in {0, 1/n, ..., (n-1)/n} (SU: summing to an
    integer), in lexicographic order.  The O(n^rank) brute force that
    ``class_table``, ``torsion_point`` and the orbit sizes are checked
    against."""
    if n < 1:
        raise ValueError("n must be >= 1")
    slots = spec.size if spec.family in ("U", "SU") else spec.rank
    points = []
    for ks in itertools.product(range(n), repeat=slots):
        if spec.family == "SU" and sum(ks) % n != 0:
            continue
        points.append(TorusTorsionPoint(spec,
                                        tuple(Fraction(k, n) for k in ks)))
    return tuple(points)


def snap_phase_oracle(phi, n):
    """One raw phase snapped to the 1/n grid, as a Fraction in [0, 1); an
    off-grid phase raises the error ``alignment._snap_rows`` raises."""
    k = int(np.rint(phi * n))
    if abs(phi - k / n) > SNAP_TOL:
        raise ValueError(
            f"phase {float(phi)!r} is not within {SNAP_TOL:g} of a multiple "
            f"of 1/{n}; the element does not have order dividing n")
    return Fraction(k % n, n)


def torsion_point_oracle(spec, n, i):
    """``torsion.torsion_point`` by a digit loop on Python ints: the free
    phases are the base-n digits of i, most significant first, and the
    last SU phase is minus their sum."""
    ks = []
    for _ in range(spec.rank):
        i, k = divmod(i, n)
        ks.append(k)
    ks.reverse()
    if spec.family == "SU":
        ks.append(-sum(ks) % n)
    return TorusTorsionPoint(spec, tuple(Fraction(k, n) for k in ks))


def arrangements(ks):
    """Distinct orderings of a sorted tuple: the multinomial of its runs."""
    out = math.factorial(len(ks))
    for _, run in itertools.groupby(ks):
        out //= math.factorial(sum(1 for _ in run))
    return out


def class_walk(spec, n):
    """Yield (ks, parity, orbit size) for each class of {g : g^n = e}, in
    sort order: ks are the canonical phase numerators (phases k/n), parity
    the SO(2r) bit or None.

    The walk runs over the invariants themselves, one at a time: sorted
    phase multisets (SU: those summing to an integer) for U/SU; for SO,
    multisets of folded phases f/n with f <= n/2, each slot off {0, n/2}
    having two preimages, and for SO(2r), r >= 2, a split into two parity
    classes when every slot is off {0, n/2}; the n phases k/n for SO(2)
    and SL(2,R)."""
    if spec.family == "SL2R" or (spec.family == "SO" and spec.size == 2):
        for k in range(n):
            yield (k,), None, 1
        return
    if spec.family in ("U", "SU"):
        for ks in itertools.combinations_with_replacement(range(n), spec.size):
            if spec.family == "SU" and sum(ks) % n:
                continue
            yield ks, None, arrangements(ks)
        return
    r = spec.rank
    for fs in itertools.combinations_with_replacement(range(n // 2 + 1), r):
        free = sum(1 for f in fs if f and 2 * f != n)
        orbit = arrangements(fs) << free
        if spec.size % 2 == 0 and free == r:
            yield fs, 0, orbit // 2
            yield fs, 1, orbit // 2
        else:
            yield fs, None, orbit
