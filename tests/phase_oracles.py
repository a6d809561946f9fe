"""The ``Fraction`` forms of the torus-phase rules, kept as test oracles.

``torsion`` canonicalizes, snaps and decodes torus points on integer phase
numerators k (phase k/n) only, and its ``Fraction`` API is a view over that
one implementation.  These are the direct ``Fraction`` statements of the
same rules.  They share no code with ``torsion``, so a test that compares
the two does not compare the code with itself.
"""

from fractions import Fraction

import numpy as np

from torsion_orbits.torsion import (SNAP_TOL, CanonicalInvariant,
                                    TorusTorsionPoint)

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


def snap_phase_oracle(phi, n):
    """One raw phase snapped to the 1/n grid, as a Fraction in [0, 1); an
    off-grid phase raises the error ``torsion._snap_rows`` raises."""
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
