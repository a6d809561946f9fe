"""Torsion catalogs, canonical invariants, censuses, approximants.

The combinatorial oracles below enumerate integer phase tuples modulo the
appropriate symmetry group with plain loops; the dimension oracle solves the
commutation equation X g = g X directly.  Neither route touches the package's
canonicalization or adjoint code, so agreement pins both.
"""

import ast
import io
import itertools
import json
import math
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torsion_orbits
from phase_oracles import (canonical_realization, canonicalize_oracle,
                           class_walk, enumerate_torsion, snap_phase_oracle,
                           torsion_point_oracle)
from stack_oracles import (component_dimension, orientation_sign_oracle,
                           random_torsion_element, random_torsion_point,
                           sl2_align_oracle)
from torsion_orbits import alignment, cli, reports, sweeps, torsion
from torsion_orbits.alignment import (approximation_bound, canonical_align,
                                      matrix_invariant,
                                      nearest_torsion_approximant,
                                      orientation_sign)
from torsion_orbits.groups import (GroupSpec, UnsupportedGroupError,
                                   element_order, group_inverse,
                                   membership_residual, random_element)
from torsion_orbits.reports import TrialRecord
from torsion_orbits.sweeps import cluster_census, sl2_component_census
from torsion_orbits.torsion import (MAX_CLASSES, CanonicalInvariant,
                                    TorusTorsionPoint, canonicalize,
                                    catalog_components, catalog_rows,
                                    class_count_bound, class_table,
                                    count_components,
                                    gcd_intersection_check, orbit_dimension,
                                    phase_slots, torsion_point,
                                    torsion_point_count, torus_matrix,
                                    torus_stack, write_catalog_csv,
                                    write_catalog_json)


# ------------------------------------------------------------------ oracles

def orbit_count_oracle(spec, n):
    """Count phase tuples modulo the family's symmetry, by brute force."""
    fam, m, r = spec.family, spec.size, spec.rank
    if fam == "U":
        return len({tuple(sorted(t))
                    for t in itertools.product(range(n), repeat=m)})
    if fam == "SU":
        return len({tuple(sorted(t))
                    for t in itertools.product(range(n), repeat=m)
                    if sum(t) % n == 0})
    if fam == "SL2R":
        return n
    # SO(m): permutations of the r block phases; sign flips k -> n - k,
    # unrestricted for odd m, in pairs for even m
    seen = set()
    count = 0
    for t in itertools.product(range(n), repeat=r):
        if t in seen:
            continue
        count += 1
        orbit = set()
        for perm in itertools.permutations(t):
            for signs in itertools.product((1, -1), repeat=r):
                if m % 2 == 0 and (np.prod(signs) < 0):
                    continue
                orbit.add(tuple((s * k) % n for s, k in zip(signs, perm)))
        seen |= orbit
    return count


def class_dim_oracle(spec, rep):
    """dim of the conjugation orbit of rep: rank of X -> X rep - rep X on an
    independently built spanning set of the algebra."""
    m = spec.size
    span = []
    if spec.family in ("U", "SU"):
        for j in range(m):
            E = np.zeros((m, m), complex)
            E[j, j] = 1j
            span.append(E)
        for j in range(m):
            for k in range(j + 1, m):
                A = np.zeros((m, m), complex)
                A[j, k], A[k, j] = 1, -1
                span.append(A)
                S = np.zeros((m, m), complex)
                S[j, k], S[k, j] = 1j, 1j
                span.append(S)
        if spec.family == "SU":
            # remove the trace direction
            span = [B - np.trace(B) / m * np.eye(m) for B in span]
    elif spec.family == "SO":
        for j in range(m):
            for k in range(j + 1, m):
                A = np.zeros((m, m))
                A[j, k], A[k, j] = 1, -1
                span.append(A)
    else:
        span = [np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [0.0, 0.0]]),
                np.array([[0.0, 0.0], [1.0, 0.0]])]
    cols = [(B @ rep - rep @ B).ravel() for B in span]
    M = np.array(cols).T
    M = np.vstack([M.real, M.imag])
    return int(np.linalg.matrix_rank(M, tol=1e-9))


def fraction_orbit_dimension(spec, canonical):
    """``orbit_dimension`` on the ``Fraction`` phases themselves: dim G
    minus the centralizer dimension read off the phase multiplicities."""
    zero, half = Fraction(0), Fraction(1, 2)
    phases = canonical.phases
    if spec.family == "SL2R":
        return 0 if phases[0] in (zero, half) else 2
    if spec.family in ("U", "SU"):
        return spec.size ** 2 - sum(c * c for c in Counter(phases).values())
    folded = Counter(min(p, 1 - p) for p in phases)
    a = 2 * folded.pop(zero, 0) + spec.size % 2
    b = 2 * folded.pop(half, 0)
    centralizer = (a * (a - 1) // 2 + b * (b - 1) // 2
                   + sum(c * c for c in folded.values()))
    return spec.dim - centralizer


def catalog_json_payload(catalog):
    """JSON form of a catalog, built as a dict for ``json.dumps``:
    representatives row-major with full double precision, split into real
    and imaginary parts.  The oracle of ``write_catalog_json``."""
    payload = []
    for idx, comp in enumerate(catalog):
        rep = np.asarray(comp.representative)
        entry = {
            "group": comp.spec.family, "size": comp.spec.size, "n": comp.n,
            "component_index": idx, "canonical": comp.canonical.label(),
            "phases": [[p.numerator, p.denominator]
                       for p in comp.canonical.phases],
            "parity": comp.canonical.parity,
            "dimension": comp.dimension, "exact_order": comp.exact_order,
            "orbit_size": comp.orbit_size,
            "representative": {
                "shape": list(rep.shape),
                "real": [float(x) for x in rep.real.ravel()],
            },
        }
        if np.iscomplexobj(rep):
            entry["representative"]["imag"] = [float(x)
                                               for x in rep.imag.ravel()]
        payload.append(entry)
    return payload


# ------------------------------------------------------------- enumeration

def test_torus_point_validation():
    su2 = GroupSpec("SU", 2)
    with pytest.raises(ValueError):
        TorusTorsionPoint(su2, (Fraction(1, 2),))
    with pytest.raises(ValueError):
        TorusTorsionPoint(su2, (Fraction(1, 2), Fraction(1, 3)))
    with pytest.raises(ValueError):
        TorusTorsionPoint(GroupSpec("U", 1), (Fraction(3, 2),))
    p = TorusTorsionPoint(su2, (Fraction(1, 2), Fraction(1, 2)))
    assert np.allclose(p.matrix(), -np.eye(2))


def test_phase_slots():
    assert phase_slots(GroupSpec("U", 3)) == 3
    assert phase_slots(GroupSpec("SU", 3)) == 3
    assert phase_slots(GroupSpec("SO", 5)) == 2
    assert phase_slots(GroupSpec("SL2R", 2)) == 1


def test_enumerate_counts_and_membership():
    assert len(enumerate_torsion(GroupSpec("U", 1), 3)) == 3
    assert len(enumerate_torsion(GroupSpec("SU", 2), 2)) == 2
    assert len(enumerate_torsion(GroupSpec("U", 2), 2)) == 4
    assert len(enumerate_torsion(GroupSpec("SO", 4), 2)) == 4
    assert len(enumerate_torsion(GroupSpec("SL2R", 2), 5)) == 5
    for spec in (GroupSpec("SU", 3), GroupSpec("SO", 5)):
        for p in enumerate_torsion(spec, 4):
            g = p.matrix()
            assert np.linalg.norm(np.linalg.matrix_power(g, 4) - np.eye(spec.size)) < 1e-12


def test_torus_matrix_shapes():
    so3 = torus_matrix(GroupSpec("SO", 3), [Fraction(1, 2)])
    assert np.allclose(so3, np.diag([-1.0, -1.0, 1.0]))
    sl2 = torus_matrix(GroupSpec("SL2R", 2), [Fraction(1, 4)])
    assert np.allclose(sl2, np.array([[0.0, -1.0], [1.0, 0.0]]))
    u2 = torus_matrix(GroupSpec("U", 2), [Fraction(0), Fraction(1, 2)])
    assert np.allclose(u2, np.diag([1.0, -1.0]))


# ----------------------------------------------------------- canonical form

def test_canonicalize_u_sorts():
    spec = GroupSpec("U", 2)
    a = canonicalize(spec, (Fraction(1, 2), Fraction(0)))
    b = canonicalize(spec, (Fraction(0), Fraction(1, 2)))
    assert a == b
    assert a.label() == "0/1,1/2"


def test_canonicalize_so3_folds_sign():
    spec = GroupSpec("SO", 3)
    assert canonicalize(spec, (Fraction(1, 3),)) == canonicalize(spec, (Fraction(2, 3),))
    assert canonicalize(spec, (Fraction(1, 3),)) != canonicalize(spec, (Fraction(1, 4),))


def test_canonicalize_su3_full_weyl_orbit():
    spec = GroupSpec("SU", 3)
    base = (Fraction(0), Fraction(1, 3), Fraction(2, 3))
    invs = {canonicalize(spec, perm) for perm in itertools.permutations(base)}
    assert len(invs) == 1


def test_canonicalize_so4_parity():
    spec = GroupSpec("SO", 4)
    p0 = canonicalize(spec, (Fraction(1, 4), Fraction(1, 4)))
    p1 = canonicalize(spec, (Fraction(1, 4), Fraction(3, 4)))
    p0b = canonicalize(spec, (Fraction(3, 4), Fraction(3, 4)))
    assert p0 != p1
    assert p0 == p0b
    assert p0.parity == 0 and p1.parity == 1
    assert p1.label() == "1/4,1/4,p1"
    # a self-paired phase (0 or 1/2) kills the parity distinction
    q0 = canonicalize(spec, (Fraction(0), Fraction(1, 4)))
    q1 = canonicalize(spec, (Fraction(0), Fraction(3, 4)))
    assert q0 == q1 and q0.parity is None


def test_canonicalize_so2_and_sl2_keep_orientation():
    assert canonicalize(GroupSpec("SO", 2), (Fraction(1, 3),)) != \
        canonicalize(GroupSpec("SO", 2), (Fraction(2, 3),))
    assert canonicalize(GroupSpec("SL2R", 2), (Fraction(1, 4),)) != \
        canonicalize(GroupSpec("SL2R", 2), (Fraction(3, 4),))


def test_canonicalize_scales_floats_and_mixed_denominators_exactly():
    # Fraction(0.1) has denominator 2^55, and 1e-300 scales [1e-300, 1/2]
    # to integers over a denominator of some 1,000 bits: no int64 holds them
    so4 = GroupSpec("SO", 4)
    inv = canonicalize(so4, [0.1, Fraction(1, 3)])
    assert type(inv.parity) is int and inv.parity == 0
    assert [p.denominator for p in inv.phases] == [2 ** 55, 3]
    for spec, phases in [(so4, [0.1, Fraction(1, 3)]),
                         (so4, [0.9, Fraction(2, 3)]),
                         (GroupSpec("U", 2), [1e-300, 0.5]),
                         (GroupSpec("SO", 5), [1e-300, Fraction(5, 7)]),
                         (GroupSpec("SL2R", 2), [0.75])]:
        want = canonicalize_oracle(spec, phases)
        got = canonicalize(spec, phases)
        assert got == want, (spec.label(), phases)
        assert orbit_dimension(spec, got) == \
            fraction_orbit_dimension(spec, want)
        assert canonicalize(spec, canonical_realization(spec, got)) == want


def test_canonical_realization_round_trips():
    for spec in (GroupSpec("U", 3), GroupSpec("SU", 3), GroupSpec("SO", 4),
                 GroupSpec("SO", 5), GroupSpec("SL2R", 2)):
        for n in (2, 3, 4):
            for inv in frozenset(class_table(spec, n)):
                realized = canonical_realization(spec, inv)
                assert canonicalize(spec, realized) == inv
                g = torus_matrix(spec, realized)
                eye = np.eye(spec.size)
                assert np.linalg.norm(np.linalg.matrix_power(g, n) - eye) < 1e-9


# ----------------------------------------------------------------- catalogs

def test_catalog_su2_n2():
    cat = catalog_components(GroupSpec("SU", 2), 2)
    assert [c.canonical.label() for c in cat] == ["0/1,0/1", "1/2,1/2"]
    assert [c.dimension for c in cat] == [0, 0]
    assert [c.exact_order for c in cat] == [1, 2]


def test_catalog_so3_n2():
    cat = catalog_components(GroupSpec("SO", 3), 2)
    assert sorted(c.dimension for c in cat) == [0, 2]
    # hand check: the nontrivial class is the pi-rotations, centralizer
    # dimension 1 inside the 3-dimensional algebra
    flip = [c for c in cat if c.dimension == 2][0]
    assert np.allclose(flip.representative, np.diag([-1.0, -1.0, 1.0]))
    assert class_dim_oracle(GroupSpec("SO", 3), flip.representative) == 2


def test_catalog_u2_n2():
    cat = catalog_components(GroupSpec("U", 2), 2)
    assert sorted(c.dimension for c in cat) == [0, 0, 2]
    for c in cat:
        # multiplicity oracle: dim = m^2 - sum of squared eigenvalue counts
        mults = {}
        for p in c.canonical.phases:
            mults[p] = mults.get(p, 0) + 1
        assert c.dimension == 4 - sum(k * k for k in mults.values())


def test_su2_n4_has_three_classes():
    # the three classes are pinned by their trace, a complete invariant here
    spec = GroupSpec("SU", 2)
    traces = {complex(np.trace(p.matrix())) for p in enumerate_torsion(spec, 4)}
    rounded = {round(t.real, 9) for t in traces}
    assert rounded == {2.0, 0.0, -2.0}
    assert count_components(spec, 4) == 3
    assert all(abs(t.imag) < 1e-12 for t in traces)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_u_count_formula(m):
    spec = GroupSpec("U", m)
    for n in range(1, 7):
        got = count_components(spec, n)
        assert got == math.comb(n + m - 1, m)
        assert got == orbit_count_oracle(spec, n)


@pytest.mark.parametrize("spec", [GroupSpec("SU", 2), GroupSpec("SU", 3),
                                  GroupSpec("SO", 2), GroupSpec("SO", 3),
                                  GroupSpec("SO", 4), GroupSpec("SO", 5),
                                  GroupSpec("SL2R", 2)],
                         ids=lambda s: s.label())
def test_counts_match_brute_force_orbits(spec):
    for n in range(1, 7):
        assert count_components(spec, n) == orbit_count_oracle(spec, n)


def test_catalog_orbit_sizes_cover_all_points():
    for spec in (GroupSpec("U", 3), GroupSpec("SU", 3), GroupSpec("SO", 4)):
        for n in (2, 3, 4):
            cat = catalog_components(spec, n)
            assert sum(c.orbit_size for c in cat) == len(enumerate_torsion(spec, n))


def test_catalog_dimensions_match_commutant_oracle():
    for spec in (GroupSpec("U", 2), GroupSpec("SU", 3), GroupSpec("SO", 4),
                 GroupSpec("SO", 5), GroupSpec("SL2R", 2)):
        for c in catalog_components(spec, 4):
            assert c.dimension == class_dim_oracle(spec, c.representative), \
                (spec.label(), c.canonical.label())


def test_catalog_exact_orders():
    for spec in (GroupSpec("U", 2), GroupSpec("SO", 4)):
        for c in catalog_components(spec, 6):
            assert 6 % c.exact_order == 0
            assert element_order(spec, c.representative, 6) == c.exact_order


def test_dimension_is_class_invariant():
    spec = GroupSpec("SU", 3)
    cat = catalog_components(spec, 3)
    for c in cat:
        for seed in range(10):
            h = random_element(spec, seed)
            g = h @ c.representative @ h.conj().T
            assert component_dimension(spec, g) == c.dimension


# ------------------------------------- invariant enumerator vs brute force

ORACLE_SPECS = ([GroupSpec("U", m) for m in range(1, 6)]
                + [GroupSpec("SU", m) for m in range(2, 6)]
                + [GroupSpec("SO", m) for m in range(2, 6)]
                + [GroupSpec("SL2R", 2)])


def oracle_orders(spec):
    """Orders small enough to enumerate every torus point."""
    return range(1, 8 if spec.size >= 4 else 13)


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: s.label())
def test_class_table_is_the_fold_of_the_enumeration(spec):
    for n in oracle_orders(spec):
        fold = {}
        for point in enumerate_torsion(spec, n):
            inv = canonicalize_oracle(spec, point.phases)
            fold[inv] = fold.get(inv, 0) + 1
        table = class_table(spec, n)
        assert table == fold, (spec.label(), n)
        assert list(table.items()) == walked_table(spec, n)
        assert list(table) == sorted(fold, key=CanonicalInvariant.sort_key)
        assert len(table) <= class_count_bound(spec, n)


@pytest.mark.parametrize("spec,n", [(GroupSpec("U", 5), 10_000),
                                    (GroupSpec("SU", 5), 100_000)],
                         ids=["U5", "SU5"])
def test_torsion_point_decodes_indices_beyond_int64(spec, n):
    count = torsion_point_count(spec, n)
    assert count - 1 > np.iinfo(np.int64).max
    for i in (count - 1, 2 ** 63, 2 ** 63 - 1, count // 3, 12345):
        assert torsion_point(spec, n, i) == torsion_point_oracle(spec, n, i)
    if spec.family == "U":
        last = torsion_point(spec, n, count - 1).phases
        assert last == (Fraction(n - 1, n),) * spec.size


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: s.label())
def test_torsion_point_decodes_the_enumeration(spec):
    for n in oracle_orders(spec):
        points = enumerate_torsion(spec, n)
        assert torsion_point_count(spec, n) == len(points)
        for i, point in enumerate(points):
            assert torsion_point(spec, n, i) == point, (spec.label(), n, i)
        with pytest.raises(IndexError):
            torsion_point(spec, n, len(points))


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: s.label())
def test_closed_form_dimension_matches_adjoint_rank(spec):
    for n in oracle_orders(spec):
        for c in catalog_components(spec, n):
            assert c.dimension == component_dimension(spec, c.representative), \
                (spec.label(), n, c.canonical.label())


def walked_table(spec, n):
    """``phase_oracles.class_walk`` as (canonical invariant, orbit size)
    pairs."""
    return [(CanonicalInvariant(tuple(Fraction(k, n) for k in ks), parity),
             orbit) for ks, parity, orbit in class_walk(spec, n)]


def integer_path_orders(spec):
    """Orders the integer-phase catalog path is held to its oracles at."""
    return [*range(1, 13), *([16] if spec == GroupSpec("U", 4) else [])]


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: s.label())
def test_integer_walk_counts_and_dimensions(spec):
    for n in integer_path_orders(spec):
        table = class_table(spec, n)
        assert list(table.items()) == walked_table(spec, n), (spec.label(), n)
        assert count_components(spec, n) == len(table)
        for inv in table:
            assert orbit_dimension(spec, inv) == \
                fraction_orbit_dimension(spec, inv), (spec.label(), inv)


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: s.label())
def test_closed_form_count_is_the_walk(spec):
    # the walk lists the classes one by one; the count is a formula
    for n in range(1, 25):
        walked = sum(1 for _ in class_walk(spec, n))
        assert count_components(spec, n) == walked, (spec.label(), n)


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: s.label())
def test_catalog_entries_match_their_per_class_oracles(spec):
    # each class's row of the one representative stack is, bit for bit,
    # the one-element torus_matrix of its realization
    for n in integer_path_orders(spec):
        cat = catalog_components(spec, n)
        assert [(c.canonical, c.orbit_size) for c in cat] == \
            list(class_table(spec, n).items())
        for c in cat:
            realized = canonical_realization(spec, c.canonical)
            want = torus_matrix(spec, realized)
            assert c.representative.dtype == want.dtype
            assert c.representative.tobytes() == want.tobytes()
            assert c.dimension == fraction_orbit_dimension(spec, c.canonical)
            assert c.exact_order == math.lcm(*(p.denominator
                                               for p in realized))


def test_random_torsion_point_refuses_unindexable_counts():
    spec = GroupSpec("U", 5)
    rng = np.random.default_rng(0)
    assert torsion_point_count(spec, 10_000) > np.iinfo(np.int64).max
    with pytest.raises(ValueError, match="torus points"):
        random_torsion_point(spec, 10_000, rng)
    assert random_torsion_point(spec, 6_000, rng).spec == spec


def test_class_budget_refuses_runaway_orders():
    spec = GroupSpec("U", 5)
    bound = class_count_bound(spec, 400)
    assert bound == math.comb(404, 5) > MAX_CLASSES
    for build in (class_table, catalog_components, count_components,
                  lambda spec, n: frozenset(class_table(spec, n))):
        with pytest.raises(ValueError, match=f"{bound:,} classes"):
            build(spec, 400)
    with pytest.raises(ValueError, match="classes"):
        cluster_census(spec, 400, 5, seed=0)
    assert class_count_bound(GroupSpec("SO", 5), 40) == 2 * math.comb(22, 2)
    assert class_count_bound(GroupSpec("SL2R", 2), 7) == 7


#: Test-side oracles, and a deleted wrapper, that no module of the package
#: may define or import.
TEST_ONLY_NAMES = {"enumerate_torsion", "canonical_realization",
                   "component_dimension", "random_torsion_point",
                   "random_torsion_element", "invariant_set"}


def package_bindings():
    """(module file, name) of every function, class, assignment and import
    binding in the package's source."""
    for path in sorted(Path(torsion_orbits.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield path.name, node.name
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                yield path.name, node.id
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    yield path.name, alias.asname or alias.name


def test_production_paths_never_enumerate(capsys):
    # the oracles live in tests/, so no production path can reach them
    assert [b for b in package_bindings() if b[1] in TEST_ONLY_NAMES] == []
    assert not TEST_ONLY_NAMES & set(torsion_orbits.__all__)
    assert len(catalog_components(GroupSpec("U", 4), 8)) == math.comb(11, 4)
    assert gcd_intersection_check(GroupSpec("U", 3), 6, 4).passed
    census = cluster_census(GroupSpec("SO", 4), 4, 20, seed=3)
    assert len(census.trials) == 20 and all(t.passed for t in census.trials)
    spec = GroupSpec("U", 5)
    g, point = random_torsion_element(spec, 20, np.random.default_rng(0))
    assert matrix_invariant(spec, g, 20) == \
        canonicalize_oracle(spec, point.phases)
    assert cli.main(["verify", "lemma33", "--group", "U", "--size", "5",
                     "--n", "20", "--trials", "3"]) == 0
    capsys.readouterr()


# ------------------------------------------------------- matrix invariants

def test_matrix_invariant_recovers_torus_label():
    cases = [
        (GroupSpec("U", 3), 4),
        (GroupSpec("SU", 3), 4),
        (GroupSpec("SO", 3), 4),
        (GroupSpec("SO", 4), 4),
        (GroupSpec("SO", 5), 4),
        (GroupSpec("SL2R", 2), 4),
    ]
    for spec, n in cases:
        for i, point in enumerate(enumerate_torsion(spec, n)):
            h = random_element(spec, 100 + i)
            if spec.is_complex:
                g = h @ point.matrix() @ h.conj().T
            elif spec.family == "SO":
                g = h @ point.matrix() @ h.T
            else:
                g = h @ point.matrix() @ np.linalg.inv(h)
            assert matrix_invariant(spec, g, n) == \
                canonicalize_oracle(spec, point.phases), \
                (spec.label(), point.phases)


def test_canonical_align_conjugates_to_representative():
    spec = GroupSpec("SO", 4)
    point = enumerate_torsion(spec, 4)[7]
    h = random_element(spec, 3)
    g = h @ point.matrix() @ h.T
    Q, realized = canonical_align(spec, g, 4)
    assert np.linalg.norm(Q.T @ Q - np.eye(4)) < 1e-10
    assert abs(np.linalg.det(Q) - 1.0) < 1e-10
    assert np.linalg.norm(Q.T @ g @ Q - torus_matrix(spec, realized)) < 1e-9


def test_canonical_align_rejects_non_torsion():
    spec = GroupSpec("U", 2)
    g = np.diag([np.exp(0.37j), np.exp(-0.91j)])
    with pytest.raises(ValueError, match="order dividing"):
        canonical_align(spec, g, 4)


def test_canonical_align_restores_det_on_a_self_paired_plane(monkeypatch):
    # an alignment whose reflection sits off the self-paired plane needs one
    # plane swap; a second one, on the phase-0 plane, keeps det Q = 1
    spec = GroupSpec("SO", 4)
    Q0 = np.kron(np.eye(2), [[0.0, 1.0], [1.0, 0.0]])  # Q0 t(4/5, 0) Q0^T
    monkeypatch.setattr(alignment, "_so_torus_align",
                        lambda g: (Q0, [0.8, 0.0]))
    g = torus_matrix(spec, [Fraction(1, 5), 0])
    Q, realized = canonical_align(spec, g, 5)
    assert realized == (0, Fraction(1, 5))
    assert membership_residual(spec, Q) < 1e-12
    assert np.linalg.norm(Q @ torus_matrix(spec, realized) @ Q.T - g) < 1e-12


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_so_torus_align_det_repairs(m):
    # conjugates of torus points with phases at 0 and 1/2 reach the
    # self-paired swap; Haar draws reach the axis negation (odd m) and the
    # last-plane reflection (even m)
    spec = GroupSpec("SO", m)
    rng = np.random.default_rng(40 + m)
    grid = [0, Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(3, 4)]
    inputs = []
    for _ in range(100):
        ks = rng.integers(len(grid), size=spec.rank)
        h = random_element(spec, rng)
        inputs.append(h @ torus_matrix(spec, [grid[k] for k in ks]) @ h.T)
        inputs.append(random_element(spec, rng))
    for g in inputs:
        Q, phases = alignment._so_torus_align(g)
        assert abs(np.linalg.det(Q) - 1) < 1e-12
        assert np.linalg.norm(Q.T @ Q - np.eye(m)) < 1e-12
        assert np.linalg.norm(Q @ torus_matrix(spec, phases) @ Q.T - g) <= 1e-12
        assert all(0 <= p <= 0.5 for p in phases[:-1])
        assert 0 <= phases[-1] < 1


def test_matrix_invariant_su_det_branch():
    # an SU(3) element whose eigenphases are written with a shifted branch
    # still canonicalizes onto the integer-sum representative
    spec = GroupSpec("SU", 3)
    g = np.diag(np.exp(2j * np.pi * np.array([2 / 3, 2 / 3, 2 / 3])))
    inv = matrix_invariant(spec, g, 3)
    assert inv.label() == "2/3,2/3,2/3"


# ----------------------------------------------------------------- gcd law

@pytest.mark.parametrize("family,size", [("SU", 2), ("U", 2), ("SO", 3)])
@pytest.mark.parametrize("n,m", [(2, 3), (2, 4), (4, 6), (6, 9)])
def test_gcd_intersection(family, size, n, m):
    rep = gcd_intersection_check(GroupSpec(family, size), n, m)
    assert rep.passed, rep.to_json()
    assert rep.details["count_intersection"] == rep.details["count_gcd"]


def test_gcd_counts_example():
    rep = gcd_intersection_check(GroupSpec("SU", 2), 4, 6)
    # gcd 2: invariant sets of orders dividing 2 in SU(2) are {e} and {-e}
    assert rep.details["count_gcd"] == 2
    assert rep.details["count_intersection"] == 2


# ------------------------------------------------ properties (Hypothesis)

#: Seeded example search, small enough to keep the suite's time flat.
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def torus_phases(draw, spec):
    """Phases k/n of a torus point killed by a small n (SU: the last phase
    makes the sum an integer)."""
    n = draw(st.integers(1, 12))
    slots = phase_slots(spec)
    ks = draw(st.lists(st.integers(0, n - 1), min_size=slots, max_size=slots))
    if spec.family == "SU":
        ks[-1] = -sum(ks[:-1]) % n
    return [Fraction(k, n) for k in ks]


def flipped(phases, flips):
    # the sign change p -> -p of one rotation block, phases taken mod 1
    return [(-p) % 1 if f else p for p, f in zip(phases, flips)]


@PROPERTY
@given(st.sampled_from([GroupSpec("U", m) for m in range(1, 6)]
                       + [GroupSpec("SU", m) for m in range(2, 6)]),
       st.data())
def test_canonicalize_is_invariant_under_permutations(spec, data):
    phases = data.draw(torus_phases(spec))
    moved = data.draw(st.permutations(phases))
    assert canonicalize(spec, moved) == canonicalize(spec, phases)


@PROPERTY
@given(st.sampled_from([GroupSpec("SO", 3), GroupSpec("SO", 5)]), st.data())
def test_canonicalize_is_invariant_under_signed_permutations(spec, data):
    phases = data.draw(torus_phases(spec))
    flips = data.draw(st.lists(st.booleans(), min_size=len(phases),
                               max_size=len(phases)))
    moved = flipped(data.draw(st.permutations(phases)), flips)
    assert canonicalize(spec, moved) == canonicalize(spec, phases)


@PROPERTY
@given(st.sampled_from([GroupSpec("SO", 2), GroupSpec("SO", 4)]), st.data())
def test_canonicalize_is_invariant_under_even_sign_changes(spec, data):
    phases = data.draw(torus_phases(spec))
    flips = data.draw(st.lists(st.booleans(), min_size=len(phases),
                               max_size=len(phases)))
    flips[0] ^= sum(flips) % 2  # an even number of sign changes
    perm = data.draw(st.permutations(range(len(phases))))
    moved = flipped([phases[i] for i in perm], [flips[i] for i in perm])
    assert canonicalize(spec, moved) == canonicalize(spec, phases)
    # an odd number is a Weyl move only through a self-paired phase
    flips[0] = not flips[0]
    odd = flipped(phases, flips)
    assert ((canonicalize(spec, odd) == canonicalize(spec, phases))
            == any(p in (0, Fraction(1, 2)) for p in phases))


@settings(PROPERTY, max_examples=200)
@given(st.sampled_from(ORACLE_SPECS), st.integers(1, 12), st.data())
def test_canonical_align_round_trips_conjugates(spec, n, data):
    # at most three distinct free phases, so repeated eigenvalues and
    # several self-paired planes come up often
    pool = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))
    ks = data.draw(st.lists(st.sampled_from(pool), min_size=spec.rank,
                            max_size=spec.rank))
    point = torsion_point(spec, n, sum(k * n ** e for e, k in
                                       enumerate(reversed(ks))))
    h = random_element(spec, data.draw(st.integers(0, 2 ** 32 - 1)))
    g = h @ point.matrix() @ group_inverse(spec, h)
    Q, realized = canonical_align(spec, g, n)
    want = canonicalize(spec, point.phases)
    assert membership_residual(spec, Q) < 1e-9
    t = torus_matrix(spec, realized)
    assert np.linalg.norm(Q @ t @ group_inverse(spec, Q) - g) < 1e-8
    assert realized == canonical_realization(spec, want)
    assert matrix_invariant(spec, g, n) == want


@settings(PROPERTY, max_examples=25)
@given(st.sampled_from([s for s in ORACLE_SPECS if s.size <= 4]),
       st.integers(1, 12), st.integers(1, 12))
def test_gcd_law_on_random_orders(spec, n, m):
    rep = gcd_intersection_check(spec, n, m)
    assert rep.passed, rep.to_json()
    assert rep.details["count_intersection"] == rep.details["count_gcd"]
    # the integer keys count what the Fraction invariants count
    s_n = frozenset(class_table(spec, n))
    s_m = frozenset(class_table(spec, m))
    assert rep.details["count_n"] == len(s_n)
    assert rep.details["count_m"] == len(s_m)
    assert rep.details["count_intersection"] == len(s_n & s_m)
    assert rep.details["count_gcd"] == len(
        frozenset(class_table(spec, math.gcd(n, m))))


@settings(PROPERTY, max_examples=40)
@given(st.sampled_from(ORACLE_SPECS), st.integers(1, 16))
def test_class_rows_on_random_orders(spec, n):
    # the orbit sizes cover the n^rank torus points once, and each row
    # agrees with the walk, the Fraction dimension rule and the gcd order
    ks, parity, orbit, dimension = torsion._class_rows(spec, n)
    assert int(orbit.sum()) == torsion_point_count(spec, n) == n ** spec.rank
    rows = [(tuple(row), None if bit < 0 else bit, size) for row, bit, size
            in zip(ks.tolist(), parity.tolist(), orbit.tolist())]
    assert rows == list(class_walk(spec, n))
    cat = catalog_components(spec, n)
    assert len(cat) == len(rows)
    for (row, bit, _), dim, comp in zip(rows, dimension.tolist(), cat):
        inv = CanonicalInvariant(tuple(Fraction(k, n) for k in row), bit)
        assert comp.canonical == inv
        assert dim == comp.dimension == fraction_orbit_dimension(spec, inv)
        assert comp.exact_order == n // math.gcd(n, *row)


def test_gcd_check_labels_a_mismatch_in_reduced_fractions(monkeypatch):
    # the law always holds, so drop the last row of the gcd's class table:
    # the check fails and names that class by its reduced-fraction label
    spec = GroupSpec("SO", 4)
    dropped = list(class_table(spec, 3))[-1]
    assert dropped.label() == "1/3,1/3,p1"
    keys = torsion._class_keys

    def dropping(spec, n):
        ks, parity = keys(spec, n)
        return (ks[:-1], parity[:-1]) if n == 3 else (ks, parity)

    monkeypatch.setattr(torsion, "_class_keys", dropping)
    rep = gcd_intersection_check(spec, 6, 9)
    assert not rep.passed
    assert rep.details["mismatched_invariants"] == [dropped.label()]
    assert rep.worst_residual == 1.0


# ------------------------------------------------------------- approximants

def test_nearest_torsion_u1_closed_form():
    spec = GroupSpec("U", 1)
    theta = 0.3
    g = np.array([[np.exp(1j * theta)]])
    approx, dist = nearest_torsion_approximant(spec, g, 100)
    k = round(theta / (2 * np.pi) * 100)
    assert np.allclose(approx, [[np.exp(2j * np.pi * k / 100)]])
    assert dist == pytest.approx(abs(np.exp(1j * theta) - np.exp(2j * np.pi * k / 100)))
    assert dist <= approximation_bound(spec, 100)


def test_nearest_torsion_su_restores_determinant():
    spec = GroupSpec("SU", 3)
    # eigenphases whose independent rounding misses the det = 1 grid
    phases = np.array([0.26, 0.26, 0.48])
    g = np.diag(np.exp(2j * np.pi * phases))
    approx, dist = nearest_torsion_approximant(spec, g, 10)
    assert abs(np.linalg.det(approx) - 1.0) < 1e-9
    assert np.linalg.norm(np.linalg.matrix_power(approx, 10) - np.eye(3)) < 1e-8
    assert dist <= approximation_bound(spec, 10, corrections=1) + 1e-12


def test_nearest_torsion_so_block_rounding():
    spec = GroupSpec("SO", 3)
    theta = 1.0
    g = np.array([[np.cos(theta), -np.sin(theta), 0.0],
                  [np.sin(theta), np.cos(theta), 0.0],
                  [0.0, 0.0, 1.0]])
    approx, dist = nearest_torsion_approximant(spec, g, 50)
    k = round(theta / (2 * np.pi) * 50)
    delta = theta - 2 * np.pi * k / 50
    assert dist == pytest.approx(2 * np.sqrt(2.0) * abs(np.sin(delta / 2)), abs=1e-12)
    assert np.linalg.norm(np.linalg.matrix_power(approx, 50) - np.eye(3)) < 1e-10


def test_nearest_torsion_property_sweep():
    rng = np.random.default_rng(0)
    for spec in (GroupSpec("U", 2), GroupSpec("SU", 3), GroupSpec("SO", 4)):
        for N in (1, 7, 40):
            for _ in range(10):
                g = random_element(spec, rng)
                approx, dist = nearest_torsion_approximant(spec, g, N)
                assert dist <= approximation_bound(spec, N, spec.eigenphase_count)
                eye = np.eye(spec.size)
                assert np.linalg.norm(np.linalg.matrix_power(approx, N) - eye) < 1e-7


def test_nearest_torsion_rejects_sl2():
    with pytest.raises(UnsupportedGroupError):
        nearest_torsion_approximant(GroupSpec("SL2R", 2), np.eye(2), 5)


# ---------------------------------------------------------------- censuses

def test_orientation_sign_convention():
    r = lambda th: np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    assert orientation_sign(r(0.4)) == -1
    assert orientation_sign(r(2 * np.pi - 0.4)) == 1
    assert orientation_sign(np.eye(2)) == 0
    assert orientation_sign(-np.eye(2)) == 0


def test_orientation_sign_is_conjugation_invariant():
    spec = GroupSpec("SL2R", 2)
    rng = np.random.default_rng(12)
    rot = torus_matrix(spec, [Fraction(1, 3)])
    sigma = orientation_sign(rot)
    for _ in range(50):
        h = random_element(spec, rng)
        assert orientation_sign(h @ rot @ np.linalg.inv(h)) == sigma


def eig_orientation_oracle(g):
    """Sign of det [Re v, Im v] for v an eigenvector of the eigenvalue with
    positive imaginary part, from ``np.linalg.eig``; 0 for a real spectrum."""
    w, V = np.linalg.eig(np.asarray(g, dtype=float).astype(complex))
    i = int(np.argmax(w.imag))
    if w[i].imag <= 1e-8:
        return 0
    v = V[:, i]
    d = v.real[0] * v.imag[1] - v.real[1] * v.imag[0]
    if abs(d) <= 1e-12:
        return 0
    return 1 if d > 0 else -1


def test_orientation_sign_matches_eig_oracle():
    spec = GroupSpec("SL2R", 2)
    rng = np.random.default_rng(2024)
    signs = []
    for _ in range(2000):
        n = int(rng.integers(1, 31))
        k = int(rng.integers(n))
        h = random_element(spec, rng)
        g = h @ torus_matrix(spec, [Fraction(k, n)]) @ group_inverse(spec, h)
        signs.append(orientation_sign(g))
        assert signs[-1] == eig_orientation_oracle(g), (n, k)
    assert {-1, 0, 1} <= set(signs)
    parabolic = np.array([[1.0, 1.0], [0.0, 1.0]])
    for g in (np.eye(2), -np.eye(2), parabolic, -parabolic, np.diag([2.0, 0.5])):
        assert orientation_sign(g) == 0 == eig_orientation_oracle(g)


def test_orientation_sign_is_zero_without_a_rotation_to_align_to():
    # 2 R(0.4) is off SL(2,R) with |trace| >= 2: _sl2_align refuses it,
    # although its eigenvectors alone would give -1
    g = 2 * torus_matrix(GroupSpec("SL2R", 2), [0.4 / (2 * np.pi)])
    assert orientation_sign(g) == 0
    assert eig_orientation_oracle(g) == -1


def sl2_align_inputs():
    """2x2 inputs for the stacked SL(2,R) alignment: conjugates of the
    rotations by 2 pi k/n whose conjugators reach ||h||_F ~ 1e2 (so
    ||g||_F ~ 1e4) and ~1e7 (near-degenerate eigenvectors), +-I and points
    within 1e-8 of them, |trace| >= 2 (hyperbolic, parabolic, off the
    group), near-degenerate rotations, Gaussian matrices and non-finite
    entries."""
    spec = GroupSpec("SL2R", 2)
    rng = np.random.default_rng(77)
    out = []
    for n in (1, 2, 3, 4, 6, 12, 24):
        for k in range(n):
            for _ in range(12):
                s = 10.0 ** rng.uniform(0, 2)
                h = np.diag([s, 1 / s]) @ random_element(spec, rng)
                out.append(h @ torus_matrix(spec, [Fraction(k, n)])
                           @ group_inverse(spec, h))
    # conjugators so skewed that det [Re v, Im v] nears the 1e-12 cut
    for k in (1, 3, 5):
        for _ in range(60):
            s = 10.0 ** rng.uniform(5, 7.5)
            h = np.diag([s, 1 / s]) @ random_element(spec, rng)
            out.append(h @ torus_matrix(spec, [Fraction(k, 12)])
                       @ group_inverse(spec, h))
    eye = np.eye(2)
    out += [eye, -eye, eye + 3e-9, -eye - 3e-9, eye + 2e-8, -eye + 2e-8,
            eye * (1 + 1e-8), np.diag([2.0, 0.5]), np.diag([-3.0, -1 / 3]),
            np.array([[1.0, 1.0], [0.0, 1.0]]),
            np.array([[-1.0, 1.0], [0.0, -1.0]]),
            np.array([[1.0, 1e-13], [-1e-13, 1.0]]),
            np.array([[1.0 - 1e-12, 1e-7], [-1e-7, 1.0]]),
            np.array([[0.0, 1e4], [-1e-4, 0.0]]),
            2 * torus_matrix(spec, [0.4 / (2 * np.pi)])]
    for theta in (1e-9, 1e-7, 1e-5, np.pi - 1e-7):
        out.append(torus_matrix(spec, [theta / (2 * np.pi)]))
    for _ in range(500):
        out.append(rng.standard_normal((2, 2)) * 10.0 ** rng.uniform(-3, 4))
    for bad in ([[np.nan, 0.0], [0.0, 1.0]], [[np.inf, 0.0], [0.0, 0.0]],
                [[np.inf, 0.0], [0.0, -np.inf]], [[0.0, np.inf], [1.0, 0.0]]):
        out.append(np.array(bad))
    return np.array(out)


def _aligned_or_error(align, g):
    try:
        h, phase = align(g)
    except ValueError as exc:
        return type(exc), str(exc)
    return h.tobytes(), np.float64(phase).tobytes()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_stacked_sl2_alignment_is_the_one_element_body():
    g = sl2_align_inputs()
    h, phases, refused = alignment._sl2_align_stack(g)
    sigmas = alignment._orientations(phases, refused)
    traces = np.trace(g, axis1=1, axis2=2)
    seen = set()
    for i, gi in enumerate(g):
        want = _aligned_or_error(sl2_align_oracle, gi)
        assert _aligned_or_error(alignment._sl2_align, gi) == want, i
        if refused[i]:
            seen.add(int(refused[i]))
            assert want[0] in (ValueError, np.linalg.LinAlgError), i
            assert phases[i] == 0.0 and (h[i] == np.eye(2)).all()
        else:
            assert want == (h[i].tobytes(), phases[i].tobytes()), i
        assert sigmas[i] == orientation_sign_oracle(gi) \
            == orientation_sign(gi), i
        assert traces[i].tobytes() == np.trace(gi).tobytes()
    assert seen == {1, 2, 3}
    assert {-1, 0, 1} <= set(sigmas.tolist())


def test_orientation_sign_of_a_non_2x2_input_is_zero():
    assert orientation_sign(np.eye(3)) == 0 == orientation_sign_oracle(
        np.eye(3))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sl2_census_small(n):
    rep = sl2_component_census(n, 200, seed=17)
    assert rep.passed, rep.to_json()
    assert rep.details["class_count"] == n
    assert rep.details["sigma_flips"] == 0


def test_cluster_census_with_parity_classes():
    rep = cluster_census(GroupSpec("SO", 4), 4, 150, seed=6)
    assert rep.passed, rep.to_json()
    labels = rep.details["clusters"]
    assert "1/4,1/4,p0" in labels and "1/4,1/4,p1" in labels
    assert rep.details["cluster_count"] == count_components(GroupSpec("SO", 4), 4)


def test_cluster_census_u3():
    rep = cluster_census(GroupSpec("U", 3), 3, 120, seed=1)
    assert rep.passed
    assert rep.details["cluster_count"] == count_components(GroupSpec("U", 3), 3)


# ------------------------------------------------- stacked cluster census

def census_oracle(spec, n, samples, seed):
    """The cluster census sample by sample, from the public one-element
    functions only: a (TrialRecord, recovered invariant) pair per sample."""
    out = []
    for i in range(samples):
        rng = np.random.default_rng(seed + i)
        point = random_torsion_point(spec, n, rng)
        h = random_element(spec, rng)
        g = h @ point.matrix() @ group_inverse(spec, h)
        inv = matrix_invariant(spec, g, n)
        ok = inv == canonicalize_oracle(spec, point.phases)
        out.append((TrialRecord(
            index=i, seed=seed + i,
            inputs={"point": [str(p) for p in point.phases], "n": n},
            residuals={"membership": membership_residual(spec, g),
                       "invariant_mismatch": 0.0 if ok else 1.0},
            passed=ok), inv))
    return out


def assert_census_matches_oracle(spec, n, seed, oracle):
    """cluster_census over len(oracle) samples against the oracle's
    records, details, worst residual and verdict."""
    report = cluster_census(spec, n, len(oracle), seed)
    case = (spec.label(), n, len(oracle), seed)
    assert len(report.trials) == len(oracle), case
    for got, (want, _) in zip(report.trials, oracle):
        assert got == want, case  # inputs, digest, residuals: all ==
    seen = {inv for _, inv in oracle}
    expected = count_components(spec, n)
    assert report.details == {
        "cluster_count": len(seen), "expected_clusters": expected,
        "clusters": sorted(inv.label() for inv in seen)}, case
    assert report.worst_residual == max(
        r.residuals["membership"] for r, _ in oracle), case
    assert report.passed == (all(r.passed for r, _ in oracle)
                             and len(seen) == expected), case


CENSUS_ORDERS = (1, 2, 3, 4, 5, 6, 8, 12)


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: s.label())
def test_cluster_census_matches_per_trial_oracle(spec):
    if spec.family == "SL2R":
        runs = [(n, 300, seed) for n in CENSUS_ORDERS + (24,)
                for seed in (0, 5, 11)]
    else:
        runs = [(n, 60, seed) for n in CENSUS_ORDERS for seed in (0, 7)]
    for n, samples, seed in runs:
        assert_census_matches_oracle(spec, n, seed,
                                     census_oracle(spec, n, samples, seed))


def test_cluster_census_matches_oracle_across_a_block_edge():
    spec, block = GroupSpec("SU", 2), reports.STACK_CAP
    oracle = census_oracle(spec, 4, block + 1, 9)
    for samples in (block - 1, block, block + 1):
        assert_census_matches_oracle(spec, 4, 9, oracle[:samples])


@pytest.mark.parametrize("n,samples,seed", [(6, 300, 3), (24, 500, 11)])
def test_sl2_censuses_draw_the_same_samples(n, samples, seed):
    # census sl2 and census cluster --group SL2R are twins: a fix to how
    # either judges an SL(2,R) sample must land in both
    sl2 = sl2_component_census(n, samples, seed)
    cluster = cluster_census(GroupSpec("SL2R", 2), n, samples, seed)
    assert len(sl2.trials) == len(cluster.trials) == samples
    for a, b in zip(sl2.trials, cluster.trials):
        assert a.seed == b.seed
        assert a.residuals["membership"].hex() == \
            b.residuals["membership"].hex()
        assert b.inputs["point"] == [str(Fraction(a.inputs["k"], n))]


def test_sl2_census_records_membership_without_requiring_it():
    # census sl2 reads membership as a residual: at this seed some of its
    # conjugates lie farther than 1e-9 from SL(2,R), and the run passes
    report = sl2_component_census(24, 4000, 5000)
    assert report.passed and report.worst_residual > 1e-9


def test_cluster_census_trial_replays_alone():
    spec = GroupSpec("SO", 4)
    full = cluster_census(spec, 6, 40, seed=20)
    for i in (0, 17, 39):
        alone = cluster_census(spec, 6, 1, seed=20 + i).trials[0]
        want = full.trials[i]
        assert (alone.seed, alone.inputs, alone.digest, alone.residuals,
                alone.passed) == (want.seed, want.inputs, want.digest,
                                  want.residuals, want.passed)


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: s.label())
def test_torus_matrix_is_its_stacked_row(spec):
    for n in range(1, 13):
        count = torsion_point_count(spec, n)
        indices = sorted({(i * 7919) % count for i in range(min(count, 150))})
        rows = torsion._torsion_rows(spec, n, indices)
        stack = torus_stack(spec, rows / n)
        for i, t in zip(indices, stack):
            one = torus_matrix(spec, torsion_point_oracle(spec, n, i).phases)
            assert one.dtype == t.dtype
            assert np.array_equal(one, t), (spec.label(), n, i)


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: s.label())
def test_integer_labels_match_canonicalize(spec):
    rng = np.random.default_rng(1)
    for n in range(1, 9):
        points = enumerate_torsion(spec, n)
        rows = torsion._torsion_rows(spec, n, range(len(points)))
        assert rows.tolist() == [[p.numerator * (n // p.denominator)
                                  for p in point.phases] for point in points]
        # alignment phases: on the grid up to noise, some just below 1
        raw = rows / n + rng.uniform(-1e-8, 1e-8, rows.shape)
        assert np.array_equal(alignment._snap_rows(raw, n), rows)
        assert [[Fraction(k, n) for k in row] for row in rows[:200]] == \
            [[snap_phase_oracle(phi, n) for phi in row] for row in raw[:200]]
        canonical = torsion._canonical_rows(spec, n, rows)
        labels = {}
        for point, row in zip(points, map(tuple, canonical.tolist())):
            if row not in labels:
                inv = torsion._row_invariant(n, row)
                labels[row] = inv, inv.label(), inv.parity
            want = canonicalize_oracle(spec, point.phases)
            got, label, parity = labels[row]
            assert got == want, (spec.label(), n, point.phases)
            assert (label, parity) == (want.label(), want.parity)


# ------------------------------------- stacked invariants vs Schur alignment

def schur_rows(spec, n, g):
    """The invariant rows of a stack of members, one Schur alignment each:
    ``_alignment``, then ``_snap_rows``, then ``_canonical_rows``."""
    raw = np.array([alignment._alignment(spec, gi)[1] for gi in g], dtype=float)
    return torsion._canonical_rows(spec, n, alignment._snap_rows(raw, n))


def conjugated_points(spec, n, rows, seeds):
    """The torus points with phase numerators ``rows``, each conjugated by
    the ``random_element`` of its seed."""
    t = torus_stack(spec, np.array(rows) / n)
    h = np.stack([random_element(spec, seed) for seed in seeds])
    return h @ t @ group_inverse(spec, h)


COMPACT_SPECS = [s for s in ORACLE_SPECS if s.family != "SL2R"]


@pytest.mark.parametrize("spec", COMPACT_SPECS, ids=lambda s: s.label())
@settings(PROPERTY, max_examples=40)
@given(n=st.integers(1, 60), data=st.data())
def test_stacked_invariants_are_the_schur_invariants(spec, n, data):
    # three drawn numerators at most, and 0 and n // 2, per stack: so
    # repeated eigenvalues, phases 0 and 1/2 and, in SO(4), free and
    # non-free classes of both parities all come up
    pool = data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                              max_size=3)) + [0, n // 2]
    rows = data.draw(st.lists(
        st.lists(st.sampled_from(pool), min_size=phase_slots(spec),
                 max_size=phase_slots(spec)), min_size=1, max_size=6))
    if spec.family == "SU":
        for row in rows:
            row[-1] = -sum(row[:-1]) % n
    seeds = data.draw(st.lists(st.integers(0, 2 ** 32 - 1),
                               min_size=len(rows), max_size=len(rows)))
    g = conjugated_points(spec, n, rows, seeds)
    # no member takes the Schur fallback
    assert alignment._eigen_rows(spec, n, g)[1].all()
    found, errors = alignment._invariant_rows(spec, n, g)
    assert errors == [None] * len(g)
    assert np.array_equal(found, schur_rows(spec, n, g))
    assert np.array_equal(found, torsion._canonical_rows(spec, n,
                                                         np.array(rows)))


@pytest.mark.parametrize("n", [7, 12])
def test_stacked_so4_invariants_on_every_torus_point(n):
    # every class of SO(4): non-free ones (a phase 0 or 1/2) and free ones
    # in both parities, each read off the Pfaffian's sign
    spec = GroupSpec("SO", 4)
    rows = torsion._torsion_rows(spec, n, range(n * n))
    g = conjugated_points(spec, n, rows, range(len(rows)))
    found, errors = alignment._invariant_rows(spec, n, g)
    assert errors == [None] * len(g)
    assert alignment._eigen_rows(spec, n, g)[1].all()
    assert np.array_equal(found, schur_rows(spec, n, g))
    assert np.array_equal(found, torsion._canonical_rows(spec, n, rows))
    parities = Counter(found[:, -1].tolist())
    assert parities[0] and parities[1] and parities[-1]
    assert len(np.unique(found, axis=0)) == count_components(spec, n)


@pytest.mark.parametrize("spec", COMPACT_SPECS, ids=lambda s: s.label())
def test_stacked_invariants_refuse_an_element_off_the_grid(spec):
    # 1e-4 off the grid (SU: two phases moved apart, so det stays 1): the
    # stacked path leaves it to the Schur alignment, which refuses it
    n = 12
    ks = np.array([[5, 0, 3, 9, 4][:phase_slots(spec)]])
    if spec.family == "SU":
        ks[0, -1] = -ks[0, :-1].sum() % n
    phases = ks / n
    phases[0, 0] += 1e-4
    if spec.family == "SU":
        phases[0, 1] -= 1e-4
    h = random_element(spec, 4)
    g = h @ torus_stack(spec, phases)[0] @ group_inverse(spec, h)
    assert not alignment._eigen_rows(spec, n, g[None])[1][0]
    with pytest.raises(ValueError, match="not within 1e-06") as schur_error:
        schur_rows(spec, n, g[None])
    _, errors = alignment._invariant_rows(spec, n, g[None])
    assert str(errors[0]) == str(schur_error.value)
    with pytest.raises(ValueError) as public:
        matrix_invariant(spec, g, n)
    assert str(public.value) == str(schur_error.value)


def test_valid_censuses_run_no_schur(monkeypatch):
    # every member of a valid compact census is decided on the stacked
    # eigenvalue path: these are the benchmark's three cluster censuses
    # and the SO(4) and SO(2) digest runs
    def no_schur(*args, **kwargs):
        raise AssertionError("a census sample took the Schur alignment")

    monkeypatch.setattr(alignment, "schur", no_schur)
    for spec, n, samples in ((GroupSpec("SU", 4), 6, 2000),
                             (GroupSpec("SO", 5), 8, 2000),
                             (GroupSpec("U", 3), 6, 2000),
                             (GroupSpec("SO", 4), 12, 3000),
                             (GroupSpec("SO", 2), 9, 500)):
        report = cluster_census(spec, n, samples, seed=5)
        assert report.passed, (spec.label(), n)
        assert len(report.trials) == samples


CENSUS_ALIGNMENTS = [(GroupSpec("U", 3), 6, "_unitary_eigenstructure"),
                     (GroupSpec("SU", 3), 4, "_unitary_eigenstructure"),
                     (GroupSpec("SO", 5), 8, "_so_torus_align"),
                     (GroupSpec("SL2R", 2), 6, "_sl2_align")]


def break_alignment(monkeypatch, name, off_grid=(), failing=()):
    """Make the census's alignment return an off-grid first phase at the
    calls in ``off_grid`` (phase 0.3 + call/1e4, distinct per call) and
    raise at the calls in ``failing``.  A call is one member the census
    evaluates, in order.  SL(2,R) members are aligned as one stack, so
    there a call is a slice of ``_sl2_align_stack`` and a failing one is
    refused.  The compact families are read off one stacked eigensolve,
    ``_eigen_rows``: a broken call is left undecided there, so that its
    member goes to the Schur alignment ``name``, which then returns the
    off-grid phase or raises."""
    calls = itertools.count()
    if name == "_sl2_align":
        stacked = alignment._sl2_align_stack

        def aligned_stack(g):
            h, phases, refused = stacked(g)
            for j in range(len(g)):
                call = next(calls)
                if call in off_grid:
                    phases[j] = 0.3 + call / 1e4 + 1e-3
                if call in failing:
                    refused[j] = 1
            return h, phases, refused

        monkeypatch.setattr(alignment, "_sl2_align_stack", aligned_stack)
        return
    eigen_rows, original = alignment._eigen_rows, getattr(alignment, name)
    broken = {}  # a broken member's bytes: its call

    def undecided(spec, n, g):
        ks, decided = eigen_rows(spec, n, g)
        for j in range(len(g)):
            call = next(calls)
            if call in off_grid or call in failing:
                decided[j] = False
                broken[g[j].tobytes()] = call
        return ks, decided

    def aligned(g):
        call = broken.get(np.asarray(g).tobytes())
        if call in failing:
            raise ValueError(f"alignment failed at call {call}")
        Q, phases = original(g)
        if call in off_grid:
            phases = np.array(phases, dtype=float, ndmin=1)
            phases[0] = 0.3 + call / 1e4 + 1e-3
        return Q, phases

    monkeypatch.setattr(alignment, "_eigen_rows", undecided)
    monkeypatch.setattr(alignment, name, aligned)


def snap_message(k):
    return re.escape(f"phase {0.3 + k / 1e4 + 1e-3!r} is not within 1e-06")


@pytest.mark.parametrize("spec,n,name", CENSUS_ALIGNMENTS,
                         ids=lambda v: getattr(v, "label", lambda: v)())
@pytest.mark.parametrize("k", [0, 5, 19])
def test_census_raises_the_snap_error_of_the_first_off_grid_sample(
        monkeypatch, spec, n, name, k):
    break_alignment(monkeypatch, name, off_grid={k, k + 1}, failing={k + 2})
    with pytest.raises(ValueError, match=snap_message(k)):
        cluster_census(spec, n, 25, seed=2)


@pytest.mark.parametrize("failing,off_member,message", [
    ({4}, None, "alignment failed at call 4"),
    ((), 8, snap_message(6)),
    ((), 3, r"g is not in U\(3\) within 1e-09 \(residual 2\.500e-01\)")])
def test_census_raises_for_the_first_failing_sample(monkeypatch, failing,
                                                    off_member, message):
    # sample 6 is off the grid; an alignment or membership failure before
    # it wins, one after it does not
    break_alignment(monkeypatch, "_unitary_eigenstructure", off_grid={6},
                    failing=failing)
    if off_member is not None:  # one stack: slice j is sample j
        monkeypatch.setattr(
            reports, "membership_residuals",
            lambda spec, g: np.where(np.arange(len(g)) == off_member,
                                     0.25, 0.0))
    with pytest.raises(ValueError, match=message):
        cluster_census(GroupSpec("U", 3), 6, 25, seed=2)


@pytest.mark.parametrize("off_member,failing,message", [
    (4, (), snap_message(2)),
    (1, (), r"g is not in SL\(2,R\) within 1e-09 \(residual 2\.500e-01\)"),
    (None, {3}, snap_message(2)),
    (None, {1}, "element is not elliptic or central")])
def test_sl2_cluster_census_raises_for_the_first_failing_sample(
        monkeypatch, off_member, failing, message):
    # sample 2 is off the grid; a non-member or a refused alignment before
    # it wins, one after it does not
    break_alignment(monkeypatch, "_sl2_align", off_grid={2}, failing=failing)
    if off_member is not None:  # one stack: slice j is sample j
        monkeypatch.setattr(
            reports, "membership_residuals",
            lambda spec, g: np.where(np.arange(len(g)) == off_member,
                                     0.25, 0.0))
    with pytest.raises(ValueError, match=message):
        cluster_census(GroupSpec("SL2R", 2), 6, 25, seed=2)


def test_snap_refuses_an_n_at_which_every_phase_snaps():
    # at 2 n SNAP_TOL >= 1 every phase is within SNAP_TOL of the grid, so
    # a random element would get an invariant; below it, it still fails
    spec = GroupSpec("U", 2)
    g = random_element(spec, 1)
    with pytest.raises(ValueError, match=r"n=500000 is too large .* "
                       r"n >= 1/\(2 SNAP_TOL\) = 500,000"):
        matrix_invariant(spec, g, 500_000)
    with pytest.raises(ValueError, match="n=500000 is too large"):
        canonical_align(spec, g, 500_000)
    with pytest.raises(ValueError, match=r"not within 1e-06 of a multiple "
                       r"of 1/100000; the element does not have order"):
        matrix_invariant(spec, g, 100_000)
    assert matrix_invariant(spec, np.eye(2), 499_999).phases == (0, 0)


def test_matrix_invariant_refuses_a_fine_grid_before_an_alignment():
    # the grid is a property of n alone, so it is refused first for every
    # family, as the census refuses it before drawing
    spec, g = GroupSpec("SL2R", 2), np.diag([2.0, 0.5])
    with pytest.raises(ValueError, match="n=500000 is too large"):
        matrix_invariant(spec, g, 500_000)
    with pytest.raises(ValueError, match="not elliptic or central"):
        matrix_invariant(spec, g, 499_999)


def test_cluster_census_refuses_a_fine_grid_before_drawing(monkeypatch):
    def no_draws(*args):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(sweeps, "element_draws", no_draws)
    for spec in (GroupSpec("SO", 2), GroupSpec("SL2R", 2)):
        with pytest.raises(ValueError, match="n=500000 is too large"):
            cluster_census(spec, 500_000, 3, seed=0)


def test_cluster_census_off_grid_sample_in_a_later_block(monkeypatch):
    monkeypatch.setattr(reports, "STACK_CAP", 8)
    break_alignment(monkeypatch, "_so_torus_align", off_grid={13})
    with pytest.raises(ValueError, match=snap_message(13)):
        cluster_census(GroupSpec("SO", 4), 4, 20, seed=1)


def test_cluster_census_small_blocks_change_nothing(monkeypatch):
    spec = GroupSpec("SO", 4)
    whole = cluster_census(spec, 4, 30, seed=6)
    monkeypatch.setattr(reports, "STACK_CAP", 7)
    blocked = cluster_census(spec, 4, 30, seed=6)
    assert blocked.trials == whole.trials
    assert blocked.details == whole.details


@pytest.mark.parametrize("spec,phases", [
    (GroupSpec("U", 2), [0.1, 0.0]), (GroupSpec("SU", 2), [0.1, 0.9]),
    (GroupSpec("SO", 3), [0.1]), (GroupSpec("SL2R", 2), [0.1])])
def test_snap_error_prints_a_plain_float(spec, phases):
    g = torus_matrix(spec, phases)
    with pytest.raises(ValueError, match=r"^phase 0\.(1|0999)\d* is not "
                       r"within 1e-06 of a multiple of 1/4;") as info:
        matrix_invariant(spec, g, 4)
    assert "np.float64" not in str(info.value)


# ------------------------------------------------------------ serialization

def test_catalog_csv_schema():
    cat = catalog_components(GroupSpec("SO", 4), 4)
    buf = io.StringIO()
    write_catalog_csv(cat, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "group,size,n,component_index,canonical,dimension,exact_order"
    assert len(lines) == 1 + len(cat)
    assert any(",p1" in line or '"1/4,1/4,p1"' in line for line in lines[1:])


def test_catalog_rows_and_indices():
    cat = catalog_components(GroupSpec("U", 2), 2)
    rows = catalog_rows(cat)
    assert [r["component_index"] for r in rows] == [0, 1, 2]
    assert rows[0]["group"] == "U" and rows[0]["size"] == 2


def catalog_config(spec, n):
    return cli.RunConfig(command="catalog", family=spec.family,
                         size=spec.size, n=n, fmt="json").as_dict()


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: s.label())
def test_catalog_json_writer_prints_the_json_dumps_bytes(spec):
    for n in integer_path_orders(spec):
        cat, config = catalog_components(spec, n), catalog_config(spec, n)
        buf = io.StringIO()
        write_catalog_json(cat, config, buf)
        want = json.dumps({"config": config,
                           "components": catalog_json_payload(cat)},
                          sort_keys=True, indent=2) + "\n"
        assert buf.getvalue() == want, (spec.label(), n)


def test_catalog_json_writer_prints_an_empty_catalog():
    config = catalog_config(GroupSpec("U", 1), 1)
    buf = io.StringIO()
    write_catalog_json([], config, buf)
    assert buf.getvalue() == json.dumps({"config": config, "components": []},
                                        sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("spec,part", [
    (GroupSpec("U", 2), "real"), (GroupSpec("U", 2), "imag"),
    (GroupSpec("SO", 3), "real")])
def test_catalog_json_writer_refuses_non_finite_representatives(spec, part,
                                                                bad):
    cat = catalog_components(spec, 3)
    rep = cat[1].representative.copy()
    getattr(rep, part)[0, 1] = bad
    cat[1].representative = rep
    buf = io.StringIO()
    with pytest.raises(ValueError, match="not finite"):
        write_catalog_json(cat, catalog_config(spec, 3), buf)
    assert buf.getvalue() == ""


def test_catalog_json_writer_prints_a_mixed_catalog():
    # entries of different shapes and dtypes (complex 2x2 beside real 3x3,
    # whose 0.0 and -0.0 print apart) still print what json.dumps prints
    cat = (catalog_components(GroupSpec("U", 2), 3)
           + catalog_components(GroupSpec("SO", 3), 4))
    config = catalog_config(GroupSpec("U", 2), 3)
    buf = io.StringIO()
    write_catalog_json(cat, config, buf)
    assert "-0.0" in buf.getvalue()
    assert buf.getvalue() == json.dumps(
        {"config": config, "components": catalog_json_payload(cat)},
        sort_keys=True, indent=2) + "\n"


def test_catalog_json_payload_round_trips_representative():
    cat = catalog_components(GroupSpec("SU", 2), 4)
    payload = catalog_json_payload(cat)
    json.dumps(payload)  # must be serializable as-is
    for entry, comp in zip(payload, cat):
        shape = entry["representative"]["shape"]
        rep = (np.array(entry["representative"]["real"]).reshape(shape)
               + 1j * np.array(entry["representative"]["imag"]).reshape(shape))
        assert np.array_equal(rep, comp.representative)
        assert entry["phases"] == [[p.numerator, p.denominator]
                                   for p in comp.canonical.phases]
