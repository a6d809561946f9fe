"""Conjugation-curve identities and the explicit connecting paths."""

import csv
import io
from fractions import Fraction

import numpy as np
import pytest

from phase_oracles import (canonical_realization, canonicalize_oracle,
                           enumerate_torsion)
from torsion_orbits.groups import (GroupSpec, algebra_coords, algebra_matrix,
                                   membership_residual, random_algebra,
                                   random_element)
from torsion_orbits.curves import (CurveSample, DifferentComponentsError,
                                   conjugation_curve, connect_within_component,
                                   curve_kernel_check, export_path_csv,
                                   path_order_residuals,
                                   product_identity_check, tangent_space_check)
from torsion_orbits import alignment
from torsion_orbits.alignment import matrix_invariant
from torsion_orbits.torsion import canonicalize, class_table, torus_matrix


def conj(spec, h, g):
    if spec.is_complex:
        return h @ g @ h.conj().T
    if spec.family == "SO":
        return h @ g @ h.T
    return h @ g @ np.linalg.inv(h)


# ------------------------------------------------------------------ samples

def test_curve_sample_validation():
    spec = GroupSpec("U", 1)
    eye = np.eye(1, dtype=complex)
    with pytest.raises(ValueError):
        CurveSample(spec, eye, (0.1, 0.0), (eye, eye))
    with pytest.raises(ValueError):
        CurveSample(spec, eye, (0.1, 0.2), (eye, eye))
    with pytest.raises(ValueError):
        CurveSample(spec, eye, (0.2, 0.1), (eye,))
    s = CurveSample(spec, eye, [1.0, 0.5], [eye, eye])
    assert s.times == (1.0, 0.5)


def test_conjugation_curve_stays_in_group():
    spec = GroupSpec("SU", 3)
    g = random_element(spec, 0)
    X = random_algebra(spec, 1)
    sample = conjugation_curve(spec, g, X)
    for p in sample.points:
        assert membership_residual(spec, p) < 1e-12


# ------------------------------------------------------------ tangent check

def test_tangent_check_su2_hand_derivative():
    # g = diag(e^{i pi/4}, e^{-i pi/4}), X = (E01 - E10)/sqrt(2):
    # the derivative X g - g X works out to -i (E01 + E10), norm sqrt(2)
    spec = GroupSpec("SU", 2)
    g = np.diag([np.exp(1j * np.pi / 4), np.exp(-1j * np.pi / 4)])
    X = np.zeros(3)
    X[algebra_coords(spec, np.array([[0, 1], [-1, 0]], complex) / np.sqrt(2)).argmax()] = 1.0
    Xm = algebra_matrix(spec, X)
    D_hand = -1j * np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.linalg.norm((Xm @ g - g @ Xm) - D_hand) < 1e-12
    rep = tangent_space_check(spec, g, X)
    assert rep.passed, rep.to_json()
    assert rep.details["derivative_norm"] == pytest.approx(np.sqrt(2.0))


def test_tangent_check_commuting_direction_is_exact():
    # X along the torus of g: the curve is constant, every error sits under
    # the floor and the ratio test is vacuous
    spec = GroupSpec("U", 2)
    g = np.diag([np.exp(0.3j), np.exp(1.1j)])
    X = np.zeros(4)
    X[0] = 1.0  # i E00 commutes with any diagonal g
    rep = tangent_space_check(spec, g, X)
    assert rep.passed
    assert rep.details["error_ratios"] == [None, None]
    assert rep.worst_residual < 1e-10


def test_tangent_check_identity_base():
    spec = GroupSpec("SO", 3)
    rep = tangent_space_check(spec, np.eye(3), random_algebra(spec, 5))
    assert rep.passed
    assert rep.details["derivative_norm"] < 1e-12


@pytest.mark.parametrize("family,size", [("U", 2), ("SU", 2), ("SU", 3),
                                         ("SO", 3), ("SO", 4), ("SL2R", 2)])
def test_tangent_check_random_draws(family, size):
    spec = GroupSpec(family, size)
    rng = np.random.default_rng(hash((family, size)) % 2 ** 32)
    for _ in range(10):
        g = random_element(spec, rng)
        X = random_algebra(spec, rng)
        rep = tangent_space_check(spec, g, X)
        assert rep.passed, rep.to_json()


def test_tangent_check_needs_two_steps():
    spec = GroupSpec("U", 1)
    with pytest.raises(ValueError):
        tangent_space_check(spec, np.eye(1, dtype=complex), [1.0], steps=(1e-3,))


# ----------------------------------------------------------- exact identity

def test_curve_kernel_check_quarter_turn():
    spec = GroupSpec("SU", 2)
    g = np.diag([1j, -1j])
    X = random_algebra(spec, 2)
    rep = curve_kernel_check(spec, g, 4, X)
    assert rep.passed
    assert rep.worst_residual <= 1e-10
    assert rep.details["alpha0_norm"] > 0.1


def test_curve_kernel_check_rejects_non_torsion():
    spec = GroupSpec("SU", 2)
    g = np.diag([np.exp(0.3j), np.exp(-0.3j)])
    rep = curve_kernel_check(spec, g, 4, random_algebra(spec, 3))
    assert not rep.passed
    assert rep.trials[0].status == "rejected"
    assert rep.trials[0].note == "precondition g^4 = e fails"
    rep = product_identity_check(spec, g, 4, random_algebra(spec, 3), 0.5)
    assert rep.trials[0].status == "rejected"
    assert rep.trials[0].note == "precondition g^4 = e fails"


def test_product_identity_su2():
    spec = GroupSpec("SU", 2)
    g = np.diag([1j, -1j])
    rep = product_identity_check(spec, g, 4, random_algebra(spec, 4), t=0.3)
    assert rep.passed
    assert rep.worst_residual <= 4e-9


def test_product_identity_so3_flip():
    spec = GroupSpec("SO", 3)
    g = np.diag([-1.0, -1.0, 1.0])
    rep = product_identity_check(spec, g, 2, random_algebra(spec, 5), t=0.5)
    assert rep.passed
    assert rep.worst_residual <= 2e-9


def test_product_identity_trivial_group_element():
    spec = GroupSpec("U", 2)
    rep = product_identity_check(spec, np.eye(2, dtype=complex), 1,
                                 random_algebra(spec, 6), t=0.7)
    assert rep.passed
    assert rep.worst_residual < 1e-12


@pytest.mark.parametrize("family,size", [("U", 2), ("SU", 3), ("SO", 4)])
def test_exact_identities_random_torsion(family, size):
    spec = GroupSpec(family, size)
    rng = np.random.default_rng(size)
    for n in (2, 3, 6):
        points = enumerate_torsion(spec, n)
        point = points[int(rng.integers(len(points)))]
        h = random_element(spec, rng)
        g = conj(spec, h, point.matrix())
        X = random_algebra(spec, rng)
        assert curve_kernel_check(spec, g, n, X).worst_residual <= 1e-9
        t = float(rng.uniform(0, 1))
        assert product_identity_check(spec, g, n, X, t).worst_residual <= n * 1e-9


# ------------------------------------------------------------------ connect

def test_connect_su2_pair():
    spec = GroupSpec("SU", 2)
    g0 = torus_matrix(spec, [Fraction(1, 4), Fraction(3, 4)])
    h1, h2 = random_element(spec, 1), random_element(spec, 2)
    g1, g2 = conj(spec, h1, g0), conj(spec, h2, g0)
    sample = connect_within_component(spec, g1, g2, 4)
    assert len(sample.points) == 19
    assert np.array_equal(sample.base, g1)
    assert np.linalg.norm(sample.points[0] - g2) < 1e-9
    assert max(path_order_residuals(sample, 4)) <= 4e-9
    invs = {matrix_invariant(spec, p, 4) for p in sample.points}
    assert len(invs) == 1


def test_connect_same_element_is_constant():
    spec = GroupSpec("SO", 3)
    g = np.diag([-1.0, -1.0, 1.0])
    sample = connect_within_component(spec, g, g.copy(), 2, waypoints=5)
    for p in sample.points:
        assert np.linalg.norm(p - g) < 1e-9


def test_connect_refuses_different_components():
    spec = GroupSpec("SU", 2)
    with pytest.raises(DifferentComponentsError):
        connect_within_component(spec, np.eye(2, dtype=complex),
                                 -np.eye(2, dtype=complex), 2)
    so4 = GroupSpec("SO", 4)
    p0 = torus_matrix(so4, [Fraction(1, 4), Fraction(1, 4)])
    p1 = torus_matrix(so4, [Fraction(1, 4), Fraction(3, 4)])
    with pytest.raises(DifferentComponentsError, match="p0"):
        connect_within_component(so4, p0, p1, 4)


@pytest.mark.parametrize("family,size,n", [("U", 2, 4), ("SU", 3, 3),
                                           ("SO", 4, 4), ("SO", 5, 4),
                                           ("SL2R", 2, 6)])
def test_connect_random_same_class_pairs(family, size, n):
    spec = GroupSpec(family, size)
    rng = np.random.default_rng(n * 31 + size)
    points = enumerate_torsion(spec, n)
    point = points[int(rng.integers(len(points)))]
    # second representative of the same class through an arbitrary conjugate
    g1 = conj(spec, random_element(spec, rng), point.matrix())
    g2 = conj(spec, random_element(spec, rng), point.matrix())
    sample = connect_within_component(spec, g1, g2, n)
    tol = 1e-7 if family == "SL2R" else 1e-8
    assert np.linalg.norm(sample.points[0] - g2) < tol
    assert max(path_order_residuals(sample, n)) < n * 1e-7
    want = canonicalize_oracle(spec, point.phases)
    for p in sample.points[::6]:
        assert matrix_invariant(spec, p, n) == want


def test_connect_validates_waypoints():
    spec = GroupSpec("U", 1)
    eye = np.eye(1, dtype=complex)
    with pytest.raises(ValueError):
        connect_within_component(spec, eye, eye, 1, waypoints=1)


def test_connect_aligns_each_endpoint_once(monkeypatch):
    calls = []
    align = alignment._snapped_alignment

    def counted(spec, g, n):
        calls.append(n)
        return align(spec, g, n)

    monkeypatch.setattr(alignment, "_snapped_alignment", counted)
    spec = GroupSpec("SO", 4)
    g0 = torus_matrix(spec, [Fraction(1, 4), Fraction(3, 4)])
    connect_within_component(spec, g0, conj(spec, random_element(spec, 5), g0), 4)
    assert calls == [4, 4]
    calls.clear()
    g1 = torus_matrix(spec, [Fraction(1, 4), Fraction(1, 4)])
    with pytest.raises(DifferentComponentsError, match="1/4,1/4,p1 vs 1/4,1/4,p0"):
        connect_within_component(spec, g0, g1, 4)
    assert calls == [4, 4]


@pytest.mark.parametrize("spec", [GroupSpec("U", m) for m in (1, 2, 3)]
                         + [GroupSpec("SU", m) for m in (2, 3)]
                         + [GroupSpec("SO", m) for m in (2, 3, 4, 5)]
                         + [GroupSpec("SL2R", 2)], ids=GroupSpec.label)
def test_realization_round_trips_to_its_class(spec):
    # connect compares realized tuples and labels them by canonicalize, so
    # each class must come back from its representative's phases
    for n in range(1, 9):
        for c in class_table(spec, n):
            assert canonicalize(spec, canonical_realization(spec, c)) == c


# ------------------------------------------------------------------- export

def test_export_path_csv_complex():
    spec = GroupSpec("SU", 2)
    g0 = torus_matrix(spec, [Fraction(1, 4), Fraction(3, 4)])
    g1 = conj(spec, random_element(spec, 8), g0)
    sample = connect_within_component(spec, g0, g1, 4, waypoints=4)
    buf = io.StringIO()
    export_path_csv(sample, buf)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert rows[0][0] == "s"
    assert rows[0][1:3] == ["e00_re", "e00_im"]
    assert len(rows) == 1 + 1 + len(sample.points)  # header, base, waypoints
    svals = [float(r[0]) for r in rows[1:]]
    assert svals[0] == 0.0
    assert svals == sorted(svals)
    base_e00 = complex(float(rows[1][1]), float(rows[1][2]))
    assert base_e00 == pytest.approx(complex(sample.base[0, 0]))


def test_export_path_csv_real():
    spec = GroupSpec("SO", 2)
    g = torus_matrix(spec, [Fraction(1, 3)])
    sample = connect_within_component(spec, g, g.copy(), 3, waypoints=3)
    buf = io.StringIO()
    export_path_csv(sample, buf)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert rows[0] == ["s", "e00", "e01", "e10", "e11"]
