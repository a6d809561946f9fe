"""Group and algebra layer: bases, exponentials, adjoints, decompositions.

Derived values are checked against oracles that do not share code with the
implementation: a scaling-and-squaring power series for the exponential,
characteristic-polynomial invariants for adjoint spectra, and closed forms
and scipy's polar decomposition for the 2x2 Cartan split.
"""

import os
import sys

import numpy as np
import pytest
from scipy.linalg import expm, polar

from stack_oracles import membership_residual_oracle

from torsion_orbits.groups import (FAMILIES, GroupSpec, UnsupportedGroupError,
                                   adjoint_matrix, algebra_basis,
                                   algebra_coords, algebra_matrix,
                                   cartan_decompose, constraint_residual,
                                   element_draws, element_order,
                                   elements_from_draws, exp_element,
                                   adjoint_stack, group_inverse,
                                   membership_residual, membership_residuals,
                                   random_algebra, random_element,
                                   require_member, require_residual)

ALL_SPECS = [GroupSpec("U", 1), GroupSpec("U", 2), GroupSpec("U", 3),
             GroupSpec("SU", 2), GroupSpec("SU", 3), GroupSpec("SU", 4),
             GroupSpec("SO", 2), GroupSpec("SO", 3), GroupSpec("SO", 4),
             GroupSpec("SO", 5), GroupSpec("SL2R", 2)]


def series_exp(M, squarings=6, terms=24):
    """Oracle exponential: plain Taylor series after 2^-squarings scaling."""
    A = np.asarray(M) / (2.0 ** squarings)
    out = np.eye(A.shape[0], dtype=A.dtype)
    term = np.eye(A.shape[0], dtype=A.dtype)
    for k in range(1, terms):
        term = term @ A / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


# ---------------------------------------------------------------- validation

def test_spec_validation():
    with pytest.raises(UnsupportedGroupError):
        GroupSpec("U", 6)
    with pytest.raises(UnsupportedGroupError):
        GroupSpec("SU", 1)
    with pytest.raises(UnsupportedGroupError):
        GroupSpec("SO", 1)
    with pytest.raises(UnsupportedGroupError):
        GroupSpec("SL2R", 3)
    with pytest.raises(UnsupportedGroupError):
        GroupSpec("SP", 2)
    with pytest.raises(ValueError):
        GroupSpec("U", 0)


#: What each supported group is, written out by hand apart from the
#: family records: (label, dim, rank, phase slots, eigenphase count, Weyl
#: action, parity split, phase sum, complex, compact).
SPEC_FACTS = {
    ("U", 1): ("U(1)", 1, 1, 1, 1, "permutations", False, False, True, True),
    ("U", 5): ("U(5)", 25, 5, 5, 5, "permutations", False, False, True, True),
    ("SU", 2): ("SU(2)", 3, 1, 2, 2, "permutations", False, True, True, True),
    ("SU", 5): ("SU(5)", 24, 4, 5, 5, "permutations", False, True, True,
                True),
    ("SO", 2): ("SO(2)", 1, 1, 1, 2, "trivial", False, False, False, True),
    ("SO", 3): ("SO(3)", 3, 1, 1, 2, "signed", False, False, False, True),
    ("SO", 4): ("SO(4)", 6, 2, 2, 4, "signed", True, False, False, True),
    ("SO", 5): ("SO(5)", 10, 2, 2, 4, "signed", False, False, False, True),
    ("SL2R", 2): ("SL(2,R)", 3, 1, 1, 2, "trivial", False, False, False,
                  False),
}


@pytest.mark.parametrize("key", SPEC_FACTS, ids=str)
def test_spec_facts_follow_from_the_family_record(key):
    spec = GroupSpec(*key)
    assert (spec.label(), spec.dim, spec.rank, spec.phase_slots,
            spec.eigenphase_count, spec.weyl, spec.parity_split,
            spec.phase_sum, spec.is_complex, spec.is_compact) \
        == SPEC_FACTS[key]
    assert len(algebra_basis(spec)) == spec.dim


def test_spec_size_takes_any_integer_but_a_bool():
    for size, want in ((np.int64(3), 3), (np.uint8(2), 2), (4, 4)):
        spec = GroupSpec("U", size)
        assert type(spec.size) is int and spec.size == want
        assert spec == GroupSpec("U", want)
        assert spec.label() == f"U({want})"
    for size in (True, False, np.bool_(True), 3.0, "3"):
        with pytest.raises(ValueError, match="size must be a positive integer"):
            GroupSpec("U", size)


def test_dimensions_and_ranks():
    assert GroupSpec("U", 3).dim == 9
    assert GroupSpec("SU", 3).dim == 8
    assert GroupSpec("SO", 4).dim == 6
    assert GroupSpec("SL2R", 2).dim == 3
    assert GroupSpec("U", 3).rank == 3
    assert GroupSpec("SU", 3).rank == 2
    assert GroupSpec("SO", 4).rank == 2
    assert GroupSpec("SO", 5).rank == 2
    assert GroupSpec("SL2R", 2).rank == 1


# ---------------------------------------------------------------- basis

@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label())
def test_basis_is_orthonormal_and_in_algebra(spec):
    basis = algebra_basis(spec)
    assert len(basis) == spec.dim
    assert np.linalg.norm(basis.gram - np.eye(spec.dim)) < 1e-12
    for B in basis.matrices:
        assert constraint_residual(spec, B) < 1e-12


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label())
def test_coords_round_trip(spec):
    rng = np.random.default_rng(7)
    c = rng.standard_normal(spec.dim)
    back = algebra_coords(spec, algebra_matrix(spec, c))
    assert np.linalg.norm(back - c) < 1e-12


def test_su2_bracket_closure():
    # [B_a, B_b] stays in the algebra and reprojects with zero loss
    spec = GroupSpec("SU", 2)
    B = algebra_basis(spec).matrices
    for a in range(3):
        for b in range(3):
            C = B[a] @ B[b] - B[b] @ B[a]
            coords = algebra_coords(spec, C)
            assert np.linalg.norm(algebra_matrix(spec, coords) - C) < 1e-12


# ---------------------------------------------------------------- exponential

@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label())
def test_exp_matches_series_oracle(spec):
    rng = np.random.default_rng(11)
    for _ in range(20):
        c = rng.standard_normal(spec.dim)
        got = exp_element(spec, c)
        want = series_exp(algebra_matrix(spec, c))
        if not spec.is_complex:
            want = np.real(want)
        assert np.linalg.norm(got - want) < 1e-12
        assert membership_residual(spec, got) < 1e-12


def test_exp_rotation_closed_form():
    # single SO(2) generator: exp(c (E01 - E10)/sqrt(2)) = R(-c/sqrt(2))
    spec = GroupSpec("SO", 2)
    c = np.pi * np.sqrt(2.0)
    g = exp_element(spec, [c])
    assert np.linalg.norm(g + np.eye(2)) < 1e-12
    g = exp_element(spec, [c / 2.0])
    th = -np.pi / 2
    want = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    assert np.linalg.norm(g - want) < 1e-12


def test_exp_additivity_along_a_ray():
    rng = np.random.default_rng(23)
    for spec in (GroupSpec("U", 2), GroupSpec("SU", 3), GroupSpec("SL2R", 2)):
        for _ in range(30):
            c = rng.standard_normal(spec.dim)
            s, t = rng.uniform(0, 1, 2)
            lhs = exp_element(spec, (s + t) * c)
            rhs = exp_element(spec, s * c) @ exp_element(spec, t * c)
            assert np.linalg.norm(lhs - rhs) < 1e-10


# ---------------------------------------------------------------- adjoint

@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label())
def test_adjoint_of_identity(spec):
    A = adjoint_matrix(spec, spec.identity())
    assert np.linalg.norm(A - np.eye(spec.dim)) < 1e-12


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label())
def test_adjoint_is_homomorphism(spec):
    rng = np.random.default_rng(5)
    g = random_element(spec, rng)
    h = random_element(spec, rng)
    Ag, Ah = adjoint_matrix(spec, g), adjoint_matrix(spec, h)
    Agh = adjoint_matrix(spec, g @ h)
    assert np.linalg.norm(Agh - Ag @ Ah) < 1e-10


@pytest.mark.parametrize("spec", [s for s in ALL_SPECS if s.family != "SL2R"],
                         ids=lambda s: s.label())
def test_adjoint_orthogonal_for_compact(spec):
    g = random_element(spec, 31)
    A = adjoint_matrix(spec, g)
    assert np.linalg.norm(A.T @ A - np.eye(spec.dim)) < 1e-10


def test_adjoint_action_matches_conjugation():
    spec = GroupSpec("SU", 3)
    rng = np.random.default_rng(13)
    g = random_element(spec, rng)
    c = rng.standard_normal(spec.dim)
    X = algebra_matrix(spec, c)
    direct = g @ X @ g.conj().T
    via_ad = algebra_matrix(spec, adjoint_matrix(spec, g) @ c)
    assert np.linalg.norm(direct - via_ad) < 1e-12


def test_adjoint_spectrum_su2_quarter_turn():
    # Ad of diag(i, -i) has eigenvalues {1, -1, -1}; pin them through the
    # characteristic polynomial invariants instead of an eigensolver:
    # trace = -1, second symmetric function = -1, det = 1.
    spec = GroupSpec("SU", 2)
    g = np.diag([1j, -1j])
    A = adjoint_matrix(spec, g)
    tr = np.trace(A)
    e2 = (tr ** 2 - np.trace(A @ A)) / 2.0
    assert abs(tr + 1.0) < 1e-12
    assert abs(e2 + 1.0) < 1e-12
    assert abs(np.linalg.det(A) - 1.0) < 1e-12


def test_adjoint_rejects_non_members():
    with pytest.raises(ValueError):
        adjoint_matrix(GroupSpec("U", 2), np.diag([2.0, 1.0]))


# ---------------------------------------------------------------- cartan

def test_cartan_on_rotation_is_trivial():
    th = 0.7
    k = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    k2, p = cartan_decompose(k)
    assert np.linalg.norm(k2 - k) < 1e-12
    assert np.linalg.norm(p) < 1e-12


def test_cartan_on_diagonal_stretch():
    g = np.diag([2.0, 0.5])
    k, p = cartan_decompose(g)
    assert np.linalg.norm(k - np.eye(2)) < 1e-12
    assert np.linalg.norm(p - np.diag([np.log(2.0), -np.log(2.0)])) < 1e-12


def test_cartan_against_closed_form_sqrt():
    # oracle: for SPD 2x2 P, sqrt(P) = (P + sqrt(det P) I)/sqrt(tr P + 2 sqrt(det P))
    rng = np.random.default_rng(3)
    spec = GroupSpec("SL2R", 2)
    for _ in range(50):
        g = random_element(spec, rng)
        P = g.T @ g
        sd = np.sqrt(np.linalg.det(P))
        sqrtP = (P + sd * np.eye(2)) / np.sqrt(np.trace(P) + 2 * sd)
        k_oracle = g @ np.linalg.inv(sqrtP)
        k, p = cartan_decompose(g)
        assert np.linalg.norm(series_exp(p) - sqrtP) < 1e-9
        assert np.linalg.norm(k - k_oracle) < 1e-9


def test_cartan_reconstructs_and_factors_are_structural():
    rng = np.random.default_rng(17)
    for _ in range(200):
        g = random_element(GroupSpec("SL2R", 2), rng)
        k, p = cartan_decompose(g)
        assert abs(np.trace(p)) < 1e-12
        assert np.linalg.norm(p - p.T) < 1e-12
        assert np.linalg.norm(k.T @ k - np.eye(2)) < 1e-10
        assert abs(np.linalg.det(k) - 1.0) < 1e-10
        assert np.linalg.norm(k @ series_exp(p) - g) < 1e-8


def test_cartan_matches_scipy_polar():
    # oracle: scipy's polar decomposition g = u pos, which cartan_decompose
    # replaces by numpy's SVD
    rng = np.random.default_rng(29)
    for _ in range(500):
        g = random_element(GroupSpec("SL2R", 2), rng)
        u, pos = polar(g)
        k, p = cartan_decompose(g)
        assert np.linalg.norm(k - u) < 1e-14
        assert np.linalg.norm(expm(p) - pos) < 1e-9 * np.linalg.norm(pos)


# ---------------------------------------------------------------- order

def test_element_order_examples():
    su2 = GroupSpec("SU", 2)
    assert element_order(su2, np.eye(2, dtype=complex), 5) == 1
    assert element_order(su2, np.diag([1j, -1j]), 8) == 4
    so2 = GroupSpec("SO", 2)
    th = 2 * np.pi / 3
    r = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    assert element_order(so2, r, 6) == 3
    assert element_order(so2, r, 2) is None
    generic = np.array([[np.cos(1.0), -np.sin(1.0)], [np.sin(1.0), np.cos(1.0)]])
    assert element_order(so2, generic, 50) is None
    with pytest.raises(ValueError):
        element_order(su2, np.eye(2), 0)


# ---------------------------------------------------------------- sampling

@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label())
def test_random_element_lands_in_group(spec):
    for seed in range(30):
        g = random_element(spec, seed)
        assert membership_residual(spec, g) < 1e-9


def test_random_element_is_deterministic_and_spread():
    spec = GroupSpec("U", 3)
    a = random_element(spec, 42)
    b = random_element(spec, 42)
    assert np.array_equal(a, b)
    dists = [np.linalg.norm(random_element(spec, s) - random_element(spec, s + 1))
             for s in range(0, 100, 2)]
    assert min(dists) > 1e-3


def test_random_element_accepts_generator():
    rng = np.random.default_rng(9)
    g1 = random_element(GroupSpec("SO", 3), rng)
    g2 = random_element(GroupSpec("SO", 3), rng)
    assert np.linalg.norm(g1 - g2) > 1e-3


#: Every supported spec, the odd SU sizes included.
EVERY_SPEC = ([GroupSpec("U", m) for m in range(1, 6)]
              + [GroupSpec("SU", m) for m in range(2, 6)]
              + [GroupSpec("SO", m) for m in range(2, 6)]
              + [GroupSpec("SL2R", 2)])


def per_matrix_element(spec, rng):
    """Oracle: one element drawn and corrected matrix by matrix, with the
    SU det phase divided as a complex scalar."""
    m = spec.size
    if spec.is_complex:
        z = (rng.standard_normal((m, m))
             + 1j * rng.standard_normal((m, m))) / np.sqrt(2)
        q, r = np.linalg.qr(z)
        d = np.where(np.abs(np.diag(r)) < 1e-300, 1.0, np.diag(r))
        q = q * (d / np.abs(d))
        if spec.family == "SU":
            q = q * np.exp(-1j * np.angle(np.linalg.det(q)) / m)
        return q
    if spec.family == "SO":
        q, r = np.linalg.qr(rng.standard_normal((m, m)))
        signs = np.sign(np.diag(r))
        signs[signs == 0] = 1.0
        q = q * signs
        if np.linalg.det(q) < 0:
            q[:, [0, 1]] = q[:, [1, 0]]
        return q
    while True:
        z = rng.standard_normal((2, 2))
        det = np.linalg.det(z)
        if abs(det) >= 1e-6:
            if det < 0:
                z, det = z[:, [1, 0]], -det
            return z / np.sqrt(det)


@pytest.mark.parametrize("spec", EVERY_SPEC, ids=lambda s: s.label())
def test_stacked_draws_match_random_element_bit_for_bit(spec):
    seed, count = 11, 64
    draws = [element_draws(spec, np.random.default_rng(seed + i))
             for i in range(count)]
    stack = elements_from_draws(spec, np.stack(draws))
    assert stack.shape == (count, spec.size, spec.size)
    for i in range(count):
        one = random_element(spec, np.random.default_rng(seed + i))
        assert one.dtype == stack.dtype
        assert np.array_equal(stack[i], one), i
        oracle = per_matrix_element(spec, np.random.default_rng(seed + i))
        assert np.array_equal(one, oracle), i


def test_group_inverse_of_a_stack_is_the_inverse_of_each_slice():
    for spec in EVERY_SPEC:
        rng = np.random.default_rng(4)
        stack = np.stack([random_element(spec, rng) for _ in range(5)])
        inverse = group_inverse(spec, stack)
        for g, gi in zip(stack, inverse):
            assert np.array_equal(gi, group_inverse(spec, g))
            assert np.linalg.norm(g @ gi - spec.identity()) < 1e-9


def test_random_algebra_shape_and_determinism():
    spec = GroupSpec("SU", 3)
    c = random_algebra(spec, 4)
    assert c.shape == (spec.dim,)
    assert np.array_equal(c, random_algebra(spec, 4))


# ---------------------------------------------------------------- membership

def test_membership_and_inverse():
    rng = np.random.default_rng(21)
    for spec in ALL_SPECS:
        g = random_element(spec, rng)
        gi = group_inverse(spec, g)
        assert np.linalg.norm(g @ gi - spec.identity()) < 1e-9
    with pytest.raises(ValueError):
        require_member(GroupSpec("SO", 3), np.diag([1.0, 1.0, -1.0]))
    with pytest.raises(ValueError, match=r"not in SO\(3\) within 1e-09 "
                       r"\(residual 2\.000e\+00\)"):
        require_residual(GroupSpec("SO", 3), 2.0)
    assert require_residual(GroupSpec("SO", 3), 1e-12) == 1e-12
    assert membership_residual(GroupSpec("U", 2), np.eye(3)) == np.inf


EVERY_SPEC = ([GroupSpec("U", m) for m in range(1, 6)]
              + [GroupSpec("SU", m) for m in range(2, 6)]
              + [GroupSpec("SO", m) for m in range(2, 6)]
              + [GroupSpec("SL2R", 2)])


def membership_stacks(spec, count=300, seed=5):
    """Stacks to take membership residuals of: members, members pushed off
    the group by 1e-12 to 1, a complex copy of those (SO and SL(2,R) then
    measure an imaginary part), and slices with NaN or +-inf entries."""
    rng = np.random.default_rng(seed)
    g = elements_from_draws(
        spec, np.stack([element_draws(spec, rng) for _ in range(count)]))
    scale = 10.0 ** rng.uniform(-12, 0, size=(count, 1, 1))
    pushed = g + scale * rng.standard_normal(g.shape) * (rng.random(
        (count, 1, 1)) < 0.5)
    odd = np.array(g[:8])
    odd[0, 0, 0] = np.nan
    odd[1] = np.nan
    odd[2, -1, 0] = np.inf
    odd[3, 0, -1] = -np.inf
    odd[4] = np.inf
    odd[5] = 0.0
    odd[6] *= 2.0
    stacks = [g, pushed, odd]
    if not spec.is_complex:
        shifted = pushed + 1j * scale * rng.standard_normal(g.shape)
        # NaN in the imaginary part alone: the residual is NaN
        shifted[0, 0, 0] = complex(g[0, 0, 0], np.nan)
        stacks.append(shifted)
    return stacks


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("spec", EVERY_SPEC, ids=GroupSpec.label)
def test_stacked_membership_is_the_one_element_body_bit_for_bit(spec):
    for g in membership_stacks(spec):
        want = np.array([membership_residual_oracle(spec, gi) for gi in g])
        got = membership_residuals(spec, g)
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes(), spec.label()
        one = np.array([membership_residual(spec, gi) for gi in g])
        assert one.tobytes() == want.tobytes(), spec.label()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("spec", EVERY_SPEC, ids=GroupSpec.label)
def test_non_finite_slices_are_refused_as_members(spec):
    g = membership_stacks(spec)[2]
    residuals = membership_residuals(spec, g)
    for gi, r in zip(g, residuals.tolist()):
        if not np.isfinite(gi).all():
            assert not r <= 1e-9
            with pytest.raises(ValueError, match="is not in"):
                require_residual(spec, r)
            with pytest.raises(ValueError):
                require_member(spec, gi)
            with pytest.raises(ValueError):
                adjoint_matrix(spec, gi)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_membership_nan_in_any_term_is_refused():
    # SO(3): a NaN in the imaginary part alone (the last term) or in the
    # real part (every term) makes the residual NaN, which is refused
    spec = GroupSpec("SO", 3)
    imag_nan = np.eye(3) + 0j
    imag_nan[0, 0] = complex(1.0, np.nan)
    real_nan = np.eye(3) + 0j
    real_nan[0, 0] = np.nan
    got = membership_residuals(spec, np.stack([imag_nan, real_nan]))
    for g, r in zip((imag_nan, real_nan), got.tolist()):
        assert np.isnan(r) and np.isnan(membership_residual_oracle(spec, g))
        with pytest.raises(ValueError, match=r"\(residual nan\)"):
            require_residual(spec, r)
        with pytest.raises(ValueError, match=r"\(residual nan\)"):
            require_member(spec, g)


def test_membership_stack_shape_is_checked():
    spec = GroupSpec("U", 2)
    with pytest.raises(ValueError, match="stack of 2x2"):
        membership_residuals(spec, np.eye(2))
    with pytest.raises(ValueError, match="stack of 2x2"):
        membership_residuals(spec, np.eye(3)[None])
    assert membership_residuals(spec, np.zeros((0, 2, 2))).shape == (0,)
    assert membership_residual(spec, np.eye(2)[None]) == np.inf


def test_every_one_element_entry_refuses_a_non_member():
    # the stacked evaluators take members and do not decide membership
    # again; each public one-element entry decides it first, with the
    # text of require_residual
    from torsion_orbits.curves import connect_within_component
    from torsion_orbits.alignment import nearest_torsion_approximant

    spec = GroupSpec("U", 2)
    g = 2.0 * np.diag([1.0, -1.0]).astype(complex)
    with pytest.raises(ValueError) as info:
        require_residual(spec, membership_residual(spec, g))
    refusal = str(info.value)
    assert adjoint_stack(spec, g[None]).shape == (1, spec.dim, spec.dim)
    for call in (lambda: adjoint_matrix(spec, g),
                 lambda: connect_within_component(spec, g, g, 2),
                 lambda: nearest_torsion_approximant(spec, g, 4)):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == refusal
    # nearest_torsion_approximant refuses the family, then N < 1, then
    # the non-member
    with pytest.raises(UnsupportedGroupError):
        nearest_torsion_approximant(GroupSpec("SL2R", 2), 2.0 * np.eye(2), 0)
    with pytest.raises(ValueError, match="N must be a positive integer"):
        nearest_torsion_approximant(spec, g, 0)


@pytest.mark.parametrize("coords", [[np.nan, 0.0, 0.0], [0.0, np.inf, 0.0],
                                    [0.0, 0.0, -np.inf], [0.0, 0.0]],
                         ids=["nan", "inf", "-inf", "length"])
def test_exp_element_refuses_coordinates_before_any_expm(monkeypatch, coords):
    # a NaN coordinate used to give a NaN matrix without an error
    import scipy.linalg

    def no_expm(*args):
        raise AssertionError("expm was called")

    monkeypatch.setattr(scipy.linalg, "expm", no_expm)
    with pytest.raises(ValueError,
                       match="coords must be 3 finite algebra coordinates"):
        exp_element(GroupSpec("SO", 3), coords)


class DrawQueue:
    """A stand-in Generator whose ``standard_normal`` returns the given
    (2, 2) draws in turn."""

    def __init__(self, draws):
        self.draws = list(draws)

    def standard_normal(self, shape):
        assert shape == (2, 2)
        return self.draws.pop(0)


def near_threshold_draws(rng, scale, steps):
    """(2, 2) draws at entry scale ``scale`` whose det ad - bc sits
    ``steps`` units of roundoff of |ad| + |bc| from +-1e-6: d is solved
    for the target and a, c are swapped at random, so both LU pivots
    occur."""
    u = 2.0 ** -53
    out = []
    for t in steps:
        a, b, c = (float(x) * scale for x in rng.standard_normal(3))
        if rng.random() < 0.5:
            a, c = c * 1e-3, a
        for sign in (1.0, -1.0):
            p = 2.0 * abs(b * c) + 1e-6
            d = (sign * (1e-6 + t * u * p) + b * c) / a
            out.append(np.array([[a, b], [c, d]]))
    return out


@pytest.mark.parametrize("exponent", range(-150, 151, 25))
def test_sl2_rejection_decides_as_lapack_at_the_threshold(exponent):
    # draws within a few ulps of (|ad| + |bc|) of |det| = 1e-6, and some
    # just outside the margin, at entry scales 1e-150 .. 1e150: the kept
    # draw is the first one LAPACK's det keeps
    rng = np.random.default_rng(exponent + 1000)
    spec, keeper = GroupSpec("SL2R", 2), np.eye(2)
    steps = list(range(-8, 9)) + [-40, -24, 24, 40]
    for z in near_threshold_draws(rng, 10.0 ** exponent, steps * 4):
        kept = element_draws(spec, DrawQueue([z, keeper])) is z
        assert kept == (abs(np.linalg.det(z)) >= 1e-6), z


def test_sl2_rejection_calls_lapack_only_inside_its_margin(monkeypatch):
    # the census draws 4,000 conjugators and never needs LAPACK to decide
    # one; draws on the threshold do call it
    from torsion_orbits import cli, groups

    lapack_det, calls = np.linalg.det, []

    def det(z):
        calls.append(sys._getframe(1).f_code.co_name)
        return lapack_det(z)

    monkeypatch.setattr(groups.np.linalg, "det", det)
    assert cli.main(["census", "sl2", "--n", "24", "--samples", "4000",
                     "--seed", "5", "--output", os.devnull]) == 0
    assert calls and "_sl2_keeps" not in calls
    calls.clear()
    spec = GroupSpec("SL2R", 2)
    for z in near_threshold_draws(np.random.default_rng(3), 1.0, [0, 1, -1]):
        element_draws(spec, DrawQueue([z, np.eye(2)]))
    assert calls == ["_sl2_keeps"] * 6
