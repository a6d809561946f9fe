"""Desk-scale acceptance checklist: eleven criteria, one verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the PASS/FAIL lines.
Criterion 1 checks SU(2) at n=4 twice: 4 torus points of order dividing 4,
which the Weyl swap folds to 3 classes (traces 2, 0, -2).  The 3 comes from
a fold oracle in the test, the 4 from the torus enumeration.  See the README.
"""

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from phase_oracles import canonicalize_oracle, enumerate_torsion
from stack_oracles import random_torsion_element
from torsion_orbits import cli
from torsion_orbits.groups import GroupSpec, group_inverse, random_element
from torsion_orbits.curves import (DifferentComponentsError,
                                   connect_within_component,
                                   path_order_residuals)
from torsion_orbits.reports import strip_wall_time
from torsion_orbits.sweeps import (COMPACT_SWEEP_SPECS, sl2_component_census,
                                   sweep_curve_identities, sweep_kernel_image,
                                   sweep_tangent, sweep_zero_intersection)
from torsion_orbits.surface import (circle_point, sample_surface,
                                    singular_locus_scan,
                                    tangent_cone_bound_check)
from torsion_orbits.alignment import (matrix_invariant,
                                      nearest_torsion_approximant)
from torsion_orbits.torsion import (catalog_components, count_components,
                                    gcd_intersection_check)

SEED = 20240817


def verdict(idx, name, ok, note=""):
    tail = f" ({note})" if note else ""
    print(f"criterion {idx:02d} {name}: {'PASS' if ok else 'FAIL'}{tail}")


def conj(spec, h, g):
    return h @ g @ group_inverse(spec, h)


def test_criterion_01_catalog_counts():
    bad = []
    for m in (1, 2, 3, 4):
        spec = GroupSpec("U", m)
        for n in range(1, 7):
            got = count_components(spec, n)
            # brute-force multiset oracle alongside the closed form
            brute = sum(1 for _ in itertools.combinations_with_replacement(
                range(n), m))
            want = math.comb(n + m - 1, m)
            assert brute == want
            if got != want:
                bad.append(f"U({m}) n={n}: {got} != {want}")

    su2 = GroupSpec("SU", 2)
    cat = catalog_components(su2, 2)
    if len(cat) != 2 or sorted(c.dimension for c in cat) != [0, 0]:
        bad.append("SU(2) n=2")
    # fold oracle: eigenvalue phases k/4 and -k/4 are one class under the
    # Weyl swap, so the classes are the unordered pairs {k, -k} mod 4
    want4 = len({frozenset((k % 4, -k % 4)) for k in range(4)})
    assert want4 == 3
    got4 = count_components(su2, 4)
    points4 = len(enumerate_torsion(su2, 4))
    if got4 != want4 or points4 != 4:
        bad.append(f"SU(2) n=4: {got4} classes (want {want4}) from "
                   f"{points4} torus points (want 4)")

    so3 = catalog_components(GroupSpec("SO", 3), 2)
    if len(so3) != 2 or sorted(c.dimension for c in so3) != [0, 2]:
        bad.append("SO(3) n=2")
    u2 = catalog_components(GroupSpec("U", 2), 2)
    if sorted(c.dimension for c in u2) != [0, 0, 2]:
        bad.append("U(2) n=2")

    verdict(1, "catalog-counts", not bad, "; ".join(bad) or
            f"SU(2) n=4: {got4} classes from {points4} torus points")
    assert not bad, (
        "catalog counts disagree with the closed forms and oracles (SU(2) "
        "n=4 wants 4 torus points folding to 3 classes, traces 2, 0, -2): "
        + "; ".join(bad))


def test_criterion_02_kernel_image_sweep():
    rep = sweep_kernel_image(COMPACT_SWEEP_SPECS, 6, 300, SEED)
    angle = max(t.residuals["principal_angle"] for t in rep.trials)
    contain = max(t.residuals["containment"] for t in rep.trials)
    ok = (rep.passed and angle <= 1e-7 and contain <= 1e-8
          and all(t.passed and t.status == "ok" for t in rep.trials))
    verdict(2, "kernel-image-sweep", ok,
            f"angle {angle:.2e}, containment {contain:.2e}")
    assert ok


def test_criterion_03_zero_intersection_sweep():
    rep = sweep_zero_intersection(COMPACT_SWEEP_SPECS, 6, 300, SEED)
    dims = {t.residuals["intersection_dim"] for t in rep.trials}
    ok = rep.passed and dims == {0.0}
    verdict(3, "zero-intersection-sweep", ok, f"dims {sorted(dims)}")
    assert ok


def test_criterion_04_tangent_ratio_per_family():
    plans = {
        "U": [GroupSpec("U", m) for m in (1, 2, 3, 4)],
        "SU": [GroupSpec("SU", m) for m in (2, 3, 4)],
        "SO": [GroupSpec("SO", m) for m in (2, 3, 4)],
        "SL2R": [GroupSpec("SL2R", 2)],
    }
    failed = []
    for family, specs in plans.items():
        rep = sweep_tangent(specs, 50, SEED)
        if not rep.passed:
            failed.append(family)
    verdict(4, "tangent-ratio", not failed, "; ".join(failed))
    assert not failed


def test_criterion_05_curve_identities():
    specs = [GroupSpec("U", 2), GroupSpec("SU", 3), GroupSpec("SO", 3)]
    rep = sweep_curve_identities(specs, 6, 100, SEED)
    worst_k = max(t.residuals["kernel_residual"] for t in rep.trials)
    ok = rep.passed and worst_k <= 1e-9 and all(
        t.residuals["product_residual"] <= t.inputs["n"] * 1e-9
        for t in rep.trials)
    verdict(5, "curve-identities", ok, f"kernel {worst_k:.2e}")
    assert ok


def test_criterion_06_gcd_law():
    bad = []
    for family, size in (("SU", 2), ("U", 2), ("SO", 3)):
        spec = GroupSpec(family, size)
        for n, m in ((2, 3), (2, 4), (4, 6), (6, 9)):
            rep = gcd_intersection_check(spec, n, m)
            if not (rep.passed and not rep.details["mismatched_invariants"]
                    and rep.details["count_intersection"]
                    == rep.details["count_gcd"]):
                bad.append(f"{spec.label()} ({n},{m})")
    verdict(6, "gcd-law", not bad, "; ".join(bad))
    assert not bad


def test_criterion_07_sl2_census():
    bad = []
    for n in range(1, 7):
        rep = sl2_component_census(n, 1000, SEED + n)
        if not (rep.passed and rep.details["class_count"] == n
                and rep.details["sigma_flips"] == 0):
            bad.append(f"n={n}: {rep.details['class_count']} classes, "
                       f"{rep.details['sigma_flips']} flips")
    verdict(7, "sl2-census", not bad, "; ".join(bad))
    assert not bad


SAME_PAIR_PLAN = [
    ("SU", 2, 4), ("SU", 2, 2), ("SU", 2, 6), ("SU", 3, 3), ("SU", 3, 6),
    ("SU", 4, 4), ("U", 1, 3), ("U", 2, 2), ("U", 2, 4), ("U", 3, 3),
    ("U", 3, 5), ("U", 4, 4), ("U", 4, 6), ("SO", 2, 4), ("SO", 3, 2),
    ("SO", 3, 4), ("SO", 4, 4), ("SO", 4, 2), ("SO", 5, 4), ("SO", 5, 6),
]


def test_criterion_08_connect_and_separate():
    rng = np.random.default_rng(SEED)
    bad = []
    for family, size, n in SAME_PAIR_PLAN:
        spec = GroupSpec(family, size)
        g0, point = random_torsion_element(spec, n, rng)
        g1 = conj(spec, random_element(spec, rng), g0)
        sample = connect_within_component(spec, g0, g1, n)
        res = path_order_residuals(sample, n)
        invs = {matrix_invariant(spec, p, n)
                for p in (*sample.points, sample.base)}
        if not (len(res) == 20 and max(res) <= n * 1e-9
                and invs == {canonicalize_oracle(spec, point.phases)}):
            bad.append(f"{spec.label()} n={n} connect")

    # separation: two distinct catalog entries must refuse to connect
    sep_pairs = []
    for family, size in (("SU", 2), ("U", 1), ("U", 2), ("SO", 3), ("U", 3)):
        spec = GroupSpec(family, size)
        for n in (2, 3, 4, 6):
            cat = catalog_components(spec, n)
            if len(cat) >= 2:
                sep_pairs.append((spec, n, cat[0].representative,
                                  cat[-1].representative))
    from torsion_orbits.torsion import torus_matrix
    so4 = GroupSpec("SO", 4)
    sep_pairs.append((so4, 4, torus_matrix(so4, [Fraction(1, 4)] * 2),
                      torus_matrix(so4, [Fraction(1, 4), Fraction(3, 4)])))
    assert len(sep_pairs) >= 20
    for spec, n, a, b in sep_pairs[:20]:
        ga = conj(spec, random_element(spec, rng), a)
        gb = conj(spec, random_element(spec, rng), b)
        try:
            connect_within_component(spec, ga, gb, n)
            bad.append(f"{spec.label()} n={n} failed to separate")
        except DifferentComponentsError:
            pass
    verdict(8, "connect-and-separate", not bad, "; ".join(bad))
    assert not bad


def test_criterion_09_density_bound():
    N = 100
    bad = []
    for family, size in (("U", 1), ("SU", 2), ("U", 2)):
        spec = GroupSpec(family, size)
        bound = np.pi * np.sqrt(spec.rank) / N * 1.5
        rng = np.random.default_rng(SEED + size)
        worst = 0.0
        for _ in range(100):
            g = random_element(spec, rng)
            _, distance = nearest_torsion_approximant(spec, g, N)
            worst = max(worst, distance)
        if worst > bound:
            bad.append(f"{spec.label()}: {worst:.3e} > {bound:.3e}")
    verdict(9, "density-bound", not bad, "; ".join(bad))
    assert not bad


def test_criterion_10_surface_demo():
    pts = sample_surface((0.0, 2.0), 100_000, SEED)
    cone = tangent_cone_bound_check(pts, slack=1e-9)
    axis = np.linspace(-2.0, 2.0, 100)
    rng = np.random.default_rng(SEED + 1)
    band = []
    while len(band) < 100:
        a = float(rng.uniform(0.5, 1.5))
        phi = float(rng.uniform(0.0, 2.0 * np.pi))
        if abs(phi - np.pi) >= 0.25:
            band.append(circle_point(a, phi, 1 if rng.uniform() < 0.5 else -1))
    scan = singular_locus_scan(axis, band, tol_grad=1e-6)
    ok = (cone.passed and scan.passed
          and scan.details["axis_worst_grad"] <= 1e-12
          and scan.details["circle_min_grad"] > 1e-6)
    verdict(10, "surface-demo", ok,
            f"excess {cone.details['worst_excess']:.2e}, "
            f"axis {scan.details['axis_worst_grad']:.2e}")
    assert ok


COMMANDS = [
    ["catalog", "--group", "SU", "--size", "2", "--n", "4"],
    ["verify", "lemma31", "--group", "SO", "--size", "3", "--trials", "4"],
    ["verify", "lemma32", "--group", "SU", "--size", "2", "--n", "4",
     "--trials", "4"],
    ["verify", "lemma33", "--group", "U", "--size", "2", "--n", "4",
     "--trials", "4"],
    ["verify", "zero-intersection", "--group", "SU", "--size", "3",
     "--n", "4", "--trials", "4"],
    ["verify", "density", "--group", "U", "--size", "2", "--n", "50",
     "--trials", "4"],
    ["verify", "gcd", "--group", "SO", "--size", "3", "--n", "4", "--m", "6"],
    ["census", "sl2", "--n", "4", "--samples", "100"],
    ["census", "cluster", "--group", "SO", "--size", "3", "--n", "2",
     "--samples", "100"],
    ["demo-surface", "--samples", "200"],
]


def test_criterion_11_determinism(tmp_path, capsys):
    bad = []
    for idx, argv in enumerate(COMMANDS):
        seeded = argv + ["--seed", "9"] if argv[0] != "catalog" else argv
        payloads = []
        for run in ("a", "b"):
            out = tmp_path / f"{idx}{run}.json"
            code = cli.main(seeded + ["--format", "json",
                                      "--output", str(out)])
            if code != 0:
                bad.append(f"{' '.join(argv)} exited {code}")
                break
            payloads.append(strip_wall_time(
                json.loads(out.read_text(encoding="utf-8"))))
        if len(payloads) == 2 and payloads[0] != payloads[1]:
            bad.append(f"{' '.join(argv)} not reproducible")
    capsys.readouterr()
    with capsys.disabled():
        verdict(11, "determinism", not bad, "; ".join(bad))
    assert not bad
