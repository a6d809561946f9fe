"""Seeded multi-trial runs: every sweep and census replays trial by trial."""

import json
import math
import re
from dataclasses import asdict

import numpy as np
import pytest

from stack_oracles import (membership_residual_oracle,
                           orientation_sign_oracle, random_torsion_element)
from torsion_orbits import alignment, cli, reports, sweeps
from torsion_orbits.alignment import (_nearest_torsion, approximation_bound,
                                      nearest_torsion_approximant)
from torsion_orbits.curves import (curve_kernel_outcomes,
                                   product_identity_outcomes,
                                   tangent_outcomes)
from torsion_orbits.groups import (GroupSpec, UnsupportedGroupError,
                                   algebra_matrix, element_order,
                                   random_algebra, random_element,
                                   require_member)
from torsion_orbits.reports import (TrialRecord, VerificationReport,
                                    inputs_digest, run_stacked_trials)
from torsion_orbits.subspaces import (_torsion_outcomes,
                                      kernel_image_outcomes,
                                      zero_intersection_outcomes)
from torsion_orbits.surface import sample_surface
from torsion_orbits.sweeps import (COMPACT_SWEEP_SPECS, ALL_FAMILY_SPECS,
                                   cluster_census, sl2_component_census,
                                   sweep_curve_identities, sweep_density,
                                   sweep_kernel_image, sweep_tangent,
                                   sweep_zero_intersection)
from torsion_orbits.torsion import (catalog_components, count_components,
                                    gcd_intersection_check,
                                    torsion_point_count)

#: run(count, seed) -> report, one per seeded multi-trial driver.
RUNS = {
    "kernel-image": lambda count, seed: sweep_kernel_image(
        COMPACT_SWEEP_SPECS, 6, count, seed),
    "zero-intersection": lambda count, seed: sweep_zero_intersection(
        COMPACT_SWEEP_SPECS, 6, count, seed),
    "tangent-space": lambda count, seed: sweep_tangent(
        ALL_FAMILY_SPECS, count, seed),
    "curve-identities": lambda count, seed: sweep_curve_identities(
        COMPACT_SWEEP_SPECS, 6, count, seed),
    "density": lambda count, seed: sweep_density(
        COMPACT_SWEEP_SPECS, 100, count, seed),
    "cluster-census": lambda count, seed: cluster_census(
        GroupSpec("SU", 3), 4, count, seed),
    "sl2-census": lambda count, seed: sl2_component_census(6, count, seed),
}


def _without_index(trial):
    fields = asdict(trial)
    del fields["index"]
    return fields


@pytest.mark.parametrize("check", sorted(RUNS))
def test_trial_i_replays_alone_from_seed_plus_i(check):
    run, seed = RUNS[check], 40
    report = run(8, seed)
    assert report.check == check
    assert [t.index for t in report.trials] == list(range(8))
    for i, trial in enumerate(report.trials):
        alone = run(1, seed + i).trials[0]
        assert alone.index == 0
        assert _without_index(trial) == _without_index(alone), (check, i)


@pytest.mark.parametrize("check", sorted(RUNS))
def test_numpy_integer_counts_and_seeds_print_as_json(check):
    # a numpy count and seed are echoed, and number the trial seeds, as
    # Python ints: before, to_json raised "Object of type int64 is not JSON
    # serializable" after every trial had run
    report = RUNS[check](np.int64(3), np.int64(5))
    want = RUNS[check](3, 5)
    assert (reports.strip_wall_time(json.loads(report.to_json()))
            == reports.strip_wall_time(json.loads(want.to_json())))
    for value in (report.config.get("trials", report.config.get("samples")),
                  report.config["seed"], *(t.seed for t in report.trials)):
        assert type(value) is int


@pytest.mark.parametrize("check", sorted(RUNS))
def test_empty_runs_are_refused(check):
    with pytest.raises(ValueError, match="must be a positive integer"):
        RUNS[check](0, 0)


U2 = GroupSpec("U", 2)

#: call(value) of each public entry point that takes a count or an order,
#: with ``value`` in that place.
COUNTS_AND_ORDERS = {
    "torsion_point_count": lambda v: torsion_point_count(U2, v),
    "count_components": lambda v: count_components(U2, v),
    "catalog_components": lambda v: catalog_components(U2, v),
    "gcd n": lambda v: gcd_intersection_check(U2, v, 3),
    "gcd m": lambda v: gcd_intersection_check(U2, 3, v),
    "element_order": lambda v: element_order(U2, np.eye(2), v),
    "sample_surface": lambda v: sample_surface((0.5, 1.5), v, 1),
    "nearest_torsion_approximant": lambda v: nearest_torsion_approximant(
        GroupSpec("U", 1), [[np.exp(0.3j)]], v),
    "run_stacked_trials": lambda v: run_stacked_trials(
        "c", v, 0, lambda rng: ((U2,),), lambda key, d: np.eye(2)[None],
        lambda key, d, g, r: [], {}),
    "kernel-image n_max": lambda v: sweep_kernel_image([U2], v, 3, 0),
    "zero-intersection n_max": lambda v: sweep_zero_intersection(
        [U2], v, 3, 0),
    "curve-identities n_max": lambda v: sweep_curve_identities([U2], v, 3, 0),
    "density N": lambda v: sweep_density([U2], v, 3, 0),
    "cluster-census samples": lambda v: cluster_census(U2, 2, v, 0),
}


@pytest.mark.parametrize("value", [0, -3, True, 2.5], ids=repr)
@pytest.mark.parametrize("entry", sorted(COUNTS_AND_ORDERS))
def test_counts_and_orders_are_positive_integers(entry, value):
    # one rule, groups.positive_int: before, a bool ran as 1, 2.5 ran (or
    # raised TypeError) and an order below 1 raised numpy's "high <= 0"
    # or another text
    with pytest.raises(ValueError, match="must be a positive integer, got"):
        COUNTS_AND_ORDERS[entry](value)


# ------------------------------------------------------- per-trial oracles
#
# Each stacked sweep and ``census sl2`` must give, record for record, what
# trial i's own Generator gives when its draws go through the public
# one-element functions, and its check through the stacked evaluator on a
# one-element stack, one trial at a time.

N_MAX, GRID, SL2_N = 6, 100, 24


def _torsion_trial(rng, specs=COMPACT_SWEEP_SPECS, n_max=N_MAX, element=None):
    """(spec, n, g, point label) of a torsion sweep's trial; ``element``
    replaces the drawn conjugate after its draws."""
    spec = specs[int(rng.integers(len(specs)))]
    n = 1 + int(rng.integers(n_max))
    g, point = random_torsion_element(spec, n, rng)
    return spec, n, g if element is None else element, [
        str(p) for p in point.phases]


def _adopt(outcome, **inputs):
    return {"inputs": inputs, "residuals": outcome["residuals"],
            "passed": outcome["passed"], "status": outcome["status"],
            "note": outcome["note"]}


def kernel_image_trial(rng, **draw):
    spec, n, g, point = _torsion_trial(rng, **draw)
    return _adopt(kernel_image_outcomes(spec, g[None], n)[0],
                  group=spec.label(), n=n, point=point)


def zero_intersection_trial(rng, **draw):
    spec, n, g, point = _torsion_trial(rng, **draw)
    return _adopt(zero_intersection_outcomes(spec, g[None], n)[0],
                  group=spec.label(), n=n, point=point)


def curve_trial(rng, **draw):
    spec, n, g, point = _torsion_trial(rng, **draw)
    X = random_algebra(spec, rng)
    t = float(rng.uniform(0.0, 1.0))

    def both(keep):
        kernel, = curve_kernel_outcomes(spec, g[None], n, X[None])
        product, = product_identity_outcomes(
            spec, g[None], n, algebra_matrix(spec, X)[None], [t])
        return [{"residuals": {**kernel["residuals"], **product["residuals"]},
                 "passed": kernel["passed"] and product["passed"],
                 "status": "ok", "note": ""}]

    # both checks share the g^n = e precondition
    outcome, = _torsion_outcomes(spec, g[None], n, both)
    return _adopt(outcome, group=spec.label(), n=n, t=t, point=point)


def tangent_trial(rng):
    spec = ALL_FAMILY_SPECS[int(rng.integers(len(ALL_FAMILY_SPECS)))]
    g = random_element(spec, rng)
    Xm = algebra_matrix(spec, random_algebra(spec, rng))
    return _adopt(tangent_outcomes(spec, g[None], Xm[None])[0],
                  group=spec.label())


def density_trial(rng):
    spec = COMPACT_SWEEP_SPECS[int(rng.integers(len(COMPACT_SWEEP_SPECS)))]
    g = random_element(spec, rng)
    _, distance = nearest_torsion_approximant(spec, g, GRID)
    # no public function returns the bound, which depends on the SU
    # corrections the rounding made
    bound = _nearest_torsion(spec, g, GRID)[2]
    return {"inputs": {"group": spec.label(), "N": GRID},
            "residuals": {"distance": distance, "bound": bound},
            "passed": distance <= bound}


def sl2_trial(rng, classes):
    spec = GroupSpec("SL2R", 2)
    g, point = random_torsion_element(spec, SL2_N, rng)
    k = int(point.phases[0] * SL2_N)
    sigma = orientation_sign_oracle(g)
    classes.add((round(float(np.trace(g)), 6), sigma))
    want = 0 if k == 0 or 2 * k == SL2_N else (-1 if 2 * k < SL2_N else 1)
    return {"inputs": {"k": k, "n": SL2_N},
            "residuals": {"membership": membership_residual_oracle(spec, g),
                          "sigma_flip": float(sigma != want)},
            "passed": sigma == want}


#: check -> (per-trial oracle, name of the worst residual or None)
ORACLES = {
    "kernel-image": (kernel_image_trial, None),
    "zero-intersection": (zero_intersection_trial, None),
    "tangent-space": (tangent_trial, None),
    "curve-identities": (curve_trial, None),
    "density": (density_trial, "distance"),
    "sl2-census": (sl2_trial, "membership"),
}


def oracle_report(check, count, seed):
    """(report, SL(2,R) classes) of ``check`` built one trial at a time."""
    one, worst = ORACLES[check]
    classes = set()
    records = []
    for i in range(count):
        rng = np.random.default_rng(seed + i)
        fields = one(rng, classes) if check == "sl2-census" else one(rng)
        records.append(TrialRecord(index=i, seed=seed + i, **fields))
    report = VerificationReport.from_trials(
        check, records, worst_residual=None if worst is None else
        max(t.residuals[worst] for t in records))
    if check == "sl2-census":
        report.passed = report.passed and len(classes) == SL2_N
    return report, classes


STACKED = {**{check: RUNS[check] for check in ORACLES if check in RUNS},
           "sl2-census": lambda count, seed: sl2_component_census(
               SL2_N, count, seed)}


def _record_fields(t):
    return (t.index, t.seed, t.inputs, t.digest, t.residuals, t.passed,
            t.status, t.note)


def assert_matches_oracle(check, count, seed):
    report = STACKED[check](count, seed)
    want, classes = oracle_report(check, count, seed)
    assert len(report.trials) == count
    for got, exp in zip(report.trials, want.trials):
        assert _record_fields(got) == _record_fields(exp), (check, got.index)
    assert report.worst_residual == want.worst_residual
    assert report.passed == want.passed
    if check == "sl2-census":
        assert report.details["classes"] == sorted(map(list, classes))


@pytest.mark.parametrize("check", sorted(ORACLES))
def test_stacked_runs_match_the_per_trial_oracle(check):
    assert_matches_oracle(check, 300, 17)


@pytest.mark.parametrize("check", sorted(ORACLES))
def test_stack_cap_of_seven_matches_the_per_trial_oracle(check, monkeypatch):
    monkeypatch.setattr(reports, "STACK_CAP", 7)
    assert_matches_oracle(check, 300, 23)


#: CLI check -> per-trial oracle of the torsion sweeps
TORSION_ORACLES = {"lemma33": kernel_image_trial,
                   "zero-intersection": zero_intersection_trial,
                   "lemma32": curve_trial}


@pytest.mark.parametrize("command", sorted(TORSION_ORACLES))
def test_non_torsion_slice_is_rejected_alone(command, monkeypatch, capsys):
    # U(3) at n = 1: every trial lands in one stack of the identity's
    # conjugates, and the middle one is swapped for a member with g != e
    spec, count, seed, middle = GroupSpec("U", 3), 9, 31, 4
    argv = ["verify", command, "--group", "U", "--size", "3", "--n", "1",
            "--trials", str(count), "--seed", str(seed), "--format", "json"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    g_bad = random_element(spec, 1234)
    build = sweeps._conjugate_stack

    def with_bad_slice(*args):
        g = build(*args)
        assert len(g) == count
        g[middle] = g_bad
        return g

    monkeypatch.setattr(sweeps, "_conjugate_stack", with_bad_slice)
    code = cli.main(argv)
    trials = json.loads(capsys.readouterr().out)["trials"]
    # a rejected trial fails the report, as it does one trial at a time
    assert code == 1
    for i, got in enumerate(trials):
        want = TORSION_ORACLES[command](
            np.random.default_rng(seed + i), specs=[spec], n_max=1,
            element=g_bad if i == middle else None)
        want = {"status": "ok", "note": "", **json.loads(json.dumps(want)),
                "digest": inputs_digest(want["inputs"])}
        assert {k: got[k] for k in want} == want, i
        assert got["passed"] == (i != middle)
    assert trials[middle]["residuals"] == {}
    assert trials[middle]["status"] == "rejected"


def test_first_non_member_in_trial_order_raises(monkeypatch):
    # every element but trial 0's is pushed off the group; trial 1 sits in
    # a later stack than trials 0 and 2, and is the one the error names
    count, seed = 40, 3
    keys = [_torsion_trial(np.random.default_rng(seed + i))[:2]
            for i in range(count)]
    assert keys[1] != keys[0] and keys[0] in keys[2:]
    build = sweeps._conjugate_stack

    def off_group(spec, n, rows, draws):
        g = build(spec, n, rows, draws)
        g[1 if (spec, n) == keys[0] else 0:] *= 2.0
        return g

    monkeypatch.setattr(sweeps, "_conjugate_stack", off_group)
    with pytest.raises(ValueError, match="is not in") as info:
        sweep_kernel_image(COMPACT_SWEEP_SPECS, N_MAX, count, seed)
    spec, _, g, _ = _torsion_trial(np.random.default_rng(seed + 1))
    with pytest.raises(ValueError) as first:
        require_member(spec, 2.0 * g)
    assert str(info.value) == str(first.value)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_a_nan_slice_is_refused_in_trial_order(monkeypatch):
    # trial j shares trial 0's stack and turns NaN; trial 1, in a later
    # stack, leaves the group.  Trial 1 is first in trial order, so its
    # error is raised; without it, the NaN slice is refused
    count, seed = 40, 3
    keys = [_torsion_trial(np.random.default_rng(seed + i))[:2]
            for i in range(count)]
    j = keys.index(keys[0], 2)
    assert keys[1] != keys[0]
    build = sweeps._conjugate_stack

    def poisoned(scale_trial_1):
        def stack(spec, n, rows, draws):
            g = build(spec, n, rows, draws)
            if (spec, n) == keys[0]:
                g[keys[:j].count(keys[0])] = np.nan
            elif (spec, n) == keys[1] and scale_trial_1:
                g[0] *= 2.0
            return g
        return stack

    monkeypatch.setattr(sweeps, "_conjugate_stack", poisoned(True))
    with pytest.raises(ValueError, match="is not in") as info:
        sweep_kernel_image(COMPACT_SWEEP_SPECS, N_MAX, count, seed)
    spec, _, g, _ = _torsion_trial(np.random.default_rng(seed + 1))
    with pytest.raises(ValueError) as first:
        require_member(spec, 2.0 * g)
    assert str(info.value) == str(first.value)
    monkeypatch.setattr(sweeps, "_conjugate_stack", poisoned(False))
    with pytest.raises(ValueError, match=r"\(residual nan\)"):
        sweep_kernel_image(COMPACT_SWEEP_SPECS, N_MAX, count, seed)


def test_density_refuses_before_drawing(monkeypatch, capsys):
    # SL(2,R) and a grid order N < 1 are refused up front: the refusal
    # used to come from the first stack, after every trial was drawn
    def no_draws(*args):
        raise AssertionError("a trial was drawn")

    monkeypatch.setattr(sweeps, "element_draws", no_draws)
    sl2 = GroupSpec("SL2R", 2)
    with pytest.raises(UnsupportedGroupError, match="compact families"):
        sweep_density([GroupSpec("U", 2), sl2], 100, 200_000, 0)
    with pytest.raises(ValueError, match="N must be a positive integer"):
        sweep_density([GroupSpec("U", 2)], 0, 200_000, 0)
    assert cli.main(["verify", "density", "--group", "SL2R",
                     "--trials", "200000"]) == 3
    assert "compact families" in capsys.readouterr().err


@pytest.mark.parametrize("spec", [GroupSpec("U", 1), GroupSpec("U", 2),
                                  GroupSpec("SO", 3), GroupSpec("SU", 3),
                                  GroupSpec("SO", 4), GroupSpec("U", 5)],
                         ids=lambda s: s.label())
def test_density_refuses_an_n_float64_cannot_round_at(spec, monkeypatch):
    # the limit is the first N whose half step pi/N is no larger than the
    # distance's roundoff: one below it runs and passes, it and one above
    # it are refused before any trial is drawn
    slack = alignment._rounding_slack(spec)
    limit = math.ceil(math.pi / slack)
    assert math.pi / limit <= slack < math.pi / (limit - 1)
    assert alignment._refuse_nearest(spec, limit - 1) == limit - 1
    report = sweep_density([spec], limit - 1, 200, 4)
    assert report.passed and len(report.trials) == 200
    g = random_element(spec, 4)
    assert nearest_torsion_approximant(spec, g, limit - 1)[1] <= \
        approximation_bound(spec, limit - 1, spec.eigenphase_count) + slack

    def no_draws(*args):
        raise AssertionError("a trial was drawn")

    monkeypatch.setattr(sweeps, "element_draws", no_draws)
    for N in (limit, limit + 1, 2 ** 62, 2 ** 63, 10 ** 400):
        with pytest.raises(ValueError, match=f"N={N} is too large to round "
                           f"{re.escape(spec.label())} .* = {limit:,}$"):
            sweep_density([spec], N, 200, 4)
        with pytest.raises(ValueError, match="is too large to round"):
            nearest_torsion_approximant(spec, g, N)


def test_density_cli_refuses_a_grid_it_cannot_round_at(capsys):
    # SU(3) at 2^62, seed 1, used to overflow its int64 phase sum and step
    # ~2^64 times; U(2) at 2^63 raised OverflowError: both now exit 2 at
    # once
    for group, size, N in (("SU", "3", 2 ** 62), ("U", "2", 2 ** 63),
                           ("U", "1", 10 ** 15)):
        assert cli.main(["verify", "density", "--group", group, "--size",
                         size, "--n", str(N), "--trials", "1",
                         "--seed", "1"]) == 2
        assert "float64" in capsys.readouterr().err


def test_density_passes_a_distance_over_the_bound_by_roundoff(capsys):
    # U(1) at N = 10^13: the distance exceeds pi/N by ~2.6e-16, roundoff
    # of the grid point's angle, well inside the slack; the printed
    # residuals are the computed ones
    assert cli.main(["verify", "density", "--group", "U", "--size", "1",
                     "--n", str(10 ** 13), "--trials", "1", "--seed", "2763",
                     "--format", "json"]) == 0
    residuals = json.loads(capsys.readouterr().out)["trials"][0]["residuals"]
    excess = residuals["distance"] - residuals["bound"]
    assert 0 < excess <= alignment._rounding_slack(GroupSpec("U", 1))
