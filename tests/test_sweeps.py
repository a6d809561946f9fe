"""Seeded multi-trial runs: every sweep and census replays trial by trial."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from stack_oracles import (membership_residual_oracle,
                           orientation_sign_oracle, random_torsion_element)
from torsion_orbits import cli, reports, sweeps
from torsion_orbits.alignment import (_nearest_torsion,
                                      nearest_torsion_approximant)
from torsion_orbits.curves import (curve_kernel_check, product_identity_check,
                                   tangent_space_check)
from torsion_orbits.groups import (GroupSpec, random_algebra,
                                   random_element, require_member)
from torsion_orbits.reports import (TrialRecord, VerificationReport,
                                    inputs_digest)
from torsion_orbits.subspaces import (verify_kernel_image_identity,
                                      verify_zero_intersection)
from torsion_orbits.sweeps import (COMPACT_SWEEP_SPECS, ALL_FAMILY_SPECS,
                                   cluster_census, sl2_component_census,
                                   sweep_curve_identities, sweep_density,
                                   sweep_kernel_image, sweep_tangent,
                                   sweep_zero_intersection)

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
def test_empty_runs_are_refused(check):
    with pytest.raises(ValueError, match=">= 1"):
        RUNS[check](0, 0)



# ------------------------------------------------------- per-trial oracles
#
# Each stacked sweep and ``census sl2`` must give, record for record, what
# trial i's own Generator gives when its draws go through the public
# one-element functions one trial at a time.

N_MAX, GRID, SL2_N = 6, 100, 24


def _torsion_trial(rng, specs=COMPACT_SWEEP_SPECS, n_max=N_MAX, element=None):
    """(spec, n, g, point label) of a torsion sweep's trial; ``element``
    replaces the drawn conjugate after its draws."""
    spec = specs[int(rng.integers(len(specs)))]
    n = 1 + int(rng.integers(n_max))
    g, point = random_torsion_element(spec, n, rng)
    return spec, n, g if element is None else element, [
        str(p) for p in point.phases]


def _adopt(report, **extra_inputs):
    trial = report.trials[0]
    return {"inputs": {**trial.inputs, **extra_inputs},
            "residuals": trial.residuals, "passed": trial.passed,
            "status": trial.status, "note": trial.note}


def kernel_image_trial(rng, **draw):
    spec, n, g, point = _torsion_trial(rng, **draw)
    return _adopt(verify_kernel_image_identity(spec, g, n), point=point)


def zero_intersection_trial(rng, **draw):
    spec, n, g, point = _torsion_trial(rng, **draw)
    return _adopt(verify_zero_intersection(spec, g, n), point=point)


def curve_trial(rng, **draw):
    spec, n, g, point = _torsion_trial(rng, **draw)
    X = random_algebra(spec, rng)
    t = float(rng.uniform(0.0, 1.0))
    kernel = curve_kernel_check(spec, g, n, X).trials[0]
    product = product_identity_check(spec, g, n, X, t).trials[0]
    return {"inputs": {"group": spec.label(), "n": n, "t": t,
                       "point": point},
            "residuals": {**kernel.residuals, **product.residuals},
            "passed": all(r.passed and r.status == "ok"
                          for r in (kernel, product))}


def tangent_trial(rng):
    spec = ALL_FAMILY_SPECS[int(rng.integers(len(ALL_FAMILY_SPECS)))]
    g = random_element(spec, rng)
    return _adopt(tangent_space_check(spec, g, random_algebra(spec, rng)))


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
    if command == "lemma32":  # the curve sweep keeps status "ok"
        assert trials[middle]["residuals"] == {}
    else:
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
