"""Seeded multi-trial runs: every sweep and census replays trial by trial."""

from dataclasses import asdict

import pytest

from torsion_orbits.groups import GroupSpec
from torsion_orbits.sweeps import (COMPACT_SWEEP_SPECS, ALL_FAMILY_SPECS,
                                   sweep_curve_identities, sweep_density,
                                   sweep_kernel_image, sweep_tangent,
                                   sweep_zero_intersection)
from torsion_orbits.torsion import cluster_census, sl2_component_census

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
