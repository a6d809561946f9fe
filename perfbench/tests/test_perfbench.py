"""Tests of the benchmark itself: its commands run, its metric names are
valid, and its item counts and output checks behave on known outputs.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Command, OutputError, check_output  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def all_commands(tiny):
    return [(w, c) for w in workloads.WORKLOADS
            for c in workloads.commands(w, 3, tiny=tiny)]


@pytest.mark.parametrize("workload,cmd", all_commands(tiny=True),
                         ids=lambda x: x if isinstance(x, str) else x.label)
def test_tiny_command_exits_zero_and_passes_its_check(workload, cmd, capsysbinary):
    from torsion_orbits import cli
    assert cli.main(list(cmd.argv)) == 0
    out = capsysbinary.readouterr().out
    assert check_output(cmd, out, workloads.load_digests()) > 0


def test_full_commands_parse():
    from torsion_orbits import cli
    parser = cli.build_parser()
    for _, cmd in all_commands(tiny=False):
        parser.parse_args(list(cmd.argv))


def test_every_catalog_has_a_reference_digest():
    digests = workloads.load_digests()
    for tiny in (True, False):
        for _, cmd in all_commands(tiny):
            if cmd.kind == "catalog":
                assert cmd.label in digests


def test_seeds_are_derived_and_distinct():
    a = workloads.commands("sample-census", 1)
    assert a == workloads.commands("sample-census", 1)
    b = workloads.commands("sample-census", 2)
    seeds = lambda cmds: [c.argv[c.argv.index("--seed") + 1] for c in cmds]
    assert len(set(seeds(a))) == len(a)
    assert not set(seeds(a)) & set(seeds(b))
    assert workloads.commands("catalog-exact", 1) == \
        workloads.commands("catalog-exact", 2)
    with pytest.raises(ValueError):
        workloads.commands("verify-sweep", -1)


def test_metric_names_and_units():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in config["end_to_end"]}
    layer = {m["name"]: m for m in config["per_layer"]}
    assert list(e2e) == list(run.END_TO_END)
    assert list(layer) == list(spans.PER_LAYER)
    for name, m in {**e2e, **layer}.items():
        assert NAME.match(name) and re.fullmatch(r"[A-Za-z0-9_.-]+", name)
        assert UNIT.match(m["unit"])
    for name, m in e2e.items():
        assert m["unit"] == run.END_TO_END[name]
        assert 0 < m["bound"] <= 0.25
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    for name, m in layer.items():
        assert m["unit"] == spans.metric_unit(name)
    for layer_name in (*spans.LAYERS, "linalg"):
        for stat in ("calls", "self_s", "errors"):
            assert f"{layer_name}.{stat}" in layer
    assert {w["name"] for w in config["workloads"]} == set(workloads.WORKLOADS)


# ---------------------------------------------------------------- fixtures

def _report(trials, passed=True, details=None, status="ok", trial_passed=True,
            residuals=None):
    return json.dumps({
        "check": "x", "passed": passed, "details": details or {},
        "trials": [{"index": i, "status": status, "passed": trial_passed,
                    "residuals": residuals or {}} for i in range(trials)],
    }).encode()


SWEEP = Command(("verify", "lemma31", "--trials", "3"), "trials", 3)
GCD = Command(("verify", "gcd", "--format", "json"), "gcd")


def test_sweep_report_items_and_failures():
    assert check_output(SWEEP, _report(3), {}) == 3
    for bad in (_report(2), _report(3, passed=False),
                _report(3, status="rejected"), _report(3, trial_passed=False),
                b"not json"):
        with pytest.raises(OutputError):
            check_output(SWEEP, bad, {})


def test_census_cluster_and_class_counts():
    ok = {"cluster_count": 4, "expected_clusters": 4}
    assert check_output(SWEEP, _report(3, details=ok), {}) == 3
    with pytest.raises(OutputError):
        check_output(SWEEP, _report(3, details={"cluster_count": 3,
                                                "expected_clusters": 4}), {})
    with pytest.raises(OutputError):
        check_output(SWEEP, _report(3, details={"class_count": 23,
                                                "expected_classes": 24}), {})


def test_gcd_items_and_mismatch():
    details = {"count_n": 5, "count_m": 7}
    good = _report(1, details=details, residuals={"mismatch_count": 0.0})
    assert check_output(GCD, good, {}) == 12
    bad = _report(1, details=details, residuals={"mismatch_count": 1.0})
    with pytest.raises(OutputError):
        check_output(GCD, bad, {})


@pytest.mark.parametrize("fmt,data,items", [
    ("text", b"U(2) n=2: 3 components\n  [0] 0,0 ...\n", 3),
    ("csv", b"group,size,n\nU,2,2\nU,2,2\n", 2),
    ("json", b'{"components": [{}, {}, {}, {}]}\n', 4),
])
def test_catalog_items_and_digest(fmt, data, items):
    cmd = Command(("catalog", "--format", fmt), "catalog")
    digests = {cmd.label: hashlib.sha256(data).hexdigest()}
    assert check_output(cmd, data, digests) == items
    with pytest.raises(OutputError):
        check_output(cmd, data + b" ", digests)
    with pytest.raises(OutputError):
        check_output(cmd, data, {})


def test_surface_rows_and_residuals():
    cmd = Command(("demo-surface", "--format", "csv"), "surface", 2)
    head = b"x,y,z,residual,grad_norm\n"
    good = head + b"1.0,0.5,0.1,0.0,3.0\n1.5,0.2,0.3,1e-12,4.0\n"
    assert check_output(cmd, good, {}) == 2
    with pytest.raises(OutputError):
        check_output(cmd, head + b"1.0,0.5,0.1,0.0,3.0\n", {})
    with pytest.raises(OutputError):
        check_output(cmd, head + b"1,0,0,0,1\n1,0,0,1e-6,1\n", {})


# ------------------------------------------------------- sample-count rule

def _unseen_expectation(cmd):
    """Exact expected number of classes a census with ``cmd``'s sample
    count never draws: sum_c (1 - p_c)^k."""
    from torsion_orbits import GroupSpec, catalog_components
    a = cmd.argv
    n, k = int(a[a.index("--n") + 1]), cmd.requested
    if a[1] == "sl2":
        return n * (1 - 1 / n) ** k
    spec = GroupSpec(a[a.index("--group") + 1], int(a[a.index("--size") + 1]))
    sizes = [c.orbit_size for c in catalog_components(spec, n)]
    return sum((1 - s / sum(sizes)) ** k for s in sizes)


@pytest.mark.parametrize("tiny", [True, False])
def test_census_sample_counts_meet_the_coverage_rule(tiny):
    censuses = [c for _, c in all_commands(tiny) if c.argv[0] == "census"]
    assert censuses
    for cmd in censuses:
        assert _unseen_expectation(cmd) < 0.01, cmd.label


# --------------------------------------------------------------- host speed

def _record(wall, main, kernel, items):
    return {"wall_s": wall, "main_s": main, "kernel_s": [kernel, kernel],
            "items": items, "maxrss_kib": 2048}


def test_timings_are_scaled_by_the_kernel_time_before_each_command():
    ref = hostspeed.REFERENCE_S
    # one pass at the reference speed, the same pass on a host half as fast
    fast = [_record(2.0, 1.5, ref, 30), _record(1.0, 0.5, ref, 10)]
    slow = [_record(4.0, 3.0, 2 * ref, 30), _record(2.0, 1.0, 2 * ref, 10)]
    slow[1]["kernel_s"] = [1.5 * ref, 2.5 * ref]  # the mean counts
    m = run.end_to_end([fast, slow], attempted=4, failed=0)
    for name, value in (("wall_s", 3.0), ("setup_s", 0.5),
                        ("items_per_s", 20.0)):
        assert m[name]["median"] == pytest.approx(value)
        assert m[name]["q3"] - m[name]["q1"] == pytest.approx(0.0)
    raw = run.end_to_end([slow], attempted=2, failed=0, scaled=False)
    assert raw["wall_s"]["median"] == pytest.approx(6.0)
    assert raw["items_per_s"]["median"] == pytest.approx(10.0)
    assert m["peak_rss_mib"]["median"] == 2.0 and m["ok_ratio"]["median"] == 1


def test_kernel_sample_is_positive():
    assert 0 < hostspeed.sample() < 60


# ------------------------------------------------------------------ tracing

def test_self_time_subtracts_the_union_of_children():
    # root 0..100 with two overlapping children (threads) 10..50 and 30..60
    spans_ = [[1, 0, "cli.main", 0, 100, 0, None],
              [2, 1, "sweeps.sweep_x", 10, 50, 0, {"trials": 2, "rejected": 0}],
              [3, 1, "sweeps.sweep_x", 30, 60, 0, {"trials": 1, "rejected": 0}],
              [4, 2, "linalg.svd", 20, 25, 1, None]]
    self_ns = spans.self_times_ns(spans_)
    assert self_ns == {1: 50, 2: 35, 3: 30, 4: 5}
    m = spans.layer_metrics([{"spans": spans_, "imports": {}, "bytes_out": 7}])
    assert m["sweeps.trials"] == 3 and m["linalg.errors"] == 1
    assert m["linalg.svd_calls"] == 1 and m["cli.bytes_out"] == 7


def test_nested_calls_of_one_group_count_once():
    spans_ = [[1, 0, "torsion.matrix_invariant", 0, 10, 0, None],
              [2, 1, "torsion.canonical_align", 1, 8, 0, None],
              [3, 0, "torsion.canonical_align", 20, 25, 0, None]]
    m = spans.layer_metrics([{"spans": spans_}])
    assert m["torsion.align_calls"] == 2
    assert m["torsion.align_s"] == pytest.approx(15e-9)


def test_traced_command_records_spans_of_its_layers(tmp_path):
    cmd = workloads.commands("sample-census", 0, tiny=True)[4]  # lemma33
    record = tmp_path / "record.json"
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin",
           **run.BLAS_PINS}
    proc = subprocess.run(
        [sys.executable, str(BENCH / "launch.py"), str(record), "1", "--",
         *cmd.argv], capture_output=True, env=env, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(record.read_text())
    layers = {s[2].split(".", 1)[0] for s in data["spans"]}
    assert {"cli", "sweeps", "torsion", "groups", "subspaces", "reports",
            "linalg"} <= layers
    names = {s[2] for s in data["spans"]}
    assert "cli.main" in names and "reports.TrialRecord.__post_init__" in names
    assert check_output(cmd, proc.stdout, {}) == 3
