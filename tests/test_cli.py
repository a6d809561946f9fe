"""End-to-end CLI runs: exit codes, output formats, determinism."""

import collections
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_torsion import catalog_csv_oracle, catalog_json_payload
from torsion_orbits import cli, torsion
from torsion_orbits.groups import GroupSpec
from torsion_orbits.reports import strip_wall_time

#: Environment of a CLI run in a subprocess, on the source tree.
SRC_ENV = {**os.environ,
           "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

#: sha256 of the stdout of catalog commands, recorded by the benchmark.
REFERENCE_DIGESTS = (Path(__file__).resolve().parents[1] / "perfbench"
                     / "reference_digests.json")


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# --------------------------------------------------------------- exit codes

def test_catalog_counts(capsys):
    # class counts fixed by the torus enumeration: 2, 3, 1
    for argv, want in ((["catalog", "--group", "SU", "--size", "2", "--n", "2"], 2),
                       (["catalog", "--group", "U", "--size", "2", "--n", "2"], 3),
                       (["catalog", "--group", "U", "--size", "1", "--n", "1"], 1)):
        code, out, _ = run(capsys, argv + ["--format", "csv"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 1 + want
    assert rows[0][0] == "group"


@pytest.mark.parametrize("argv", [
    ["catalog", "--group", "U", "--size", "4", "--n", "16", "--format", "json"],
    ["demo-surface", "--samples", "100000", "--format", "csv"]],
    ids=["catalog", "demo-surface"])
def test_a_closed_stdout_exits_1_and_prints_nothing(argv):
    # the reader takes 100 bytes and closes the pipe, as ``| head`` does;
    # the write used to raise BrokenPipeError out of main and print its
    # traceback (exit 1), and the flush at exit an "Exception ignored" line
    proc = subprocess.Popen(
        [sys.executable, "-m", "torsion_orbits.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=SRC_ENV)
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=120), err) == (1, b"")


def test_an_output_file_needs_no_stdout(tmp_path):
    # with stdout closed from the start, --output still writes and exits 0
    out = tmp_path / "catalog.csv"
    code = subprocess.run(
        ["sh", "-c", 'exec "$0" -m torsion_orbits.cli catalog --group SU '
         '--size 2 --n 4 --format csv --output "$1" >&-', sys.executable,
         str(out)], env=SRC_ENV, timeout=120).returncode
    assert code == 0
    assert out.read_text().startswith("group,size,n,")


def test_catalog_bytes_match_reference_digests(capsys):
    # catalogs are a byte contract: every recorded command still prints
    # exactly the bytes it printed when the digests were recorded
    digests = json.loads(REFERENCE_DIGESTS.read_text())
    assert len(digests) == 10
    for command, want in digests.items():
        code, out, _ = run(capsys, command.split())
        assert code == 0, command
        assert hashlib.sha256(out.encode()).hexdigest() == want, command


#: sha256 of the stdout of catalogs of the shapes the benchmark's digests
#: leave out: the trivial Weyl groups (SL(2,R), SO(2)), U(1), SU(2) and
#: the parity-split SO(4) in text; recorded while each family's facts
#: were spread over family tests in every layer.
CATALOG_DIGESTS = {
    "catalog --group SL2R --n 12 --format json":
        "bc8af13fc81b698204c52a93bc24e23ab2ef3ee71b91f680774285d8d2c5e692",
    "catalog --group SO --size 2 --n 9 --format csv":
        "8a0d03c43cc91d691c1581547cb5a4707b415162633dc917c7d75b38f252ec98",
    "catalog --group U --size 1 --n 7 --format text":
        "e8bbc21d62d1440530b4632c2c6471a4782679efbb5a8d57f48ad2836b55d2ab",
    "catalog --group SU --size 2 --n 8 --format json":
        "b7e5e40fccd8575d53288de733f42e2b03e097598f2adff5ab17ce0c75a99f9a",
    "catalog --group SO --size 4 --n 12 --format text":
        "35402f8ef242500ba5a1c1dae384df82d3a2e9eb4bac695b95b889bb0b53b768",
    # JSON catalogs of several blocks each, recorded while every block
    # built its own torus stack and row texts: U, SU, the parity-split
    # SO(4), the fixed axis of SO(5) and SL(2,R)
    "catalog --group U --size 3 --n 20 --format json":
        "724660730091b7b7765223e31f15be57f8dad08c6e753d7d31fee90e13bf3afa",
    "catalog --group SU --size 4 --n 20 --format json":
        "d682ec0971a9e72386b4e4fbd18226b50a85b161067a5620374e106a326c994f",
    "catalog --group SO --size 4 --n 60 --format json":
        "3b1724fa108dfaab5353866a7e172682fa04de535ba4c46ab5c9be851cc3e7b9",
    "catalog --group SO --size 5 --n 60 --format json":
        "a4b58a5f3a002797426fbcd04ed09d3b57635c8ce691472c69a00e32ac24daf9",
    "catalog --group SL2R --n 300 --format json":
        "393e8b9bce62c67a4639159a72ad8327412a99b3f60e65fa2142ec75c1bd066a",
}


@pytest.mark.parametrize("command", CATALOG_DIGESTS)
def test_catalog_bytes_match_recorded_digests(capsys, command):
    code, out, _ = run(capsys, command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        CATALOG_DIGESTS[command]


def test_catalog_json_output_file_matches_its_reference_digest(capsys,
                                                               tmp_path):
    # --output streams the JSON to the file: the same bytes as stdout
    command = "catalog --group U --size 4 --n 16 --format json"
    path = tmp_path / "u4.json"
    code, out, _ = run(capsys, [*command.split(), "--output", str(path)])
    assert code == 0 and out == ""
    want = json.loads(REFERENCE_DIGESTS.read_text())[command]
    assert hashlib.sha256(path.read_bytes()).hexdigest() == want


def test_catalog_json_refusal_opens_no_output_file(capsys, tmp_path,
                                                   monkeypatch):
    # a non-finite representative is refused before --output is created
    torus_stack = torsion.torus_stack

    def broken(spec, phases):
        return np.full_like(torus_stack(spec, phases), np.nan)

    monkeypatch.setattr(torsion, "torus_stack", broken)
    path = tmp_path / "bad.json"
    code, out, err = run(capsys, ["catalog", "--group", "U", "--size", "2",
                                  "--n", "3", "--format", "json",
                                  "--output", str(path)])
    assert code == 2 and out == ""
    assert "not finite" in err
    assert not path.exists()


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_catalog_budget_refusal_opens_no_output_file(capsys, tmp_path, fmt):
    path = tmp_path / f"big.{fmt}"
    code, out, err = run(capsys, ["catalog", "--group", "U", "--size", "5",
                                  "--n", "400", "--format", fmt,
                                  "--output", str(path)])
    assert code == 2 and out == ""
    assert "above the limit" in err
    assert not path.exists()


def catalog_text(spec, n, catalog):
    """The text catalog as the CLI printed it from a whole catalog list:
    the oracle of the block printer."""
    lines = [f"{spec.label()} n={n}: {len(catalog)} components"]
    for idx, comp in enumerate(catalog):
        lines.append(f"  [{idx}] {comp.canonical.label():<24} "
                     f"dim={comp.dimension} order={comp.exact_order} "
                     f"orbit={comp.orbit_size}")
    return "\n".join(lines) + "\n"


def catalog_json(catalog, config):
    """The JSON catalog as json.dumps prints the oracle payload."""
    return json.dumps({"config": config,
                       "components": catalog_json_payload(catalog)},
                      sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("block", [1, 3, 256])
def test_catalog_blocks_print_the_list_writers_bytes(capsys, monkeypatch,
                                                     block):
    # catalogs shorter than, equal to and longer than a block, and a few
    # blocks long, print what the oracles print for the whole list
    monkeypatch.setattr(torsion, "_BLOCK", block)
    for family, size, n in (("SU", 2, 2), ("U", 2, 2), ("U", 1, 4),
                            ("SO", 4, 3), ("SO", 2, 255), ("SO", 2, 256),
                            ("SO", 2, 257), ("U", 3, 12), ("SL2R", 2, 7)):
        spec = GroupSpec(family, size)
        catalog = torsion.catalog_components(spec, n)
        config = cli.RunConfig(command="catalog", family=family, size=size,
                               n=n, fmt="json").as_dict()
        argv = ["catalog", "--group", family, "--size", str(size),
                "--n", str(n), "--format"]
        for fmt, want in (("text", catalog_text(spec, n, catalog)),
                          ("csv", catalog_csv_oracle(catalog)),
                          ("json", catalog_json(catalog, config))):
            code, out, _ = run(capsys, argv + [fmt])
            assert (code, out) == (0, want), (spec.label(), n, fmt)


#: Groups of the catalog property, every family and parity case.
CATALOG_SPECS = ([GroupSpec("U", m) for m in range(1, 5)]
                 + [GroupSpec("SU", m) for m in range(2, 5)]
                 + [GroupSpec("SO", m) for m in range(2, 6)]
                 + [GroupSpec("SL2R", 2)])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(CATALOG_SPECS), st.integers(1, 12),
       st.sampled_from([1, 2, 3, 5, 256]))
def test_catalog_blocks_print_the_list_writers_bytes_everywhere(spec, n,
                                                                block):
    # at any block size, the CLI's three formats print what the oracles
    # print for catalog_components: the JSON is what json.dumps prints for
    # the oracle payload; catalogs kept under 200 classes
    if torsion.count_components(spec, n) > 200:
        n = 2
    catalog = torsion.catalog_components(spec, n)
    config = cli.RunConfig(command="catalog", family=spec.family,
                           size=spec.size, n=n, fmt="json").as_dict()
    argv = ["catalog", "--group", spec.family, "--size", str(spec.size),
            "--n", str(n), "--format"]
    with mock.patch.object(torsion, "_BLOCK", block):
        for fmt, want in (("text", catalog_text(spec, n, catalog)),
                          ("csv", catalog_csv_oracle(catalog)),
                          ("json", catalog_json(catalog, config))):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.main(argv + [fmt]) == 0
            assert out.getvalue() == want, (spec.label(), n, block, fmt)


def test_cli_catalogs_build_no_per_class_objects(capsys, monkeypatch):
    # the printers read the class table's columns: a CLI catalog in any
    # format makes no ComponentDescriptor, CanonicalInvariant or Fraction
    counts = collections.Counter()

    def counting(name, make):
        def counted(*args, **kwargs):
            counts[name] += 1
            return make(*args, **kwargs)
        return counted

    for name in ("ComponentDescriptor", "CanonicalInvariant", "Fraction"):
        monkeypatch.setattr(torsion, name,
                            counting(name, getattr(torsion, name)))
    for family, size, n in (("U", 3, 6), ("SO", 4, 5), ("SL2R", 2, 4)):
        for fmt in ("text", "csv", "json"):
            code, out, _ = run(capsys, ["catalog", "--group", family,
                                        "--size", str(size), "--n", str(n),
                                        "--format", fmt])
            assert code == 0 and out
    assert counts == {}
    # the wrappers count: the list API still builds all three per class
    torsion.catalog_components(GroupSpec("SO", 4), 5)
    assert set(counts) == {"ComponentDescriptor", "CanonicalInvariant",
                           "Fraction"}


@pytest.mark.parametrize("argv", [
    ["catalog", "--group", "U", "--size", "2", "--n", "2"],
    ["catalog", "--group", "U", "--size", "2", "--n", "2", "--format",
     "json"],
    ["verify", "gcd", "--group", "SU", "--size", "2", "--n", "4", "--m",
     "6"],
    ["demo-surface", "--samples", "20"],
    ["demo-surface", "--samples", "20", "--format", "csv"],
])
@pytest.mark.parametrize("where", ["missing", "directory"])
def test_unwritable_output_exits_2(capsys, tmp_path, argv, where):
    # a path in a missing directory, or a directory, is a bad --output:
    # exit 2 with an error line, not a traceback and exit 1
    path = tmp_path / "no-such-dir" / "out" if where == "missing" else tmp_path
    code, out, err = run(capsys, argv + ["--output", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write --output:")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["catalog", "--group", "U", "--size", "5", "--n", "400"],
    ["census", "cluster", "--group", "U", "--size", "5", "--n", "400"],
    ["verify", "gcd", "--group", "U", "--size", "5", "--n", "400",
     "--m", "2"],
])
def test_runaway_class_counts_exit_2_with_estimate(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert f"up to {math.comb(404, 5):,} classes" in err


def test_catalog_text_and_dims(capsys):
    code, out, _ = run(capsys, ["catalog", "--group", "SU", "--size", "2",
                                "--n", "2"])
    assert code == 0
    assert "2 components" in out
    assert out.count("dim=0") == 2  # both classes are central


def test_verify_small_sweep_passes(capsys):
    code, out, _ = run(capsys, ["verify", "lemma33", "--group", "SU",
                                "--size", "2", "--n", "2", "--trials", "3",
                                "--seed", "7"])
    assert code == 0
    assert out.startswith("kernel-image: PASS")


def test_verify_gcd_passes(capsys):
    code, out, _ = run(capsys, ["verify", "gcd", "--group", "SU", "--size",
                                "2", "--n", "4", "--m", "6"])
    assert code == 0
    assert "gcd-intersection: PASS" in out


def test_verify_failure_exits_1(capsys):
    # an absurd subspace tolerance cannot be met by any float computation
    code, out, _ = run(capsys, ["verify", "lemma33", "--group", "U",
                                "--size", "2", "--n", "2", "--trials", "2",
                                "--tol-subspace", "1e-300"])
    assert code == 1
    assert "FAIL" in out
    assert "trial 0 seed=" in out


@pytest.mark.parametrize("argv", [
    ["verify", "lemma33", "--trials", "0"],
    ["verify", "lemma33", "--jobs", "0"],
    ["verify", "lemma33", "--group", "U", "--size", "2", "--format", "csv"],
    ["verify", "gcd", "--group", "SU", "--size", "2", "--n", "4"],
    ["verify", "lemma31", "--size", "2"],
    ["catalog", "--n", "2"],
    ["census", "cluster", "--n", "2"],
    ["census", "sl2", "--n", "2", "--samples", "0"],
    ["demo-surface", "--a-max", "0"],
    ["demo-surface", "--a", "1.0"],
    ["demo-surface", "--a-min", "1.5", "--a-max", "0.5"],
    ["verify", "lemma33", "--tol-rank", "inf"],
    ["verify", "zero-intersection", "--tol-subspace", "inf"],
    ["verify", "lemma33", "--tol-subspace", "inf"],
    ["verify", "lemma32", "--tol-membership", "inf"],
    ["verify", "lemma33", "--tol-rank", "nan"],
    ["demo-surface", "--a", "nan", "--phi", "1"],
    ["demo-surface", "--a", "inf", "--phi", "1"],
    ["demo-surface", "--a", "1", "--phi", "inf"],
    ["demo-surface", "--a", "1", "--phi", "nan", "--format", "csv"],
    ["demo-surface", "--a-max", "inf"],
    ["verify", "lemma33", "--tol-subspace", "10"],
    ["verify", "zero-intersection", "--tol-subspace", "1.6"],
    ["verify", "lemma33", "--tol-subspace", repr(np.pi / 2)],
    ["verify", "lemma33", "--tol-rank", "2"],
    ["verify", "zero-intersection", "--tol-rank", "1"],
])
def test_config_errors_exit_2(capsys, argv):
    code, _, err = run(capsys, argv)
    assert code == 2
    assert err.startswith("error:")


#: Every sweep and census the CLI runs, by its name in ``cli``.
RUNS = ("sweep_tangent", "sweep_curve_identities", "sweep_kernel_image",
        "sweep_zero_intersection", "sweep_density", "gcd_intersection_check",
        "cluster_census", "sl2_component_census")


@pytest.mark.parametrize("argv", [
    ["verify", "lemma31", "--trials", "20000"],
    ["verify", "gcd", "--group", "U", "--size", "2", "--n", "4", "--m", "6"],
    ["census", "cluster", "--group", "U", "--size", "2", "--n", "3"],
])
def test_csv_is_refused_before_any_trial_runs(capsys, monkeypatch, argv):
    def never(*args, **kwargs):
        raise AssertionError("a run started before csv was refused")

    for name in RUNS:
        monkeypatch.setattr(cli, name, never)
    code, out, err = run(capsys, argv + ["--format", "csv"])
    assert (code, out) == (2, "")
    assert err == "error: csv output applies to catalogs and point clouds only\n"


def test_argparse_errors_exit_2(capsys):
    assert cli.main(["verify", "no-such-check"]) == 2
    assert cli.main(["--bogus"]) == 2
    capsys.readouterr()


def test_unsupported_group_exits_3(capsys):
    code, _, err = run(capsys, ["catalog", "--group", "SU", "--size", "9",
                                "--n", "2"])
    assert code == 3
    assert "out of the supported range" in err
    code, _, err = run(capsys, ["verify", "density", "--group", "SL2R",
                                "--trials", "2"])
    assert code == 3
    code, out, err = run(capsys, ["catalog", "--group", "SL2R", "--size", "3",
                                  "--n", "3"])
    assert code == 3 and out == ""
    assert "SL2R is only realized on 2x2 matrices" in err


def test_help_exits_0(capsys):
    assert cli.main(["--help"]) == 0
    assert cli.main(["verify", "--help"]) == 0
    capsys.readouterr()


# -------------------------------------------------------------- determinism

def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_json_reruns_identical_modulo_wall_time(capsys, tmp_path):
    argv = ["verify", "lemma32", "--group", "SU", "--size", "2", "--n", "3",
            "--trials", "4", "--seed", "11", "--format", "json"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(argv + ["--output", str(a)]) == 0
    assert cli.main(argv + ["--output", str(b)]) == 0
    capsys.readouterr()
    assert strip_wall_time(read_json(a)) == strip_wall_time(read_json(b))


def test_jobs_do_not_change_trials(capsys, tmp_path):
    base = ["verify", "lemma33", "--group", "SO", "--size", "3", "--n", "4",
            "--trials", "6", "--seed", "5", "--format", "json"]
    a, b = tmp_path / "j1.json", tmp_path / "j4.json"
    assert cli.main(base + ["--jobs", "1", "--output", str(a)]) == 0
    assert cli.main(base + ["--jobs", "4", "--output", str(b)]) == 0
    capsys.readouterr()
    pa, pb = read_json(a), read_json(b)
    assert strip_wall_time(pa["trials"]) == strip_wall_time(pb["trials"])
    assert pa["passed"] == pb["passed"]


#: Exit code and sha256 of the sorted, wall-time-stripped JSON payload of
#: small seeded verify/census runs, recorded before the sweeps and censuses
#: shared one trial driver.  A reordered draw, a changed residual or a
#: dropped config key changes a digest.
SAME_SEED_DIGESTS = {
    "verify lemma31 --trials 8 --seed 3": (
        0, "aebe8014340e90472aa3a28b735234942ce5b7c1f046b1b448e2782f5b08d0cc"),
    "verify lemma32 --trials 8 --seed 3": (
        0, "bc9b7d40bb7b9f55f6ee2eba3a1b6feb2dab8e410c7e30cdc56a0e2738cf9240"),
    "verify lemma33 --trials 8 --seed 3 --jobs 2": (
        0, "3184b6d4fe11c461946f31c624d67ca902fe588a645050baa778f67316e4fa42"),
    "verify lemma33 --group U --size 4 --n 12 --trials 3 --seed 3": (
        0, "c127679e0d96e28322765970a4134b61348e2cd3a032b844ab71dede45d7d5db"),
    "verify lemma33 --group U --size 2 --n 2 --trials 3 --seed 20 "
    "--tol-subspace 1e-300": (
        1, "4054ffeba29300a50c06b464e6c6363b403e5319ec0065815527c4618f447913"),
    "verify zero-intersection --trials 8 --seed 3": (
        0, "51caf2620eef63ed848ce82ce0d6cae7e4a7ae142cf848289df62ea61a77bf88"),
    "verify density --trials 8 --seed 3": (
        0, "820f70a001f08a926b3f4eab2db6e42aabc6a6ebce10180245c04aa9d6af9018"),
    "census cluster --group SU --size 4 --n 6 --samples 200 --seed 3": (
        0, "15080c3d50cc39a64218b11acbd8947b4facb941d0a0987141454e5081edf49f"),
    "census cluster --group SO --size 5 --n 8 --samples 100 --seed 3": (
        0, "0b18d57257b1a61a7cdfbeddd14d4022723781634c6320f5564df9c7d7e0fc15"),
    "census cluster --group U --size 3 --n 12 --samples 40 --seed 3": (
        1, "02a09bc5111e1ce5a22e9857b7cb047e29ec8e85b0d8712f09b3e72a88ba3691"),
    "census sl2 --n 24 --samples 200 --seed 3": (
        0, "8bc5abe09432be074885da8debc0b4d6ae9f3c28e2d35fca566c779af74cb4ce"),
    "census sl2 --n 5 --samples 1 --seed 3": (
        1, "5cf924ee0f7a293e79c9d2ef9a1b01aaecdd6763fee54dc9c477f1354438369b"),
    # 300 trials reach most (group, n) stacks of the default spec mix;
    # recorded before the sweeps were stacked
    "verify lemma31 --trials 300 --seed 5": (
        0, "9b698983c2b684b7d9649f49d0dc2a32749d071f3a50c117f824d34260d29b68"),
    "verify lemma32 --trials 300 --seed 5": (
        0, "83a8880195f22b78b583977d0e020e22060cc9204289cc8fa6a27dad561009c5"),
    "verify lemma33 --trials 300 --seed 5": (
        0, "5b17888a16201267645c785d4937cfb51cfd73a9e5c3b302cc0f63c7ebc27003"),
    "verify zero-intersection --trials 300 --seed 5": (
        0, "3287cd943904d76654470697a7bffb72a6596385ee8a4a22a1b1d30e637d8a26"),
    "verify density --trials 300 --seed 5": (
        0, "d61faabf505b9b65f19d19d7b37661bc247f8af918c433763f937cd5b7775d7b"),
    "census sl2 --n 24 --samples 1000 --seed 5": (
        0, "d4ae20f0159c51cf7f5e66f1e3c29932128f2ade51cbe0c3109b22fdef209ec6"),
    # recorded before the gcd check intersected integer phase keys
    "verify gcd --group U --size 3 --n 24 --m 36": (
        0, "2d518d9b1e6418ae0677f11baa9ea4a511aed53097179e2da97a790f603da494"),
    "verify gcd --group SO --size 4 --n 12 --m 18": (
        0, "9265602ed4c3198d8b7fb768164816aed14f1bd7d4c8ddb735974b82b2df791e"),
    "verify gcd --group SU --size 3 --n 6 --m 9": (
        0, "64f7144a2a14a85fb9791b9b506fa837a52520cee41ca5038cacfb8e59624519"),
    "verify gcd --group SL2R --n 4 --m 6": (
        0, "2d00b4cdd4410a887c9538cc97ef3871f94bfc26e491ed116f6a42091c5d60ad"),
    # the two largest census sizes the benchmark runs; recorded before the
    # census samples were read as stacks and reports printed from templates
    "census sl2 --n 24 --samples 4000 --seed 5": (
        0, "e656d214340fcb2f254269fbfaeaca9a930c04e37cbda8027d11dea9e057a141"),
    "census cluster --group SU --size 4 --n 6 --samples 2000 --seed 5": (
        0, "18a915e0802d0954901584b14cb6c6dd99da7c1cf12b7ae7f5647753e7228dd9"),
    # the two subspace sweeps at benchmark size (lemma33 prints 1,500
    # principal-angle residuals); recorded before the principal angles
    # moved from scipy.linalg.subspace_angles to a stacked numpy kernel
    "verify lemma33 --jobs 2 --trials 1500 --seed 1822214455": (
        0, "08a7b8baeb1fb7a5f9694dda7e1b756fcb24b45a66e75d31a721275f7ff3e3ae"),
    "verify zero-intersection --trials 1500 --seed 113215257": (
        0, "faa7b8c839fa0b53dcc493b3ed90c11fec420f48f5356fccf9f7c68d0ea9cf94"),
    # the cluster censuses of every compact shape at benchmark size (SO(4)
    # n=12 has free classes, which carry a parity bit, and non-free ones);
    # recorded before the census invariants moved from one Schur form per
    # sample to one stacked eigensolve per stack
    "census cluster --group SO --size 5 --n 8 --samples 2000 --seed 5": (
        0, "36972aeb9bde121ac863a73de5a5d93f2c6e884d2edb1f82a459b176d81c9757"),
    "census cluster --group U --size 3 --n 6 --samples 2000 --seed 5": (
        0, "0c9e5bab263cc5ff292293ce94751a620c8743a8b86024ce473483a63ec0782c"),
    "census cluster --group SO --size 4 --n 12 --samples 3000 --seed 5": (
        0, "38e09ceabc352b319e5b88af8b6acc571c5a8b9ac3b213f6c5a694944c84d9f4"),
    "census cluster --group SO --size 2 --n 9 --samples 500 --seed 5": (
        0, "a68fb695b021f005410c29b225720b1915b25c08bc2cb036272cc5245a8bc0aa"),
    # runs whose trial seeds cross 2**32 and 2**64 (the second with
    # SL(2,R) draws); recorded while each trial still seeded its own
    # default_rng, before the engine computed every trial's state in one
    # vectorized pass
    "verify lemma31 --trials 8 --seed 4294967292": (
        0, "2f569f7aa5048aa3e7734a47d2ccb2385226a865478a42583ebc68c5a9909985"),
    "census sl2 --n 6 --samples 60 --seed 18446744073709551600": (
        0, "9b821c505005546757701aea6f20c370aa083c77ac9edbec2a54709939b38414"),
    # SL(2,R) cluster censuses, whose clusters are labelled by the
    # alignment phases; recorded while SL(2,R) elements were aligned by
    # an SVD of g - mu I
    "census cluster --group SL2R --n 24 --samples 2000 --seed 5": (
        0, "47381cd8b8d8ff812523801f4e01168025684a75d09c9eb8bdfaffee1cd7f718"),
    "census cluster --group SL2R --n 7 --samples 300 --seed 3": (
        0, "92b2945ec6ffd3e11705470f0c09c9a3c7dd29ee80c33902b7f4c4dac41c861a"),
}


def test_same_seed_json_matches_recorded_digests(capsys):
    # same-seed reports are a byte contract apart from wall time
    for command, (want_code, want) in SAME_SEED_DIGESTS.items():
        code, out, _ = run(capsys, command.split() + ["--format", "json"])
        assert code == want_code, command
        payload = json.loads(out)
        # the digest re-serializes; this pins the printed layout
        assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n", \
            command
        blob = json.dumps(strip_wall_time(payload), sort_keys=True)
        assert hashlib.sha256(blob.encode()).hexdigest() == want, command


def test_env_seed_fallback(capsys, tmp_path, monkeypatch):
    argv = ["verify", "lemma31", "--group", "U", "--size", "1",
            "--trials", "3", "--format", "json"]
    a, b = tmp_path / "env.json", tmp_path / "flag.json"
    monkeypatch.setenv(cli.ENV_SEED, "42")
    assert cli.main(argv + ["--output", str(a)]) == 0
    monkeypatch.delenv(cli.ENV_SEED)
    assert cli.main(argv + ["--seed", "42", "--output", str(b)]) == 0
    capsys.readouterr()
    assert strip_wall_time(read_json(a)) == strip_wall_time(read_json(b))


def test_bad_env_seed_exits_2(capsys, monkeypatch):
    monkeypatch.setenv(cli.ENV_SEED, "not-a-number")
    code, _, err = run(capsys, ["verify", "lemma31", "--group", "U",
                                "--size", "1", "--trials", "2"])
    assert code == 2
    assert cli.ENV_SEED in err


def test_failing_trials_carry_replay_seed(capsys):
    code, out, _ = run(capsys, ["verify", "lemma33", "--group", "U",
                                "--size", "2", "--n", "2", "--trials", "3",
                                "--seed", "20", "--tol-subspace", "1e-300",
                                "--format", "json"])
    assert code == 1
    payload = json.loads(out)
    for trial in payload["trials"]:
        assert trial["seed"] == 20 + trial["index"]  # replayable per trial


# ------------------------------------------------------------------- census

def test_census_sl2_json(capsys):
    code, out, _ = run(capsys, ["census", "sl2", "--n", "4", "--samples",
                                "400", "--seed", "1", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["details"]["class_count"] == 4
    assert payload["details"]["expected_classes"] == 4


def test_census_cluster_refuses_an_n_too_fine_to_snap(capsys):
    code, out, err = run(capsys, ["census", "cluster", "--group", "SO",
                                  "--size", "2", "--n", "500000",
                                  "--samples", "1"])
    assert code == 2 and out == ""
    assert "n=500000 is too large" in err and "500,000" in err


def test_census_cluster_json(capsys):
    code, out, _ = run(capsys, ["census", "cluster", "--group", "SO",
                                "--size", "3", "--n", "2", "--samples", "300",
                                "--seed", "2", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["details"]["cluster_count"] == 2
    assert payload["details"]["expected_clusters"] == 2


# ------------------------------------------------------------- demo-surface

def test_demo_surface_passes(capsys):
    code, out, _ = run(capsys, ["demo-surface", "--samples", "200",
                                "--seed", "3"])
    assert code == 0
    assert "demo-surface: PASS" in out


def test_demo_surface_forced_point_csv(capsys):
    code, out, _ = run(capsys, ["demo-surface", "--a", "1.0", "--phi",
                                str(np.pi), "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["x", "y", "z", "residual", "grad_norm"]
    x, y, z = (float(v) for v in rows[1][:3])
    assert x == 1.0
    assert abs(y) < 1e-15 and z == 0.0  # tangency point pinned to the axis


def test_demo_surface_output_file(capsys, tmp_path):
    path = tmp_path / "cloud.csv"
    code, out, _ = run(capsys, ["demo-surface", "--samples", "50", "--seed",
                                "4", "--format", "csv", "--output", str(path)])
    assert code == 0
    assert out == ""
    rows = path.read_text().splitlines()
    assert len(rows) == 51


def test_demo_surface_json_payload(capsys):
    code, out, _ = run(capsys, ["demo-surface", "--samples", "100", "--seed",
                                "5", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["check"] == "surface-demo"
    assert payload["passed"] is True
    assert [c["check"] for c in payload["checks"]] == [
        "tangent-cone-bound", "singular-locus"]


@pytest.mark.parametrize("argv", [
    ["demo-surface", "--samples", "2", "--a-min", "1e200", "--a-max", "1e200"],
    ["demo-surface", "--a", "1e200", "--phi", "1", "--format", "json"],
    ["demo-surface", "--a-min", "1e22", "--a-max", "1e22", "--format", "csv"],
    ["demo-surface", "--a-min", "1e39", "--a-max", "1e39", "--format", "csv"],
])
def test_demo_surface_refuses_a_range_that_overflows(capsys, tmp_path, argv):
    # a verdict or a CSV row read off an overflowed point is neither: the
    # range is refused with exit 2 before any output, and no numpy warning
    path = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "overflows" in err
        code, out, _ = run(capsys, argv + ["--output", str(path)])
    assert (code, out) == (2, "")
    assert not path.exists()


#: Exit code and sha256 of demo-surface stdout, recorded before the CSV
#: export wrote in blocks.  JSON is hashed sorted and wall-time-stripped,
#: like SAME_SEED_DIGESTS; CSV and text are hashed as printed.  The 10,000
#: point cloud spans more than two export blocks.
DEMO_SURFACE_DIGESTS = {
    "demo-surface --samples 1 --seed 3 --format csv": (
        0, "85d5ac489607ae400b9d68646f6e6cdc0d44d871145d21f87340ba53fb441686"),
    "demo-surface --samples 1000 --seed 3 --format csv": (
        0, "222f3860c39f08ebe3b9d198d18e8631c6876f82723cf2529fc9bd5d36667aaa"),
    "demo-surface --samples 10000 --seed 3 --format csv": (
        0, "e6ce63cf040af4d83015574bcead5b30cc0bd8890a9d55113b84245eb59d5d94"),
    "demo-surface --a 1.0 --phi 3.141592653589793 --format csv": (
        0, "019f5b7ada1441bacca902e7fae5b014cf476613243858e1e516acc159ec6f11"),
    "demo-surface --samples 1000 --seed 3 --format json": (
        0, "a79bf372f85d55d0a11360d331ed35cc5e61949499eb97bedd4d552c3958d381"),
    "demo-surface --samples 1000 --seed 3 --format text": (
        0, "c3ae71a8fcd57f2d5de7f8246fe7f313203284ca9fdae738b04382b8979513e1"),
}


def test_demo_surface_matches_recorded_digests(capsys):
    # the point cloud and both reports are a byte contract for a fixed seed
    for command, (want_code, want) in DEMO_SURFACE_DIGESTS.items():
        code, out, _ = run(capsys, command.split())
        assert code == want_code, command
        if "--format json" in command:
            out = json.dumps(strip_wall_time(json.loads(out)), sort_keys=True)
        assert hashlib.sha256(out.encode()).hexdigest() == want, command
