"""End-to-end CLI runs: exit codes, output formats, determinism."""

import csv
import hashlib
import io
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from torsion_orbits import cli
from torsion_orbits.reports import strip_wall_time

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


def test_catalog_bytes_match_reference_digests(capsys):
    # catalogs are a byte contract: every recorded command still prints
    # exactly the bytes it printed when the digests were recorded
    digests = json.loads(REFERENCE_DIGESTS.read_text())
    assert len(digests) == 10
    for command, want in digests.items():
        code, out, _ = run(capsys, command.split())
        assert code == 0, command
        assert hashlib.sha256(out.encode()).hexdigest() == want, command


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
    catalog_components = cli.catalog_components

    def broken(spec, n):
        cat = catalog_components(spec, n)
        cat[0].representative = np.full_like(cat[0].representative, np.nan)
        return cat

    monkeypatch.setattr(cli, "catalog_components", broken)
    path = tmp_path / "bad.json"
    code, out, err = run(capsys, ["catalog", "--group", "U", "--size", "2",
                                  "--n", "3", "--format", "json",
                                  "--output", str(path)])
    assert code == 2 and out == ""
    assert "not finite" in err
    assert not path.exists()


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
