"""The benchmark's workloads: which CLI commands each one runs, how each
command's seed derives from the workload seed, how many output items a
command produced, and whether its output is correct.

Every function here works on plain command-line arguments and output text,
so it runs without importing torsion_orbits.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
from dataclasses import dataclass
from pathlib import Path

#: sha256 of each catalog command's stdout, recorded at commit d0a824f.
#: Catalogs are seedless and their text, csv and json forms are a fixed
#: contract, so any change to these bytes is a failure.
DIGESTS_PATH = Path(__file__).with_name("reference_digests.json")

#: Residual bound for demo-surface points: the tangent-cone check's slack.
SURFACE_TOL = 1e-9

CATALOG_HEADER = re.compile(r"^.* n=\d+: (\d+) components$")


@dataclass(frozen=True)
class Command:
    """One CLI invocation: its arguments and the size of work it asked for.

    ``kind`` selects the output check and the item count: ``catalog``,
    ``gcd``, ``trials`` (verify sweeps and censuses, one item per trial or
    sample) or ``surface``.  ``requested`` is the trial, sample or point
    count the arguments ask for (None for catalogs and gcd).
    """

    argv: tuple
    kind: str
    requested: int | None = None

    @property
    def fmt(self) -> str:
        return self.argv[self.argv.index("--format") + 1]

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def derive_seed(workload_seed: int, index: int) -> int:
    """Independent 31-bit ``--seed`` for command ``index`` of a workload."""
    blob = hashlib.sha256(f"{workload_seed}/{index}".encode()).digest()
    return int.from_bytes(blob[:4], "big") >> 1


def _catalog(group, size, n, fmt):
    return Command(("catalog", "--group", group, "--size", str(size),
                    "--n", str(n), "--format", fmt), "catalog")


def _gcd(group, size, n, m):
    return Command(("verify", "gcd", "--group", group, "--size", str(size),
                    "--n", str(n), "--m", str(m), "--format", "json"), "gcd")


def _sweep(check, trials, seed, *extra):
    return Command(("verify", check, *extra, "--trials", str(trials),
                    "--seed", str(seed), "--format", "json"), "trials", trials)


def _census(kind, samples, seed, *extra):
    return Command(("census", kind, *extra, "--samples", str(samples),
                    "--seed", str(seed), "--format", "json"), "trials", samples)


def _surface(samples, seed):
    return Command(("demo-surface", "--samples", str(samples), "--seed",
                    str(seed), "--format", "csv"), "surface", samples)


def _catalog_exact(seed, tiny):
    # Seedless: the exact enumerate -> canonicalize -> dimension path.
    if tiny:
        return [_catalog("U", 2, 3, "json"), _catalog("SU", 3, 2, "json"),
                _catalog("U", 2, 2, "text"), _catalog("SO", 3, 4, "csv"),
                _catalog("SO", 4, 3, "json"), _gcd("U", 2, 4, 6)]
    return [_catalog("U", 4, 16, "json"), _catalog("SU", 5, 10, "json"),
            _catalog("U", 5, 6, "text"), _catalog("SO", 5, 40, "csv"),
            _catalog("SO", 4, 40, "json"), _gcd("U", 3, 24, 36)]


def _verify_sweep(seed, tiny):
    trials = 5 if tiny else 1500
    checks = [("lemma31",), ("lemma32",), ("lemma33", "--jobs", "2"),
              ("zero-intersection",), ("density",)]
    return [_sweep(check, trials, derive_seed(seed, i), *extra)
            for i, (check, *extra) in enumerate(checks)]


def _sample_census(seed, tiny):
    # Sample counts keep the expected number of unseen classes,
    # sum_c (1 - p_c)^k with p_c = orbit_size / torus points, below 0.01
    # (see tests/test_perfbench.py), so a census misses a class only by
    # a rare draw, never by design.
    s = [derive_seed(seed, i) for i in range(6)]
    if tiny:
        return [_census("cluster", 40, s[0], "--group", "SU", "--size", "2",
                        "--n", "2"),
                _census("cluster", 60, s[1], "--group", "SO", "--size", "3",
                        "--n", "2"),
                _census("cluster", 60, s[2], "--group", "U", "--size", "2",
                        "--n", "2"),
                _census("sl2", 60, s[3], "--n", "3"),
                _sweep("lemma33", 3, s[4], "--group", "U", "--size", "2",
                       "--n", "3"),
                _surface(50, s[5])]
    return [_census("cluster", 2000, s[0], "--group", "SU", "--size", "4",
                    "--n", "6"),
            _census("cluster", 2000, s[1], "--group", "SO", "--size", "5",
                    "--n", "8"),
            _census("cluster", 2000, s[2], "--group", "U", "--size", "3",
                    "--n", "6"),
            _census("sl2", 4000, s[3], "--n", "24"),
            _sweep("lemma33", 400, s[4], "--group", "U", "--size", "4",
                   "--n", "12"),
            _surface(100_000, s[5])]


#: Why each workload exists is recorded in README.md; BENCHMARK.json names them.
WORKLOADS = {
    "catalog-exact": _catalog_exact,
    "verify-sweep": _verify_sweep,
    "sample-census": _sample_census,
}


def commands(workload: str, seed: int, tiny: bool = False) -> list[Command]:
    """The workload's commands in run order; ``tiny`` gives the same
    commands at sizes that finish in well under a second each."""
    if seed < 0:
        raise ValueError("seed must be >= 0")
    return WORKLOADS[workload](seed, tiny)


def load_digests() -> dict:
    return json.loads(DIGESTS_PATH.read_text())


class OutputError(ValueError):
    """A command's output broke its contract."""


def _check_report(cmd: Command, report: dict) -> None:
    if report.get("passed") is not True:
        raise OutputError("report did not pass")
    trials = report.get("trials", [])
    bad = [t["index"] for t in trials
           if t.get("status") != "ok" or t.get("passed") is not True]
    if bad:
        raise OutputError(f"{len(bad)} trials not ok, first {bad[0]}")
    details = report.get("details", {})
    if cmd.kind == "gcd":
        mismatch = trials[0]["residuals"]["mismatch_count"] if trials else None
        if mismatch != 0:
            raise OutputError(f"gcd mismatch_count is {mismatch}")
        return
    if len(trials) != cmd.requested:
        raise OutputError(f"{len(trials)} trials, asked for {cmd.requested}")
    if "expected_clusters" in details:
        if details["cluster_count"] != details["expected_clusters"]:
            raise OutputError(f"{details['cluster_count']} clusters, "
                              f"expected {details['expected_clusters']}")
    if "expected_classes" in details:
        if details["class_count"] != details["expected_classes"]:
            raise OutputError(f"{details['class_count']} classes, "
                              f"expected {details['expected_classes']}")


def _catalog_items(fmt: str, text: str) -> int:
    if fmt == "json":
        return len(json.loads(text)["components"])
    if fmt == "csv":
        return sum(1 for _ in csv.reader(io.StringIO(text))) - 1
    match = CATALOG_HEADER.match(text.partition("\n")[0])
    if not match:
        raise OutputError("catalog text has no component-count header")
    return int(match.group(1))


def _surface_items(cmd: Command, text: str) -> int:
    rows = csv.DictReader(io.StringIO(text))
    count = 0
    for row in rows:
        count += 1
        if not float(row["residual"]) <= SURFACE_TOL:
            raise OutputError(f"row {count} residual {row['residual']} "
                              f"exceeds {SURFACE_TOL:g}")
    if count != cmd.requested:
        raise OutputError(f"{count} points, asked for {cmd.requested}")
    return count


def check_output(cmd: Command, data: bytes, digests: dict) -> int:
    """Check one command's stdout; return its item count.

    Items: classes listed by ``catalog``; count_n + count_m for
    ``verify gcd``; trials for ``verify``; samples for ``census``; points
    for ``demo-surface``.  Raises OutputError when the output is wrong.
    """
    text = data.decode("utf-8")
    if cmd.kind == "catalog":
        want = digests.get(cmd.label)
        if want is None:
            raise OutputError("no reference digest for this catalog")
        if hashlib.sha256(data).hexdigest() != want:
            raise OutputError("catalog differs from its reference digest")
        return _catalog_items(cmd.fmt, text)
    if cmd.kind == "surface":
        return _surface_items(cmd, text)
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        raise OutputError(f"stdout is not JSON: {exc}") from None
    _check_report(cmd, report)
    if cmd.kind == "gcd":
        return report["details"]["count_n"] + report["details"]["count_m"]
    return len(report["trials"])
