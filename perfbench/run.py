"""torsion-orbits benchmark: runs one workload of CLI commands, one fresh
interpreter per command, checks every output and prints the metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload catalog-exact --seed 1 --seconds 36 --trace 0

A run does one discarded warm-up pass (the workload's commands at tiny
sizes), then repeats the full workload until ``--seconds`` would be
exceeded (at least once).  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs one untraced pass and then traced passes, and prints the
per-layer metrics.  The last stdout line is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Everything else the run records
(provenance, per-command timings, quartiles, spans) goes to
``.perfbench_out/``.  Exit code 2: bad arguments, or no program to run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import PER_LAYER, layer_metrics, metric_unit
from workloads import WORKLOADS, check_output, commands, load_digests

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = ROOT / ".perfbench_out"
CLI_SOURCE = ROOT / "src" / "torsion_orbits" / "cli.py"

BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PINS)  # before hostspeed loads numpy's BLAS

import hostspeed  # noqa: E402

END_TO_END = {"wall_s": "s", "setup_s": "s", "items_per_s": "1/s",
              "peak_rss_mib": "MiB", "ok_ratio": "ratio"}

#: Every command of a run must end this many seconds after the run starts,
#: so that the run ends, with its result, inside its 180 s limit.
RUN_DEADLINE_S = 165.0

IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+\d+ \| \s*(\S+)")
TRACKED_IMPORTS = ("numpy", "scipy", "torsion_orbits")


class Run:
    """One benchmark run: spawns the commands and keeps their records."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.started = time.perf_counter()
        self.digests = load_digests()
        self.attempted = 0
        self.failures = []
        self.kernel_s = None  # latest host-speed kernel time
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **BLAS_PINS)
        self.env.pop("TORSION_ORBITS_SEED", None)

    def command(self, cmd, trace: bool) -> dict:
        """Run one command in a fresh interpreter; return its record.

        The host-speed kernel is timed just before and just after the
        command; the sample after one command serves as the sample before
        the next."""
        self.attempted += 1
        paths = {k: OUT / f"command.{k}" for k in ("record", "out", "err")}
        paths["record"].unlink(missing_ok=True)
        argv = [sys.executable, *(["-X", "importtime"] if trace else []),
                str(HERE / "launch.py"), str(paths["record"]),
                "1" if trace else "0", "--", *cmd.argv]
        before = self.kernel_s or hostspeed.sample()
        result = {"command": cmd.label, "ok": False, "items": 0,
                  "main_s": None, "maxrss_kib": 0}
        budget = RUN_DEADLINE_S - (time.perf_counter() - self.started)
        with open(paths["out"], "wb") as out, open(paths["err"], "wb") as err:
            start = time.perf_counter()
            try:
                rc = subprocess.run(argv, stdout=out, stderr=err, env=self.env,
                                    cwd=ROOT, timeout=max(budget, 1.0)).returncode
            except subprocess.TimeoutExpired:
                rc = None
            result["wall_s"] = time.perf_counter() - start
        self.kernel_s = hostspeed.sample()
        result["kernel_s"] = [before, self.kernel_s]
        result["rc"] = rc
        if rc is None:
            return self._fail(result, "timed out at the run deadline")
        if paths["record"].exists():
            record = json.loads(paths["record"].read_text())
            result.update(main_s=record["main_s"],
                          maxrss_kib=record["maxrss_kib"])
            if trace:
                result["spans"] = record["spans"]
                result["imports"] = _import_seconds(paths["err"])
        if rc != 0 or result["main_s"] is None:
            tail = paths["err"].read_text(errors="replace").strip()[-300:]
            return self._fail(result, f"exit code {rc}: {tail}")
        data = paths["out"].read_bytes()
        result["bytes_out"] = len(data)
        try:
            result["items"] = check_output(cmd, data, self.digests)
        except (ValueError, LookupError, TypeError) as exc:
            return self._fail(result, f"output check: {exc}")
        result["ok"] = True
        return result

    def _fail(self, result, reason):
        result["error"] = reason
        self.failures.append(f"{result['command']}: {reason}")
        return result

    def workload_pass(self, cmds, trace: bool) -> list[dict]:
        return [self.command(cmd, trace) for cmd in cmds]

    def repeat(self, cmds, trace: bool, since: float) -> list[list[dict]]:
        """Full passes until another would end after ``since + seconds``."""
        passes, durations = [], []
        while True:
            start = time.perf_counter()
            passes.append(self.workload_pass(cmds, trace))
            durations.append(time.perf_counter() - start)
            if self.timed_out(passes[-1]):
                return passes
            projected = time.perf_counter() + statistics.median(durations)
            if projected - since > self.seconds:
                return passes

    @staticmethod
    def timed_out(records):
        return any(r["rc"] is None for r in records)


def _import_seconds(stderr_path: Path) -> dict:
    """Self import time per top-level package, from ``-X importtime``."""
    totals = dict.fromkeys(TRACKED_IMPORTS, 0.0)
    for line in stderr_path.read_text(errors="replace").splitlines():
        match = IMPORT_LINE.match(line)
        if match:
            top = match.group(2).split(".", 1)[0]
            if top in totals:
                totals[top] += int(match.group(1)) / 1e6
    return totals


def _summary(values):
    """median, first and third quartile, sample count."""
    values = list(values)
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (med, med, med))
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def _wall(records):
    return sum(r["wall_s"] for r in records)


def end_to_end(passes, attempted, failed, scaled=True):
    """End-to-end metrics of the measured passes, each as a summary.

    ``scaled``: each command's times are multiplied by the host-speed
    factor of the mean of the kernel times taken just before and just after
    it (see hostspeed.py)."""
    def f(r):
        return hostspeed.factor(statistics.fmean(r["kernel_s"])) if scaled \
            else 1.0

    records = [r for p in passes for r in p]
    walls = [sum(r["wall_s"] * f(r) for r in p) for p in passes]
    rates = [sum(r["items"] for r in p)
             / max(sum((r["main_s"] or 0.0) * f(r) for r in p), 1e-9)
             for p in passes]
    setups = [(r["wall_s"] - r["main_s"]) * f(r) for r in records
              if r["main_s"] is not None]
    rss = max(r["maxrss_kib"] for r in records) / 1024
    return {"wall_s": _summary(walls),
            "setup_s": _summary(setups or [0.0]),
            "items_per_s": _summary(rates),
            "peak_rss_mib": _summary([rss]),
            "ok_ratio": _summary([1.0 - failed / attempted])}


def per_layer(untraced, traced):
    """Per-layer metrics: median over traced passes, plus the tracing
    overhead as traced over untraced workload wall time."""
    per_pass = [layer_metrics(p) for p in traced]
    out = {name: _summary([m[name] for m in per_pass])
           for name in PER_LAYER if name != "tracing.overhead_ratio"}
    overhead = (statistics.median(map(_wall, traced))
                / statistics.median(map(_wall, untraced)))
    out["tracing.overhead_ratio"] = _summary([overhead])
    return out


def _git_commit() -> str:
    """Commit of the checkout, read from .git without running git (a
    checkout without .git reports "unknown")."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def provenance() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict form
        blas = {}
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_PINS,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "machine": platform.machine(),
            "commit": _git_commit()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not CLI_SOURCE.is_file():
        print(f"error: {CLI_SOURCE.relative_to(ROOT)} not found; run from the "
              "root of a torsion-orbits checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    run = Run(args.seconds)
    warmup = run.workload_pass(commands(args.workload, args.seed, tiny=True),
                               trace=False)
    cmds = commands(args.workload, args.seed)
    since = time.perf_counter()
    untraced = run.repeat(cmds, trace=False, since=since) if not args.trace \
        else [run.workload_pass(cmds, trace=False)]
    traced = []
    if args.trace and not run.timed_out(untraced[-1]):
        traced = run.repeat(cmds, trace=True, since=since)
    failed = len(run.failures)
    raw = {}
    if not args.trace:
        raw = end_to_end(untraced, run.attempted, failed, scaled=False)
        summaries = end_to_end(untraced, run.attempted, failed)
    else:
        summaries = per_layer(untraced, traced) if traced else {}

    env = provenance()
    result = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "attempted": run.attempted, "failed": failed,
              "failures": run.failures, "metrics": summaries,
              "reference_kernel_s": hostspeed.REFERENCE_S,
              "raw_metrics": raw,
              "warmup": _strip_spans([warmup]),
              "passes": _strip_spans(untraced + traced)}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(result, indent=1))
    if traced:  # spans are large: keep the latest traced run per workload
        _write_spans(OUT / f"spans-{args.workload}.jsonl", traced)

    print("env: " + json.dumps(env, sort_keys=True))
    for reason in run.failures:
        print(f"FAILED {reason}")
    print(f"fail_ratio: {failed / run.attempted:.4f} "
          f"({failed} of {run.attempted} commands)")
    if raw:
        kernel = statistics.median(k for p in untraced for r in p
                                   for k in r["kernel_s"])
        print(f"host speed: median kernel time {kernel:.4f} s, times scaled "
              f"to {hostspeed.REFERENCE_S} s; unscaled wall_s median="
              f"{raw['wall_s']['median']:.6g} s")
    metrics = {}
    for name, s in summaries.items():
        unit = END_TO_END.get(name) or metric_unit(name)
        print(f"{name}: median={s['median']:.6g} q1={s['q1']:.6g} "
              f"q3={s['q3']:.6g} n={s['n']} {unit}")
        metrics[name] = {"value": s["median"], "unit": unit}
    print(json.dumps({"correct": failed == 0 and bool(summaries),
                      "attempted": run.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _strip_spans(passes):
    return [[{k: v for k, v in r.items() if k != "spans"} for r in p]
            for p in passes]


def _write_spans(path: Path, traced):
    """One JSON line per span: run id (pass/command), then the span."""
    with open(path, "w", encoding="utf-8") as fh:
        for p, records in enumerate(traced):
            for c, record in enumerate(records):
                for span in record.get("spans", ()):
                    fh.write(json.dumps([f"{p}/{c}", *span]) + "\n")


if __name__ == "__main__":
    sys.exit(main())
