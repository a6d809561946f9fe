"""Command-line surface: catalogs, randomized verifiers, censuses, and the
surface demo.

Exit codes: 0 = pass, 1 = a verification failed or stdout was closed
before the output was written, 2 = bad configuration, 3 = unsupported
group.  JSON output is canonical (sorted keys); re-running a command with
the same seed reproduces it byte for byte apart from the wall-time field.
The default seed is 0, overridable by the TORSION_ORBITS_SEED environment
variable or --seed.

``main`` is the one place in the package that touches the garbage
collector: it freezes the heap once per process (see there).  Importing
any module of the package leaves the collector as it was.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .groups import (FAMILIES, FAMILY_RECORDS, TOL_MEMBERSHIP, GroupSpec,
                     UnsupportedGroupError)
from .subspaces import TOL_RANK, TOL_SUBSPACE
from .surface import (_points_csv, circle_points, sample_surface,
                      singular_locus_scan, tangent_cone_bound_check)
from .sweeps import (ALL_FAMILY_SPECS, COMPACT_SWEEP_SPECS, cluster_census,
                     sl2_component_census, sweep_curve_identities,
                     sweep_density, sweep_kernel_image, sweep_tangent,
                     sweep_zero_intersection)
from .torsion import (_catalog_blocks, _csv_blocks, _json_blocks,
                      _text_blocks, gcd_intersection_check)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_UNSUPPORTED = 3

ENV_SEED = "TORSION_ORBITS_SEED"

VERIFY_CHECKS = ("lemma31", "lemma32", "lemma33", "zero-intersection",
                 "gcd", "density")


class ConfigError(ValueError):
    """Invalid flag combination or value; maps to exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    """Echo of the flags a command ran with; embedded in its report."""

    command: str
    check: str | None = None
    family: str | None = None
    size: int | None = None
    n: int | None = None
    m: int | None = None
    trials: int | None = None
    samples: int | None = None
    seed: int = 0
    jobs: int = 1
    tol_membership: float = TOL_MEMBERSHIP
    tol_rank: float = TOL_RANK
    tol_subspace: float = TOL_SUBSPACE
    fmt: str = "text"

    def validate(self) -> "RunConfig":
        for name in ("tol_membership", "tol_rank", "tol_subspace"):
            if not 0 < getattr(self, name) < np.inf:
                raise ConfigError(
                    f"--{name.replace('_', '-')} must be finite and positive")
        # a relative rank cut of 1 or more gives every matrix rank 0, and
        # every principal angle is at most pi/2: such a check decides on
        # the tolerance, not on the identity
        if self.tol_rank >= 1:
            raise ConfigError("--tol-rank must be < 1")
        if self.tol_subspace >= np.pi / 2:
            raise ConfigError("--tol-subspace must be < pi/2")
        if self.seed < 0:
            raise ConfigError("--seed must be >= 0")
        if self.jobs < 1:
            raise ConfigError("--jobs must be >= 1")
        if self.trials is not None and self.trials < 1:
            raise ConfigError("--trials must be >= 1")
        if self.samples is not None and self.samples < 1:
            raise ConfigError("--samples must be >= 1")
        if self.n is not None and self.n < 1:
            raise ConfigError("--n must be >= 1")
        if self.m is not None and self.m < 1:
            raise ConfigError("--m must be >= 1")
        if self.fmt == "csv" and self.command in ("verify", "census"):
            raise ConfigError(
                "csv output applies to catalogs and point clouds only")
        return self

    def as_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get(ENV_SEED)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"{ENV_SEED} must be an integer, got {env!r}")
    return 0


def _resolve_spec(args):
    """GroupSpec from --group/--size, or None when neither was given; a
    family realized at one size only takes it by default."""
    family = getattr(args, "group", None)
    size = getattr(args, "size", None)
    if family is None and size is None:
        return None
    if family is None:
        raise ConfigError("--size requires --group")
    sizes = FAMILY_RECORDS[family].sizes
    if size is None and len(sizes) > 1:
        raise ConfigError(f"--group {family} requires --size")
    return GroupSpec(family, sizes[0] if size is None else size)


def _write_blocks(path, blocks) -> None:
    # the strings of blocks in order, to the --output path or stdout; the
    # first is made before the path is opened, so a refusal opens no file,
    # and a path that cannot be opened is a configuration error; the
    # flush makes a closed stdout raise here, inside main, not at exit
    blocks = iter(blocks)
    first = next(blocks, "")
    try:
        out = (open(path, "w", encoding="utf-8") if path
               else contextlib.nullcontext(sys.stdout))
    except OSError as exc:
        raise ConfigError(f"cannot write --output: {exc}") from None
    with out as fh:
        fh.write(first)
        fh.writelines(blocks)
        fh.flush()


def _report_text(report) -> str:
    lines = [report.summary_line()]
    failing = [t for t in report.trials
               if not (t.passed and t.status == "ok")]
    for t in failing[:5]:
        lines.append(f"  trial {t.index} seed={t.seed} status={t.status} "
                     f"residuals={t.residuals}")
    if len(failing) > 5:
        lines.append(f"  ... {len(failing) - 5} more failing trials")
    return "\n".join(lines) + "\n"


def _emit_report(report, config: RunConfig, output) -> int:
    report.config["cli"] = config.as_dict()
    if config.fmt == "json":
        _write_blocks(output, (report.to_json() + "\n",))
    else:
        _write_blocks(output, (_report_text(report),))
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_catalog(args) -> int:
    spec = _resolve_spec(args)
    if spec is None:
        raise ConfigError("catalog requires --group and --size")
    config = RunConfig(command="catalog", family=spec.family, size=spec.size,
                       n=args.n, fmt=args.format).validate()
    blocks = _catalog_blocks(spec, args.n)
    if args.format == "json":
        text = _json_blocks(blocks, config.as_dict())
    elif args.format == "csv":
        text = _csv_blocks(blocks)
    else:
        text = _text_blocks(spec, args.n, blocks)
    _write_blocks(args.output, text)
    return EXIT_PASS


def cmd_verify(args) -> int:
    seed = _resolve_seed(args)
    spec = _resolve_spec(args)
    config = RunConfig(
        command="verify", check=args.check,
        family=spec.family if spec else None,
        size=spec.size if spec else None,
        n=args.n, m=args.m,
        trials=None if args.check == "gcd" else args.trials,
        seed=seed, jobs=args.jobs, tol_membership=args.tol_membership,
        tol_rank=args.tol_rank, tol_subspace=args.tol_subspace,
        fmt=args.format).validate()

    if args.check == "gcd":
        if spec is None:
            raise ConfigError("verify gcd requires --group and --size")
        if args.n is None or args.m is None:
            raise ConfigError("verify gcd requires --n and --m")
        report = gcd_intersection_check(spec, args.n, args.m)
        return _emit_report(report, config, args.output)

    specs = [spec] if spec is not None else None
    n_max = args.n if args.n is not None else 6
    if args.check == "lemma31":
        report = sweep_tangent(specs or ALL_FAMILY_SPECS, args.trials, seed)
    elif args.check == "lemma32":
        report = sweep_curve_identities(specs or COMPACT_SWEEP_SPECS, n_max,
                                        args.trials, seed,
                                        tol=args.tol_membership)
    elif args.check == "lemma33":
        report = sweep_kernel_image(specs or COMPACT_SWEEP_SPECS, n_max,
                                    args.trials, seed, tol_rank=args.tol_rank,
                                    tol_subspace=args.tol_subspace)
    elif args.check == "zero-intersection":
        report = sweep_zero_intersection(specs or COMPACT_SWEEP_SPECS, n_max,
                                         args.trials, seed,
                                         tol_rank=args.tol_rank,
                                         angle_tol=args.tol_subspace)
    elif args.check == "density":
        grid = args.n if args.n is not None else 100
        report = sweep_density(specs or COMPACT_SWEEP_SPECS, grid,
                               args.trials, seed)
    else:
        raise ConfigError(f"unknown check {args.check!r}")
    return _emit_report(report, config, args.output)


def cmd_census(args) -> int:
    seed = _resolve_seed(args)
    spec = _resolve_spec(args) if args.kind == "cluster" else None
    config = RunConfig(
        command="census", check=args.kind,
        family=spec.family if spec else None,
        size=spec.size if spec else None,
        n=args.n, samples=args.samples, seed=seed,
        fmt=args.format).validate()
    if args.kind == "sl2":
        report = sl2_component_census(args.n, args.samples, seed)
    else:
        if spec is None:
            raise ConfigError("census cluster requires --group and --size")
        report = cluster_census(spec, args.n, args.samples, seed)
    return _emit_report(report, config, args.output)


#: Points of each kind in the gradient census's reference inputs.
_SCAN_POINTS = 100


def _scan_inputs(seed: int):
    """Reference inputs for the gradient census: an x-axis grid plus circle
    points kept away from the tangency band (phi near pi makes z, and with it
    the whole gradient, collapse)."""
    rng = np.random.default_rng(seed + 1)
    axis_x = np.linspace(-2.0, 2.0, _SCAN_POINTS)
    draws = []
    while len(draws) < _SCAN_POINTS:
        a = float(rng.uniform(0.5, 1.5))
        phi = float(rng.uniform(0.0, 2.0 * np.pi))
        if abs(phi - np.pi) < 0.25:
            continue
        draws.append((a, phi, 1 if rng.uniform() < 0.5 else -1))
    return axis_x, circle_points(*np.transpose(draws))


def cmd_demo_surface(args) -> int:
    seed = _resolve_seed(args)
    config = RunConfig(command="demo-surface", samples=args.samples,
                       seed=seed, fmt=args.format).validate()
    if not (args.a_min > 0 and args.a_max > 0):
        raise ConfigError("--a-min and --a-max must be positive")
    if args.a_max < args.a_min:
        raise ConfigError("--a-max must be >= --a-min")
    if (args.a is None) != (args.phi is None):
        raise ConfigError("--a and --phi must be given together")
    if args.a is not None:
        if not (0 < args.a < np.inf and np.isfinite(args.phi)):
            raise ConfigError("--a must be finite and positive, --phi finite")
        points = circle_points(args.a, args.phi, 1)
    else:
        points = sample_surface((args.a_min, args.a_max), args.samples, seed)

    bound_rep = tangent_cone_bound_check(points)
    axis_x, band = _scan_inputs(seed)
    scan_rep = singular_locus_scan(axis_x, band)
    passed = bound_rep.passed and scan_rep.passed

    if args.format == "csv":
        _write_blocks(args.output, _points_csv(points))
    elif args.format == "json":
        payload = {"check": "surface-demo", "passed": passed,
                   "config": {**config.as_dict(),
                              "a_min": args.a_min, "a_max": args.a_max},
                   "checks": [bound_rep.to_dict(), scan_rep.to_dict()]}
        _write_blocks(args.output, (json.dumps(payload, sort_keys=True,
                                               indent=2) + "\n",))
    else:
        text = (_report_text(bound_rep) + _report_text(scan_rep)
                + ("demo-surface: PASS\n" if passed else "demo-surface: FAIL\n"))
        _write_blocks(args.output, (text,))
    return EXIT_PASS if passed else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torsion-orbits",
        description="Catalog and verify the conjugacy classes of elements "
                    "of finite order in the supported matrix groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_group(p):
        p.add_argument("--group", choices=FAMILIES,
                       help="group family (SL2R takes no --size, or --size 2)")
        p.add_argument("--size", type=int, help="matrix size m")

    def add_output(p, default_fmt="text"):
        p.add_argument("--format", choices=("json", "csv", "text"),
                       default=default_fmt)
        p.add_argument("--output", help="write to this path instead of stdout")

    p_cat = sub.add_parser(
        "catalog", help="enumerate the classes of elements with g^n = e")
    add_group(p_cat)
    p_cat.add_argument("--n", type=int, required=True, help="order bound n")
    add_output(p_cat)

    p_ver = sub.add_parser(
        "verify", help="run a randomized verifier and report pass/fail")
    p_ver.add_argument(
        "check", choices=VERIFY_CHECKS,
        help="lemma31: first-order tangent formula of the conjugation curve; "
             "lemma32: initial-velocity kernel identity and telescoping "
             "product; lemma33: kernel/image coincidence for the averaged "
             "adjoint; zero-intersection: fixed-space transversality; "
             "gcd: invariant-set intersection law; density: nearest "
             "torsion approximation bound")
    add_group(p_ver)
    p_ver.add_argument("--n", type=int,
                       help="order bound (grid order for density; first "
                            "order for gcd); default 6 for sweeps")
    p_ver.add_argument("--m", type=int, help="second order for gcd")
    p_ver.add_argument("--trials", type=int, default=100,
                       help="random trials (ignored by gcd)")
    p_ver.add_argument("--seed", type=int,
                       help=f"base seed (default: ${ENV_SEED} or 0)")
    p_ver.add_argument("--jobs", type=int, default=1,
                       help="accepted for compatibility; trials run in one "
                            "thread (measured faster), results never depend "
                            "on it")
    p_ver.add_argument("--tol-membership", type=float,
                       default=TOL_MEMBERSHIP)
    p_ver.add_argument("--tol-rank", type=float, default=TOL_RANK)
    p_ver.add_argument("--tol-subspace", type=float, default=TOL_SUBSPACE)
    add_output(p_ver)

    p_cen = sub.add_parser(
        "census", help="Monte-Carlo class census against the exact count")
    p_cen.add_argument("kind", choices=("sl2", "cluster"),
                       help="sl2: trace/orientation census in SL(2,R); "
                            "cluster: invariant clustering in any group")
    add_group(p_cen)
    p_cen.add_argument("--n", type=int, required=True, help="order bound n")
    p_cen.add_argument("--samples", type=int, default=1000,
                       help="random samples to cluster")
    p_cen.add_argument("--seed", type=int,
                       help=f"base seed (default: ${ENV_SEED} or 0)")
    add_output(p_cen)

    p_demo = sub.add_parser(
        "demo-surface",
        help="sample the pinched surface (y^2+z^2)^2 = 4 x^4 z^2 and check "
             "its tangent-cone bound and singular locus")
    p_demo.add_argument("--samples", type=int, default=10000)
    p_demo.add_argument("--seed", type=int,
                        help=f"base seed (default: ${ENV_SEED} or 0)")
    p_demo.add_argument("--a-min", type=float, default=0.1)
    p_demo.add_argument("--a-max", type=float, default=2.0)
    p_demo.add_argument("--a", type=float,
                        help="force a single sample at slice x = a")
    p_demo.add_argument("--phi", type=float,
                        help="circle parameter for the forced sample")
    add_output(p_demo)

    return parser


_DISPATCH = {
    "catalog": cmd_catalog,
    "verify": cmd_verify,
    "census": cmd_census,
    "demo-surface": cmd_demo_surface,
}


#: Whether ``main`` has frozen the heap in this process.  A flag, not
#: ``gc.get_freeze_count()``, which walks the whole frozen list.
_heap_frozen = False


def main(argv=None) -> int:
    """Run one command; return its exit code.

    The first call in a process moves every object the collector tracks
    (about 40,000 after the numpy, ``scipy.linalg`` and package imports)
    into its permanent generation with ``gc.freeze()``, so that no later
    full collection, in a sweep or at interpreter exit, walks them again.
    No ``gc.collect()`` runs first: that would be the full pass the freeze
    avoids.  Later calls in the same process, as from a program that
    calls ``main`` in process, freeze nothing more, so each call's
    garbage stays collectable."""
    global _heap_frozen
    if not _heap_frozen:
        gc.freeze()
        _heap_frozen = True
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on unknown flags or bad choices, 0 on --help
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.command](args)
    except BrokenPipeError:
        # the reader of stdout went away (``| head``): point the
        # descriptor at devnull, so that the flush at interpreter exit
        # meets no broken pipe and prints no "Exception ignored" line (the
        # SIGPIPE note of the Python docs); the output is cut short, so
        # the exit code is 1
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_FAIL
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except UnsupportedGroupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
