"""Command-line surface: catalogs, randomized verifiers, censuses, and the
surface demo.

Exit codes: 0 = pass, 1 = a verification failed, 2 = bad configuration,
3 = unsupported group.  JSON output is canonical (sorted keys); re-running a
command with the same seed reproduces it byte for byte apart from the
wall-time field.  The default seed is 0, overridable by the TORSION_ORBITS_SEED
environment variable or --seed.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .groups import (FAMILIES, TOL_MEMBERSHIP, GroupSpec,
                     UnsupportedGroupError)
from .subspaces import TOL_RANK, TOL_SUBSPACE
from .surface import (circle_points, export_points_csv, sample_surface,
                      singular_locus_scan, tangent_cone_bound_check)
from .sweeps import (ALL_FAMILY_SPECS, COMPACT_SWEEP_SPECS, cluster_census,
                     sl2_component_census, sweep_curve_identities,
                     sweep_density, sweep_kernel_image, sweep_tangent,
                     sweep_zero_intersection)
from .torsion import (_catalog_json_blocks, catalog_components,
                      gcd_intersection_check, write_catalog_csv)

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
    """GroupSpec from --group/--size, or None when neither was given."""
    family = getattr(args, "group", None)
    size = getattr(args, "size", None)
    if family is None and size is None:
        return None
    if family is None:
        raise ConfigError("--size requires --group")
    if family == "SL2R":
        return GroupSpec("SL2R", 2 if size is None else size)
    if size is None:
        raise ConfigError(f"--group {family} requires --size")
    return GroupSpec(family, size)


def _write_text(path, text: str) -> None:
    _write_blocks(path, (text,))


def _write_blocks(path, blocks) -> None:
    # the strings of blocks in order, to the --output path or stdout
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(blocks)
    else:
        sys.stdout.writelines(blocks)


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
        _write_text(output, report.to_json() + "\n")
    else:
        _write_text(output, _report_text(report))
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_catalog(args) -> int:
    spec = _resolve_spec(args)
    if spec is None:
        raise ConfigError("catalog requires --group and --size")
    config = RunConfig(command="catalog", family=spec.family, size=spec.size,
                       n=args.n, fmt=args.format).validate()
    catalog = catalog_components(spec, args.n)
    if args.format == "json":
        # checked before the output is opened; the JSON streams to it
        _write_blocks(args.output,
                      _catalog_json_blocks(catalog, config.as_dict()))
        return EXIT_PASS
    if args.format == "csv":
        buf = io.StringIO()
        write_catalog_csv(catalog, buf)
        text = buf.getvalue()
    else:
        lines = [f"{spec.label()} n={args.n}: {len(catalog)} components"]
        for idx, comp in enumerate(catalog):
            lines.append(f"  [{idx}] {comp.canonical.label():<24} "
                         f"dim={comp.dimension} order={comp.exact_order} "
                         f"orbit={comp.orbit_size}")
        text = "\n".join(lines) + "\n"
    _write_text(args.output, text)
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
        if args.output:
            with open(args.output, "w", encoding="utf-8", newline="") as fh:
                export_points_csv(points, fh)
        else:
            export_points_csv(points, sys.stdout)
    elif args.format == "json":
        payload = {"check": "surface-demo", "passed": passed,
                   "config": {**config.as_dict(),
                              "a_min": args.a_min, "a_max": args.a_max},
                   "checks": [bound_rep.to_dict(), scan_rep.to_dict()]}
        _write_text(args.output, json.dumps(payload, sort_keys=True,
                                            indent=2) + "\n")
    else:
        text = (_report_text(bound_rep) + _report_text(scan_rep)
                + ("demo-surface: PASS\n" if passed else "demo-surface: FAIL\n"))
        _write_text(args.output, text)
    return EXIT_PASS if passed else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torsion-orbits",
        description="Catalog and verify the conjugacy classes of elements "
                    "of finite order in the supported matrix groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_group(p):
        p.add_argument("--group", choices=FAMILIES,
                       help="group family (SL2R ignores --size)")
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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on unknown flags or bad choices, 0 on --help
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.command](args)
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
