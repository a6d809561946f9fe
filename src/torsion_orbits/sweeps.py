"""Randomized multi-trial drivers over the single-shot checkers.

Each sweep derives trial i's generator from seed + i, so a sweep is
reproducible for a fixed seed, independent of worker count, and any failing
trial can be replayed alone from the seed recorded in its trial record.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .groups import GroupSpec, group_inverse, random_algebra, random_element
from .reports import TrialRecord, VerificationReport
from .subspaces import verify_kernel_image_identity, verify_zero_intersection
from .curves import (DEFAULT_STEPS, curve_kernel_check, product_identity_check,
                     tangent_space_check)
from .torsion import _nearest_torsion, random_torsion_point

COMPACT_SWEEP_SPECS = tuple(
    [GroupSpec("U", m) for m in (1, 2, 3, 4)]
    + [GroupSpec("SU", m) for m in (2, 3, 4)]
    + [GroupSpec("SO", m) for m in (2, 3, 4)])

ALL_FAMILY_SPECS = COMPACT_SWEEP_SPECS + (GroupSpec("SL2R", 2),)


def random_torsion_element(spec: GroupSpec, n: int, rng):
    """Random conjugate of a random torsion point: (matrix, point)."""
    point = random_torsion_point(spec, n, rng)
    h = random_element(spec, rng)
    g = h @ point.matrix() @ group_inverse(spec, h)
    return g, point


def _run_indexed(trials: int, jobs: int, worker) -> list[TrialRecord]:
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if jobs <= 1:
        return [worker(i) for i in range(trials)]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, range(trials)))


def _merge(check, records, config, t0, details=None, worst_residual=None):
    return VerificationReport.from_trials(
        check, records, config=config, details=details,
        wall_time_s=time.perf_counter() - t0, worst_residual=worst_residual)


def _lift(single_report, index, seed, extra_inputs):
    # Adopt the single-shot checker's trial as one record of the sweep.
    trial = single_report.trials[0]
    inputs = dict(trial.inputs)
    inputs.update(extra_inputs)
    return TrialRecord(index=index, seed=seed, inputs=inputs,
                       residuals=trial.residuals, passed=trial.passed,
                       status=trial.status, note=trial.note)


def sweep_kernel_image(specs, n_max, trials, seed, jobs=1,
                       tol_rank=1e-9, tol_subspace=1e-7) -> VerificationReport:
    """Kernel/image identity on random torsion elements of random groups."""
    t0 = time.perf_counter()
    specs = list(specs)

    def worker(i):
        rng = np.random.default_rng(seed + i)
        spec = specs[int(rng.integers(len(specs)))]
        n = 1 + int(rng.integers(n_max))
        g, point = random_torsion_element(spec, n, rng)
        rep = verify_kernel_image_identity(
            spec, g, n, tol_rank=tol_rank, tol_subspace=tol_subspace)
        return _lift(rep, i, seed + i,
                     {"point": [str(p) for p in point.phases]})

    records = _run_indexed(trials, jobs, worker)
    return _merge("kernel-image", records,
                  {"trials": trials, "seed": seed, "n_max": n_max,
                   "tol_rank": tol_rank, "tol_subspace": tol_subspace,
                   "groups": [s.label() for s in specs]}, t0)


def sweep_zero_intersection(specs, n_max, trials, seed, jobs=1,
                            tol_rank=1e-9, angle_tol=1e-7) -> VerificationReport:
    """Fixed-space/kernel transversality on the same input distribution."""
    t0 = time.perf_counter()
    specs = list(specs)

    def worker(i):
        rng = np.random.default_rng(seed + i)
        spec = specs[int(rng.integers(len(specs)))]
        n = 1 + int(rng.integers(n_max))
        g, point = random_torsion_element(spec, n, rng)
        rep = verify_zero_intersection(
            spec, g, n, tol_rank=tol_rank, angle_tol=angle_tol)
        return _lift(rep, i, seed + i,
                     {"point": [str(p) for p in point.phases]})

    records = _run_indexed(trials, jobs, worker)
    return _merge("zero-intersection", records,
                  {"trials": trials, "seed": seed, "n_max": n_max,
                   "tol_rank": tol_rank, "angle_tol": angle_tol,
                   "groups": [s.label() for s in specs]}, t0)


def sweep_tangent(specs, trials, seed, steps=DEFAULT_STEPS,
                  jobs=1, ratio_slack=3.0) -> VerificationReport:
    """First-order tangent check on random (g, X); g need not be torsion."""
    t0 = time.perf_counter()
    specs = list(specs)

    def worker(i):
        rng = np.random.default_rng(seed + i)
        spec = specs[int(rng.integers(len(specs)))]
        g = random_element(spec, rng)
        X = random_algebra(spec, rng)
        rep = tangent_space_check(spec, g, X, steps=steps,
                                  ratio_slack=ratio_slack)
        return _lift(rep, i, seed + i, {})

    records = _run_indexed(trials, jobs, worker)
    return _merge("tangent-space", records,
                  {"trials": trials, "seed": seed, "steps": list(steps),
                   "ratio_slack": ratio_slack,
                   "groups": [s.label() for s in specs]}, t0)


def sweep_curve_identities(specs, n_max, trials, seed, jobs=1,
                           tol=1e-9) -> VerificationReport:
    """Kernel identity of the initial velocity plus the telescoping product
    at a random parameter, on random torsion elements."""
    t0 = time.perf_counter()
    specs = list(specs)

    def worker(i):
        rng = np.random.default_rng(seed + i)
        spec = specs[int(rng.integers(len(specs)))]
        n = 1 + int(rng.integers(n_max))
        g, point = random_torsion_element(spec, n, rng)
        X = random_algebra(spec, rng)
        t = float(rng.uniform(0.0, 1.0))
        rep_k = curve_kernel_check(spec, g, n, X, tol=tol)
        rep_p = product_identity_check(spec, g, n, X, t)
        residuals = dict(rep_k.trials[0].residuals)
        residuals.update(rep_p.trials[0].residuals)
        ok = (rep_k.passed and rep_p.passed
              and rep_k.trials[0].status == "ok"
              and rep_p.trials[0].status == "ok")
        return TrialRecord(
            index=i, seed=seed + i,
            inputs={"group": spec.label(), "n": n, "t": t,
                    "point": [str(p) for p in point.phases]},
            residuals=residuals, passed=ok)

    records = _run_indexed(trials, jobs, worker)
    return _merge("curve-identities", records,
                  {"trials": trials, "seed": seed, "n_max": n_max, "tol": tol,
                   "groups": [s.label() for s in specs]}, t0)


def sweep_density(specs, N, trials, seed, jobs=1) -> VerificationReport:
    """Nearest torsion approximation of Haar-random elements: the distance
    must respect the per-family rounding bound."""
    t0 = time.perf_counter()
    specs = list(specs)

    def worker(i):
        rng = np.random.default_rng(seed + i)
        spec = specs[int(rng.integers(len(specs)))]
        g = random_element(spec, rng)
        _, distance, bound = _nearest_torsion(spec, g, N)
        return TrialRecord(
            index=i, seed=seed + i,
            inputs={"group": spec.label(), "N": N},
            residuals={"distance": distance, "bound": bound},
            passed=distance <= bound)

    records = _run_indexed(trials, jobs, worker)
    # the bound is part of each record; the residual of interest is distance
    worst = max(t.residuals["distance"] for t in records)
    return _merge("density", records,
                  {"trials": trials, "seed": seed, "N": N,
                   "groups": [s.label() for s in specs]}, t0,
                  worst_residual=worst)
