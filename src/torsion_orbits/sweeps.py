"""Randomized multi-trial sweeps over the single-shot checkers.

Every sweep is a ``trial(rng)`` closure run by :func:`reports.run_trials`:
trial i draws from a generator seeded by seed + i, so a sweep is
reproducible for a fixed seed and any failing trial can be replayed alone
from the seed recorded in its trial record.  Trials run one after another
in one thread; per-trial work is GIL-bound numpy on matrices of at most
25x25, and a thread pool measured slower.
"""

from __future__ import annotations

from .groups import GroupSpec, group_inverse, random_algebra, random_element
from .reports import VerificationReport, run_trials
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


def _torsion_draw(specs, n_max, rng):
    """(spec, n, g, point label) drawn in a fixed order: the spec, then n in
    1..n_max, then the torsion point, then its conjugator."""
    spec = specs[int(rng.integers(len(specs)))]
    n = 1 + int(rng.integers(n_max))
    g, point = random_torsion_element(spec, n, rng)
    return spec, n, g, [str(p) for p in point.phases]


def _fields(single_report, **extra_inputs):
    # Adopt the single-shot checker's trial as one record of the sweep.
    trial = single_report.trials[0]
    return {"inputs": {**trial.inputs, **extra_inputs},
            "residuals": trial.residuals, "passed": trial.passed,
            "status": trial.status, "note": trial.note}


def sweep_kernel_image(specs, n_max, trials, seed, *, tol_rank=1e-9,
                       tol_subspace=1e-7) -> VerificationReport:
    """Kernel/image identity on random torsion elements of random groups."""
    specs = list(specs)

    def trial(rng):
        spec, n, g, point = _torsion_draw(specs, n_max, rng)
        return _fields(verify_kernel_image_identity(
            spec, g, n, tol_rank=tol_rank, tol_subspace=tol_subspace),
            point=point)

    return run_trials("kernel-image", trials, seed, trial,
                      {"trials": trials, "seed": seed, "n_max": n_max,
                       "tol_rank": tol_rank, "tol_subspace": tol_subspace,
                       "groups": [s.label() for s in specs]})


def sweep_zero_intersection(specs, n_max, trials, seed, *, tol_rank=1e-9,
                            angle_tol=1e-7) -> VerificationReport:
    """Fixed-space/kernel transversality on the same input distribution."""
    specs = list(specs)

    def trial(rng):
        spec, n, g, point = _torsion_draw(specs, n_max, rng)
        return _fields(verify_zero_intersection(
            spec, g, n, tol_rank=tol_rank, angle_tol=angle_tol), point=point)

    return run_trials("zero-intersection", trials, seed, trial,
                      {"trials": trials, "seed": seed, "n_max": n_max,
                       "tol_rank": tol_rank, "angle_tol": angle_tol,
                       "groups": [s.label() for s in specs]})


def sweep_tangent(specs, trials, seed, steps=DEFAULT_STEPS, *,
                  ratio_slack=3.0) -> VerificationReport:
    """First-order tangent check on random (g, X); g need not be torsion."""
    specs = list(specs)

    def trial(rng):
        spec = specs[int(rng.integers(len(specs)))]
        g = random_element(spec, rng)
        X = random_algebra(spec, rng)
        return _fields(tangent_space_check(spec, g, X, steps=steps,
                                           ratio_slack=ratio_slack))

    return run_trials("tangent-space", trials, seed, trial,
                      {"trials": trials, "seed": seed, "steps": list(steps),
                       "ratio_slack": ratio_slack,
                       "groups": [s.label() for s in specs]})


def sweep_curve_identities(specs, n_max, trials, seed, *,
                           tol=1e-9) -> VerificationReport:
    """Kernel identity of the initial velocity plus the telescoping product
    at a random parameter, on random torsion elements."""
    specs = list(specs)

    def trial(rng):
        spec, n, g, point = _torsion_draw(specs, n_max, rng)
        X = random_algebra(spec, rng)
        t = float(rng.uniform(0.0, 1.0))
        kernel = curve_kernel_check(spec, g, n, X, tol=tol).trials[0]
        product = product_identity_check(spec, g, n, X, t).trials[0]
        return {"inputs": {"group": spec.label(), "n": n, "t": t,
                           "point": point},
                "residuals": {**kernel.residuals, **product.residuals},
                "passed": all(r.passed and r.status == "ok"
                              for r in (kernel, product))}

    return run_trials("curve-identities", trials, seed, trial,
                      {"trials": trials, "seed": seed, "n_max": n_max,
                       "tol": tol, "groups": [s.label() for s in specs]})


def sweep_density(specs, N, trials, seed) -> VerificationReport:
    """Nearest torsion approximation of Haar-random elements: the distance
    must respect the per-family rounding bound."""
    specs = list(specs)

    def trial(rng):
        spec = specs[int(rng.integers(len(specs)))]
        g = random_element(spec, rng)
        _, distance, bound = _nearest_torsion(spec, g, N)
        return {"inputs": {"group": spec.label(), "N": N},
                "residuals": {"distance": distance, "bound": bound},
                "passed": distance <= bound}

    # the bound is part of each record; the residual of interest is distance
    return run_trials("density", trials, seed, trial,
                      {"trials": trials, "seed": seed, "N": N,
                       "groups": [s.label() for s in specs]},
                      worst_residual="distance")
