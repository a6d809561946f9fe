"""Randomized multi-trial sweeps over the single-shot checkers.

Every sweep is a draw, build and records function for
:func:`reports.run_stacked_trials`: trial i draws its inputs from a
generator seeded by seed + i, in the order the one-element helpers would,
so a sweep is reproducible for a fixed seed and any failing trial can be
replayed alone from the seed recorded in its trial record.  The engine
evaluates the draws as stacks of at most ``reports.STACK_CAP`` trials, one
stack per (group, n), or per group for the tangent and density sweeps:
one Haar QR, torus build, conjugation and membership residual per stack,
and the stacked evaluator of which each single-shot checker is the
one-element case, on the stack's group members.  Membership is decided
once per trial, by ``members_only`` (a non-member fails the run); the
evaluators take members and do not decide it again.  Records come out in
trial order.  The tangent sweep runs at ``curves.DEFAULT_STEPS`` and
``curves.RATIO_SLACK``, and its config echoes both.
"""

from __future__ import annotations

import numpy as np

from .groups import (TOL_MEMBERSHIP, GroupSpec, algebra_matrix,
                     element_draws, elements_from_draws, group_inverse,
                     random_algebra, random_element)
from .reports import (VerificationReport, inputs_memo, members_only,
                      run_stacked_trials)
from .subspaces import (TOL_RANK, TOL_SUBSPACE, _torsion_outcomes,
                        kernel_image_outcomes, zero_intersection_outcomes)
from .curves import (DEFAULT_STEPS, RATIO_SLACK, curve_kernel_outcomes,
                     product_identity_outcomes, tangent_outcomes)
from .torsion import (_conjugates, _nearest_torsion, _point_label,
                      _torsion_draw, _torsion_rows, random_torsion_point)

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


def _conjugate_draw(specs, n_max):
    """draw(rng) of a torsion sweep, in ``random_torsion_element``'s order:
    a random spec and n in 1..n_max, then ``torsion._torsion_draw``."""
    def draw(rng):
        spec = specs[int(rng.integers(len(specs)))]
        return _torsion_draw(spec, 1 + int(rng.integers(n_max)))(rng)

    return draw


def _elements(key, stack):
    return elements_from_draws(key[0], np.stack([d[1] for d in stack]))


def _point_inputs(memo, spec, n, stack):
    """(inputs, digest) of each trial of a (spec, n) stack, built once per
    point."""
    rows = _torsion_rows(spec, n, [d[1] for d in stack]).tolist()
    return [memo((spec, n, d[1]), lambda: {
                "group": spec.label(), "n": n, "point": _point_label(n, row)})
            for d, row in zip(stack, rows)]


def _record(inputs_and_digest, outcome):
    inputs, digest = inputs_and_digest
    return {"inputs": inputs, "digest": digest,
            "residuals": outcome["residuals"], "passed": outcome["passed"],
            "status": outcome["status"], "note": outcome["note"]}


def _subspace_sweep(check, outcomes, specs, n_max, trials, seed, config):
    """Sweep of a subspace check, ``outcomes(spec, g, n, **config)`` giving
    a (spec, n) stack's outcomes; ``config`` holds its tolerances."""
    specs = list(specs)
    memo = inputs_memo()

    def records(key, stack, g, residuals):
        return [_record(inputs, outcome) for inputs, outcome in
                zip(_point_inputs(memo, *key, stack),
                    outcomes(key[0], g, key[1], **config))]

    return run_stacked_trials(
        check, trials, seed, _conjugate_draw(specs, n_max), _conjugates,
        members_only(records),
        {"trials": trials, "seed": seed, "n_max": n_max, **config,
         "groups": [s.label() for s in specs]})


def sweep_kernel_image(specs, n_max, trials, seed, *, tol_rank=TOL_RANK,
                       tol_subspace=TOL_SUBSPACE) -> VerificationReport:
    """Kernel/image identity on random torsion elements of random groups."""
    return _subspace_sweep(
        "kernel-image", kernel_image_outcomes, specs, n_max, trials, seed,
        {"tol_rank": tol_rank, "tol_subspace": tol_subspace})


def sweep_zero_intersection(specs, n_max, trials, seed, *, tol_rank=TOL_RANK,
                            angle_tol=TOL_SUBSPACE) -> VerificationReport:
    """Fixed-space/kernel transversality on the same input distribution."""
    return _subspace_sweep(
        "zero-intersection", zero_intersection_outcomes, specs, n_max,
        trials, seed, {"tol_rank": tol_rank, "angle_tol": angle_tol})


def sweep_tangent(specs, trials, seed) -> VerificationReport:
    """First-order tangent check on random (g, X); g need not be torsion."""
    specs = list(specs)
    memo = inputs_memo()

    def draw(rng):
        spec = specs[int(rng.integers(len(specs)))]
        return (spec,), element_draws(spec, rng), random_algebra(spec, rng)

    def records(key, stack, g, residuals):
        spec, = key
        Xm = np.stack([algebra_matrix(spec, d[2]) for d in stack])
        inputs = memo(spec, lambda: {"group": spec.label()})
        return [_record(inputs, outcome) for outcome in
                tangent_outcomes(spec, g, Xm)]

    return run_stacked_trials(
        "tangent-space", trials, seed, draw, _elements, members_only(records),
        {"trials": trials, "seed": seed, "steps": list(DEFAULT_STEPS),
         "ratio_slack": RATIO_SLACK, "groups": [s.label() for s in specs]})


def sweep_curve_identities(specs, n_max, trials, seed, *,
                           tol=TOL_MEMBERSHIP) -> VerificationReport:
    """Kernel identity of the initial velocity plus the telescoping product
    at a random parameter, on random torsion elements."""
    specs = list(specs)
    memo = inputs_memo()
    torsion_draw = _conjugate_draw(specs, n_max)

    def draw(rng):
        key, *rest = torsion_draw(rng)
        return key, *rest, random_algebra(key[0], rng), \
            float(rng.uniform(0.0, 1.0))

    def records(key, stack, g, residuals):
        spec, n = key
        X = np.stack([d[3] for d in stack])
        Xm = np.stack([algebra_matrix(spec, d[3]) for d in stack])
        t = np.array([d[4] for d in stack])

        def both(keep):
            kernel = curve_kernel_outcomes(spec, g[keep], n, X[keep], tol)
            product = product_identity_outcomes(spec, g[keep], n, Xm[keep],
                                                t[keep])
            return [{"residuals": {**k["residuals"], **p["residuals"]},
                     "passed": k["passed"] and p["passed"]}
                    for k, p in zip(kernel, product)]

        # a rejected trial fails with no residuals but keeps status "ok"
        outcomes = _torsion_outcomes(spec, g, n, both)
        return [{"inputs": {**inputs, "t": d[4]},
                 "residuals": outcome["residuals"],
                 "passed": outcome["passed"]}
                for d, (inputs, _), outcome in
                zip(stack, _point_inputs(memo, spec, n, stack), outcomes)]

    return run_stacked_trials(
        "curve-identities", trials, seed, draw, _conjugates,
        members_only(records),
        {"trials": trials, "seed": seed, "n_max": n_max, "tol": tol,
         "groups": [s.label() for s in specs]})


def sweep_density(specs, N, trials, seed) -> VerificationReport:
    """Nearest torsion approximation of Haar-random elements: the distance
    must respect the per-family rounding bound."""
    specs = list(specs)
    memo = inputs_memo()

    def draw(rng):
        spec = specs[int(rng.integers(len(specs)))]
        return (spec,), element_draws(spec, rng)

    def records(key, stack, g, residuals):
        spec, = key
        inputs, digest = memo(spec, lambda: {"group": spec.label(), "N": N})
        fields = []
        for gi in g:
            _, distance, bound = _nearest_torsion(spec, gi, N)
            fields.append({"inputs": inputs, "digest": digest,
                           "residuals": {"distance": distance,
                                         "bound": bound},
                           "passed": distance <= bound})
        return fields

    # the bound is part of each record; the residual of interest is distance
    return run_stacked_trials(
        "density", trials, seed, draw, _elements, members_only(records),
        {"trials": trials, "seed": seed, "N": N,
         "groups": [s.label() for s in specs]},
        worst_residual="distance")
