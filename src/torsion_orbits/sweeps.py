"""Randomized multi-trial sweeps over the single-shot checkers.

Every sweep runs through :func:`reports.run_stacked_trials`: trial i draws
its inputs from a generator seeded by seed + i, in the order the
one-element helpers would, so a sweep is reproducible for a fixed seed and
any failing trial can be replayed alone from the seed recorded in its
trial record.  The draws are then evaluated as stacks of at most
``torsion._CENSUS_BLOCK`` trials, one stack per (group, n), or per group
for the tangent and density sweeps: one Haar QR, torus build,
conjugation and membership residual per stack, and the stacked
evaluator of which each single-shot checker is the one-element case.
Records come out in trial order.
"""

from __future__ import annotations

import numpy as np

from .groups import (TOL_MEMBERSHIP, GroupSpec, algebra_matrix,
                     element_draws, elements_from_draws, group_inverse,
                     membership_residuals, random_algebra, random_element,
                     require_residual)
from .reports import VerificationReport, inputs_memo, run_stacked_trials
from .subspaces import (_torsion_outcomes, kernel_image_outcomes,
                        zero_intersection_outcomes)
from .curves import (DEFAULT_STEPS, curve_kernel_outcomes,
                     product_identity_outcomes, tangent_outcomes)
from .torsion import (_blocks, _conjugate_stack, _indexable_count,
                      _nearest_torsion, _point_label, _torsion_rows,
                      random_torsion_point)

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


def _stacked(draws, build, records):
    """Record fields of a sweep's draws, in trial order.

    The trials that share a key ``draws[i][0]`` (a tuple that starts with
    the spec) form stacks, in trial order and cut at the stack cap;
    ``build(key, stack draws)`` makes a stack's elements.  Their membership
    residuals are then taken once per stack, and the first non-member in
    trial order raises the single-shot checkers' error.  Last,
    ``records(key, stack draws, elements, residuals)`` gives a stack's
    record fields."""
    groups = {}
    for i, d in enumerate(draws):
        groups.setdefault(d[0], []).append(i)
    stacks = [(key, block, build(key, [draws[i] for i in block]))
              for key, idx in groups.items() for block in _blocks(idx)]
    residuals = {}
    for (spec, *_), block, g in stacks:
        residuals.update(zip(block, membership_residuals(spec, g).tolist()))
    for i, d in enumerate(draws):
        require_residual(d[0][0], residuals[i])
    fields = [None] * len(draws)
    for key, block, g in stacks:
        for i, f in zip(block, records(key, [draws[i] for i in block], g,
                                       [residuals[i] for i in block])):
            fields[i] = f
    return fields


def _conjugate_draw(specs, n_max):
    """draw(rng) of a torsion sweep, in ``random_torsion_element``'s order:
    ((spec, n), torus point index, the conjugator's normal draws), with n
    in 1..n_max."""
    def draw(rng):
        spec = specs[int(rng.integers(len(specs)))]
        n = 1 + int(rng.integers(n_max))
        index = int(rng.integers(_indexable_count(spec, n)))
        return (spec, n), index, element_draws(spec, rng)

    return draw


def _conjugates(key, stack):
    spec, n = key
    rows = _torsion_rows(spec, n, [d[1] for d in stack])
    return _conjugate_stack(spec, n, rows, [d[2] for d in stack])


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
    """Sweep of a subspace check, ``outcomes(spec, g, n, residuals)`` giving
    a (spec, n) stack's outcomes."""
    specs = list(specs)
    memo = inputs_memo()

    def records(key, stack, g, residuals):
        return [_record(inputs, outcome) for inputs, outcome in
                zip(_point_inputs(memo, *key, stack),
                    outcomes(key[0], g, key[1], residuals))]

    return run_stacked_trials(
        check, trials, seed, _conjugate_draw(specs, n_max),
        lambda draws: _stacked(draws, _conjugates, records),
        {"trials": trials, "seed": seed, "n_max": n_max, **config,
         "groups": [s.label() for s in specs]})


def sweep_kernel_image(specs, n_max, trials, seed, *, tol_rank=1e-9,
                       tol_subspace=1e-7) -> VerificationReport:
    """Kernel/image identity on random torsion elements of random groups."""
    return _subspace_sweep(
        "kernel-image",
        lambda spec, g, n, residuals: kernel_image_outcomes(
            spec, g, n, residuals, tol_rank, tol_subspace),
        specs, n_max, trials, seed,
        {"tol_rank": tol_rank, "tol_subspace": tol_subspace})


def sweep_zero_intersection(specs, n_max, trials, seed, *, tol_rank=1e-9,
                            angle_tol=1e-7) -> VerificationReport:
    """Fixed-space/kernel transversality on the same input distribution."""
    return _subspace_sweep(
        "zero-intersection",
        lambda spec, g, n, residuals: zero_intersection_outcomes(
            spec, g, n, residuals, tol_rank, angle_tol),
        specs, n_max, trials, seed,
        {"tol_rank": tol_rank, "angle_tol": angle_tol})


def sweep_tangent(specs, trials, seed, steps=DEFAULT_STEPS, *,
                  ratio_slack=3.0) -> VerificationReport:
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
                tangent_outcomes(spec, g, Xm, steps, ratio_slack)]

    return run_stacked_trials(
        "tangent-space", trials, seed, draw,
        lambda draws: _stacked(draws, _elements, records),
        {"trials": trials, "seed": seed, "steps": list(steps),
         "ratio_slack": ratio_slack, "groups": [s.label() for s in specs]})


def sweep_curve_identities(specs, n_max, trials, seed, *,
                           tol=1e-9) -> VerificationReport:
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
            kernel = curve_kernel_outcomes(
                spec, g[keep], n, [residuals[i] for i in keep], X[keep], tol)
            product = product_identity_outcomes(spec, g[keep], n, Xm[keep],
                                                t[keep])
            return [{"residuals": {**k["residuals"], **p["residuals"]},
                     "passed": k["passed"] and p["passed"]}
                    for k, p in zip(kernel, product)]

        # a rejected trial fails with no residuals but keeps status "ok"
        outcomes = _torsion_outcomes(spec, g, n, TOL_MEMBERSHIP, both)
        return [{"inputs": {**inputs, "t": d[4]},
                 "residuals": outcome["residuals"],
                 "passed": outcome["passed"]}
                for d, (inputs, _), outcome in
                zip(stack, _point_inputs(memo, spec, n, stack), outcomes)]

    return run_stacked_trials(
        "curve-identities", trials, seed, draw,
        lambda draws: _stacked(draws, _conjugates, records),
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
        for gi, r in zip(g, residuals):
            _, distance, bound = _nearest_torsion(spec, gi, N, r)
            fields.append({"inputs": inputs, "digest": digest,
                           "residuals": {"distance": distance,
                                         "bound": bound},
                           "passed": distance <= bound})
        return fields

    # the bound is part of each record; the residual of interest is distance
    return run_stacked_trials(
        "density", trials, seed, draw,
        lambda draws: _stacked(draws, _elements, records),
        {"trials": trials, "seed": seed, "N": N,
         "groups": [s.label() for s in specs]},
        worst_residual="distance")
