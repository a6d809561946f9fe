"""Randomized multi-trial sweeps over the single-shot checkers, and the
class censuses.

Every sweep and census is a draw, build and records function for
:func:`reports.run_stacked_trials`: trial i draws its inputs from a
generator seeded by seed + i, in the order the one-element helpers would,
so a run is reproducible for a fixed seed and any failing trial can be
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

The three torsion sweeps and both censuses run over conjugates of torus
points: ``_torsion_draw`` draws a torus point index, one ``rng.integers``
over the point count, and then the conjugator's normals
(``groups.element_draws``); ``_conjugates`` builds their stack.  The
censuses read each sample's class back off the matrix
(``alignment._invariant_rows``; the trace and orientation for SL(2,R)) and
count the clusters against ``torsion.count_components``.
"""

from __future__ import annotations

import time

import numpy as np

from .groups import (TOL_MEMBERSHIP, GroupSpec, algebra_matrix,
                     element_draws, elements_from_draws, group_inverse,
                     random_algebra)
from .reports import (VerificationReport, inputs_memo, members_only,
                      run_stacked_trials)
from .subspaces import (TOL_RANK, TOL_SUBSPACE, _torsion_outcomes,
                        kernel_image_outcomes, zero_intersection_outcomes)
from .curves import (DEFAULT_STEPS, RATIO_SLACK, curve_kernel_outcomes,
                     product_identity_outcomes, tangent_outcomes)
from .torsion import (_canonical_rows, _indexable_count, _point_label,
                      _row_invariant, _torsion_rows, count_components,
                      torus_stack)
from .alignment import (_check_snap_grid, _invariant_rows, _nearest_torsion,
                        _orientations, _sl2_align_stack)

COMPACT_SWEEP_SPECS = tuple(
    [GroupSpec("U", m) for m in (1, 2, 3, 4)]
    + [GroupSpec("SU", m) for m in (2, 3, 4)]
    + [GroupSpec("SO", m) for m in (2, 3, 4)])

ALL_FAMILY_SPECS = COMPACT_SWEEP_SPECS + (GroupSpec("SL2R", 2),)

#: Decimal digits of the trace that ``sl2_component_census`` clusters by.
TRACE_DIGITS = 6


def _torsion_draw(spec: GroupSpec, n: int):
    """draw(rng) of a run over conjugates of torsion points: ((spec, n),
    the torus point index from one ``rng.integers`` over the point count,
    the conjugator's ``element_draws``)."""
    key, count = (spec, n), _indexable_count(spec, n)

    def draw(rng):
        return key, int(rng.integers(count)), element_draws(spec, rng)

    return draw


def _conjugates(key, stack):
    """build of a run over ``_torsion_draw`` draws: the stack of their
    conjugated torus points."""
    spec, n = key
    rows = _torsion_rows(spec, n, [d[1] for d in stack])
    return _conjugate_stack(spec, n, rows, [d[2] for d in stack])


def _conjugate_stack(spec: GroupSpec, n: int, rows: np.ndarray, draws):
    """Stack of torus points with phase numerators ``rows`` (phases k/n),
    each conjugated by the element ``elements_from_draws`` makes of the
    matching ``element_draws`` result: one QR, torus build and conjugation
    for the whole stack.  Slice j is the torus point of ``rows[j]``
    conjugated by ``random_element`` of the Generator that drew
    ``draws[j]``."""
    h = elements_from_draws(spec, np.stack(draws))
    return h @ torus_stack(spec, rows / n) @ group_inverse(spec, h)


def _conjugate_draw(specs, n_max):
    """draw(rng) of a torsion sweep: a random spec and n in 1..n_max, then
    ``_torsion_draw``."""
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


def _expected_sigma(k: int, n: int) -> int:
    if k == 0 or 2 * k == n:
        return 0
    return -1 if 2 * k < n else 1


def sl2_component_census(n: int, samples: int,
                         seed: int) -> VerificationReport:
    """Monte-Carlo census of {g : g^n = e} in SL(2,R).

    Samples random conjugates of the n rotations R(2 pi k/n) and clusters
    them by the invariant pair (trace rounded to TRACE_DIGITS decimals,
    orientation sign).  Passes when exactly n classes appear and the
    orientation sign never flips within a sampled orbit: the k-th and
    (n-k)-th rotations share a trace but stay in different components.

    Sample i draws k, the SL(2,R) torus point index, and then its
    conjugator from its own Generator, as ``cluster_census`` does, so it
    replays alone at seed + i; the samples are conjugated, and their
    orientations and traces read, as stacks.  Membership is recorded as a
    residual, not required.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    spec = GroupSpec("SL2R", 2)
    classes = set()
    memo = inputs_memo()

    def records(key, stack, g, residuals):
        _, phases, refused = _sl2_align_stack(g)
        sigmas = _orientations(phases, refused).tolist()
        traces = np.trace(g, axis1=1, axis2=2).tolist()
        fields = []
        for (_, k, _), sigma, tr, r in zip(stack, sigmas, traces, residuals):
            classes.add((round(tr, TRACE_DIGITS), sigma))
            flipped = sigma != _expected_sigma(k, n)
            inputs, digest = memo(k, lambda: {"k": k, "n": n})
            fields.append({"inputs": inputs, "digest": digest,
                           "residuals": {"membership": r,
                                         "sigma_flip": float(flipped)},
                           "passed": not flipped})
        return fields

    report = run_stacked_trials("sl2-census", samples, seed,
                                _torsion_draw(spec, n), _conjugates, records,
                                {"n": n, "samples": samples, "seed": seed,
                                 "trace_digits": TRACE_DIGITS},
                                worst_residual="membership")
    flip_count = sum(not t.passed for t in report.trials)
    report.passed = report.passed and len(classes) == n
    report.details = {"class_count": len(classes), "expected_classes": n,
                      "sigma_flips": flip_count,
                      "classes": sorted(map(list, classes))}
    return report


def cluster_census(spec: GroupSpec, n: int, samples: int,
                   seed: int) -> VerificationReport:
    """Monte-Carlo census for any supported group: random conjugates of
    random torsion points, clustered by the canonical invariant recovered
    from the matrix alone.  Passes when the cluster count matches
    count_components(spec, n) and every recovered invariant agrees with the
    invariant of the torus point that produced the sample.

    Sample i draws from its own Generator (``_torsion_draw``), so it
    replays alone at seed + i.  The draws are evaluated as stacks: one QR,
    one torus build, one conjugation and one membership residual per
    stack, then the members' invariants from ``_invariant_rows`` (one
    eigensolve per stack; one ``_sl2_align_stack`` for SL(2,R)), on
    integer phase numerators.  A run with a sample off the group or off
    the 1/n grid raises the error ``matrix_invariant`` would, for the
    first such sample; an n too fine to snap at is refused before any
    sample is drawn."""
    t0 = time.perf_counter()
    _check_snap_grid(n)
    expected = count_components(spec, n)
    seen = set()
    memo = inputs_memo()

    def records(key, stack, g, residuals):
        drawn = _torsion_rows(spec, n, [d[1] for d in stack])
        found, errors = _invariant_rows(spec, n, g)
        consistent = (found == _canonical_rows(spec, n, drawn)).all(axis=1)
        seen.update(map(tuple, np.unique(found, axis=0).tolist()))
        fields = []
        for d, row, r, ok, error in zip(stack, drawn.tolist(), residuals,
                                        consistent.tolist(), errors):
            inputs, digest = memo(d[1], lambda: {
                "point": _point_label(n, row), "n": n})
            fields.append(error or {
                "inputs": inputs, "digest": digest,
                "residuals": {"membership": r,
                              "invariant_mismatch": 0.0 if ok else 1.0},
                "passed": ok})
        return fields

    report = run_stacked_trials("cluster-census", samples, seed,
                                _torsion_draw(spec, n), _conjugates,
                                members_only(records),
                                {"group": spec.label(), "n": n,
                                 "samples": samples, "seed": seed},
                                worst_residual="membership")
    labels = sorted(_row_invariant(n, row).label() for row in seen)
    report.passed = report.passed and len(seen) == expected
    report.details = {"cluster_count": len(seen), "expected_clusters": expected,
                      "clusters": labels}
    report.wall_time_s = time.perf_counter() - t0  # with the class count
    return report
