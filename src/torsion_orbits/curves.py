"""Finite-difference and exact-identity checks along conjugation curves.

The curves here are c(t) = exp(tX) g exp(-tX).  Three facts get checked
numerically: the derivative at t = 0 is (X - Ad(g)X) g, so the orbit's
tangent space at g is the right-translate of Im(I - Ad(g)); the initial
velocity alpha'(0) = (I - Ad(g))X of alpha(t) = c(t) g^-1 is killed by
I + Ad(g) + ... + Ad(g)^(n-1) when g^n = e; and the telescoping product
alpha(t) (g alpha(t) g^-1) ... (g^(n-1) alpha(t) g^-(n-1)) collapses to the
identity.  connect_within_component makes the "orbits are connected" fact
constructive by producing an explicit path between two elements with the
same canonical invariant.

Everything here is array code over a stack.  ``tangent_outcomes``,
``curve_kernel_outcomes`` and ``product_identity_outcomes`` evaluate
stacks of group members and do not check membership again; on a
one-element stack ``g[None]`` they are the check of one element.  A
connecting path is one stacked expm of its conjugator path
(``_conjugator_stack``) and one stacked conjugation.  The tangent test's
slack and floor are the constants ``RATIO_SLACK`` and ``RATIO_FLOOR``,
echoed in the sweep's config.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .groups import (TOL_MEMBERSHIP, GroupSpec, _frobenius, adjoint_stack,
                     cartan_decompose, group_inverse, positive_int,
                     require_member)
from .reports import _float_csv
from .subspaces import _adjoint_power_sum, _outcome
from .torsion import canonicalize, torus_stack
from .alignment import _alignment, canonical_align

#: Errors below this floor count as exact; the O(h) ratio test is vacuous
#: when the difference quotient already matches the derivative to roundoff.
RATIO_FLOOR = 1e-10

#: Consecutive error ratios of the O(h) tangent test must track the step
#: ratios within this factor.
RATIO_SLACK = 3.0

DEFAULT_STEPS = (1e-2, 1e-3, 1e-4)


class DifferentComponentsError(ValueError):
    """The two elements lie in different conjugation orbits."""


def _finite(name: str, values) -> np.ndarray:
    # ``values`` as an array, refused with ValueError when an entry of the
    # stack is not finite: checked once, before any exponential
    values = np.asarray(values)
    if not np.isfinite(values).all():
        raise ValueError(f"{name} must be finite")
    return values


def _sample_times(times) -> tuple:
    """``times`` as floats, checked to be finite, positive and strictly
    decreasing."""
    times = tuple(_finite("sample times",
                          np.asarray(times, dtype=float)).tolist())
    if any(t <= 0 for t in times):
        raise ValueError("sample times must be positive")
    if any(a <= b for a, b in zip(times, times[1:])):
        raise ValueError("sample times must decrease strictly toward 0")
    return times


@dataclass
class CurveSample:
    """Sampled points of a curve through ``base``.

    ``times`` is strictly decreasing toward 0 and ``points[i]`` is the curve
    evaluated at ``times[i]``; ``base`` is the point at parameter 0.
    """

    spec: GroupSpec
    base: np.ndarray
    times: tuple
    points: tuple

    def __post_init__(self):
        self.times = _sample_times(self.times)
        self.points = tuple(self.points)
        if len(self.times) != len(self.points):
            raise ValueError("times and points disagree in length")


def _conjugation_stack(g: np.ndarray, Xm: np.ndarray, times) -> np.ndarray:
    """exp(t X_i) g_i exp(-t X_i) for each slice i of the stacks g and Xm
    and each t in row i of the (count, k) array ``times``: shape
    (count, k, m, m), from one expm over every +-t X_i."""
    times = np.asarray(times, dtype=float)[..., None, None]
    k = times.shape[1]
    E = expm(np.concatenate([times * Xm[:, None], -times * Xm[:, None]],
                            axis=1))
    return E[:, :k] @ g[:, None] @ E[:, k:]


def tangent_outcomes(spec: GroupSpec, g: np.ndarray, Xm: np.ndarray,
                     steps=DEFAULT_STEPS):
    """First-order check that c'(0) = (X - Ad(g)X) g, for each slice of the
    stack g of group members and the stack Xm of algebra matrices.

    Compares the difference quotient (c(h) - g)/h against the predicted
    derivative D for each step.  The defect is O(h), so consecutive error
    ratios must track the step ratios within ``RATIO_SLACK``; errors under
    ``RATIO_FLOOR`` count as exact (that happens exactly when Ad(g)X = X,
    where the curve is constant).  The errors of every (slice, step) come
    from one stacked Frobenius norm, and the ratio test of every
    consecutive pair of steps is array operations.  Non-finite or
    non-decreasing steps and a non-finite Xm are refused before any
    exponential.
    """
    if len(steps) < 2:
        raise ValueError("need at least two steps for the ratio test")
    steps, Xm = _sample_times(steps), _finite("Xm", Xm)
    times = np.array(steps)
    count, k, m = len(g), len(steps), spec.size
    points = _conjugation_stack(g, Xm, np.broadcast_to(times, (count, k)))
    D = Xm @ g - g @ Xm  # (X - Ad(g)X) g
    quotients = (points - g[:, None]) / times[:, None, None] - D[:, None]
    errors = _frobenius(quotients.reshape(count * k, m, m)).reshape(count, k)
    e1, e2 = errors[:, :-1], errors[:, 1:]
    exact = (e1 <= RATIO_FLOOR) & (e2 <= RATIO_FLOOR)
    ratios = e1 / np.maximum(e2, 1e-300)
    step_ratios = times[:-1] / times[1:]
    passed = (exact | ((step_ratios / RATIO_SLACK <= ratios)
                       & (ratios <= step_ratios * RATIO_SLACK))).all(axis=1)
    names = [f"error_h{i}" for i in range(k)]
    return [_outcome(dict(zip(names, row)), ok,
                     {"steps": list(steps),
                      "error_ratios": [None if x else r
                                       for x, r in zip(vacuous, ratio_row)],
                      "derivative_norm": norm})
            for row, ok, vacuous, ratio_row, norm in zip(
                errors.tolist(), passed.tolist(), exact.tolist(),
                ratios.tolist(), _frobenius(D).tolist())]


def curve_kernel_outcomes(spec: GroupSpec, g: np.ndarray, n: int,
                          X: np.ndarray, tol: float = TOL_MEMBERSHIP):
    """Exact-identity check: (I + Ad(g) + ... + Ad(g)^(n-1)) alpha'(0) = 0
    for alpha'(0) = (I - Ad(g))X, for each slice of the stack g of group
    members of order dividing n, with algebra coordinates X (one row per
    slice).

    The sum times (I - Ad(g)) telescopes to I - Ad(g)^n = 0, so any residual
    beyond roundoff is a bug.  A non-finite X is refused."""
    X = _finite("X", X)
    A = adjoint_stack(spec, g)
    alpha0 = (np.eye(spec.dim) - A) @ X[..., None]
    killed = (_adjoint_power_sum(A, n) @ alpha0)[..., 0]
    alpha0 = alpha0[..., 0]
    residuals = np.sqrt(np.vecdot(killed, killed)).tolist()
    norms = np.sqrt(np.vecdot(alpha0, alpha0)).tolist()
    return [_outcome({"kernel_residual": r}, r <= tol, {"alpha0_norm": a})
            for r, a in zip(residuals, norms)]


def product_identity_outcomes(spec: GroupSpec, g: np.ndarray, n: int,
                              Xm: np.ndarray, t: np.ndarray):
    """Telescoping product check at finite parameters t, for each slice of
    the stack g of elements of order dividing n, with algebra matrices Xm
    and parameters t (one per slice).

    With gamma(t) = exp(tX) g exp(-tX) and alpha(t) = gamma(t) g^-1, the
    product alpha(t) (g alpha(t) g^-1) ... (g^(n-1) alpha(t) g^-(n-1))
    equals gamma(t)^n g^-n = e.  Passes when ||product - I|| <=
    n * TOL_MEMBERSHIP.  A non-finite Xm or t is refused before any
    exponential."""
    t = _finite("t", np.asarray(t, dtype=float))
    gamma = _conjugation_stack(g, _finite("Xm", Xm), t[:, None])
    ginv = group_inverse(spec, g)
    alpha = gamma[:, 0] @ ginv
    prod = left = right = np.eye(spec.size, dtype=alpha.dtype)
    for _ in range(n):
        prod = prod @ (left @ alpha @ right)
        left = left @ g
        right = ginv @ right
    residuals = _frobenius(prod - np.eye(spec.size)).tolist()
    return [_outcome({"product_residual": r}, r <= n * TOL_MEMBERSHIP, {})
            for r in residuals]


def _conjugator_stack(spec: GroupSpec, h: np.ndarray,
                      s: np.ndarray) -> np.ndarray:
    """H(s) for each s of the array s, with H(0) = I, H(1) = h, H(s) in G:
    shape (len(s), m, m), from one stacked expm.

    Compact families: h = Q t Q^-1 for the frame Q of ``_alignment``, so
    h = exp(L) for the skew L = Q log(t) Q^-1, with every angle in
    (-pi, pi] (SU: one angle shifted by full turns to keep L traceless),
    and H(s) = exp(s L).  SL(2,R): split h = k exp(p) and move both
    factors linearly, H(s) = R(s phi) exp(s p).
    """
    if not spec.is_compact:
        k, p = cartan_decompose(h)
        phi = float(np.arctan2(k[1, 0], k[0, 0]))
        return (torus_stack(spec, (s * phi / (2 * np.pi))[:, None])
                @ expm(s[:, None, None] * p))
    Q, phases = _alignment(spec, h)
    theta = 2 * np.pi * np.asarray(phases, dtype=float)
    theta = np.where(theta > np.pi, theta - 2 * np.pi, theta)
    if not spec.is_complex:
        J = np.zeros((spec.size, spec.size))
        for b, th in enumerate(theta):  # at most 2 rotation blocks
            J[2 * b, 2 * b + 1], J[2 * b + 1, 2 * b] = -th, th
        L = Q @ J @ Q.T
    else:
        if spec.phase_sum:
            # keep the generator traceless: the angles sum to a multiple of
            # 2 pi, absorbed by shifting one of them a full turn
            shift = int(np.rint(theta.sum() / (2 * np.pi)))
            if shift != 0:
                j = np.argmax(theta) if shift > 0 else np.argmin(theta)
                theta[j] -= 2 * np.pi * shift
        L = (Q * (1j * theta)) @ Q.conj().T
    return expm(s[:, None, None] * L)


def connect_within_component(spec: GroupSpec, g1: np.ndarray,
                             g2: np.ndarray, n: int,
                             waypoints: int = 20) -> CurveSample:
    """Explicit path from g1 to g2 inside their common conjugation orbit.

    Both endpoints must have order dividing n and equal canonical
    invariants; otherwise DifferentComponentsError is raised.  The path is
    g(s) = H(s) g1 H(s)^-1 for a conjugator path H, so every waypoint stays
    in the orbit; the waypoints are one stacked conjugation of g1 by
    ``_conjugator_stack``.  Returned as a CurveSample based at g1 with
    times descending from 1.
    """
    if positive_int(waypoints, "waypoints") < 2:
        raise ValueError("need at least two waypoints")
    g1 = require_member(spec, g1)
    g2 = require_member(spec, g2)
    Q1, realized1 = canonical_align(spec, g1, n)
    Q2, realized2 = canonical_align(spec, g2, n)
    if realized1 != realized2:  # one representative per invariant
        raise DifferentComponentsError(
            f"elements lie in different components: canonical invariants "
            f"{canonicalize(spec, realized1).label()} vs "
            f"{canonicalize(spec, realized2).label()}")
    svals = np.linspace(0.0, 1.0, waypoints)[1:][::-1]  # 1 down to 1/(w-1)
    H = _conjugator_stack(spec, Q2 @ group_inverse(spec, Q1), svals)
    return CurveSample(spec, g1, svals.tolist(),
                       H @ g1 @ group_inverse(spec, H))


def path_order_residuals(sample: CurveSample, n: int) -> list[float]:
    """||g(s)^n - I|| for every waypoint plus the base, from one stacked
    matrix power."""
    powers = np.linalg.matrix_power(np.stack([*sample.points, sample.base]), n)
    return _frobenius(powers - np.eye(sample.spec.size)).tolist()


def export_path_csv(sample: CurveSample, fileobj) -> None:
    """Waypoints as CSV, one row per parameter value in ascending order;
    complex entries are split into re/im columns.  The rows are one float
    array, printed pass by pass by ``reports._float_csv`` as ``repr``
    prints each value."""
    m = sample.spec.size
    names = [f"e{i}{j}" for i in range(m) for j in range(m)]
    mats = np.stack([sample.base, *sample.points[::-1]])
    if sample.spec.is_complex:
        names = [f"{e}_{part}" for e in names for part in ("re", "im")]
        mats = np.asarray(mats, dtype=complex).view(np.float64)
    rows = np.column_stack([[0.0, *sample.times[::-1]],
                            np.real(mats).reshape(len(mats), -1)])
    fileobj.write(",".join(["s", *names]) + "\n")
    fileobj.writelines(_float_csv(rows))
