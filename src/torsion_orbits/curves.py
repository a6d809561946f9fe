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

``tangent_outcomes``, ``curve_kernel_outcomes`` and
``product_identity_outcomes`` evaluate stacks of group members and do not
check membership again; the single-shot checkers are their one-element
cases and refuse a non-member first.  The tangent test's slack and floor
are the constants ``RATIO_SLACK`` and ``RATIO_FLOOR``, echoed in the
report config.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .groups import (TOL_MEMBERSHIP, GroupSpec, adjoint_stack,
                     algebra_matrix, cartan_decompose, group_inverse,
                     require_member)
from .reports import VerificationReport
from .subspaces import (_adjoint_power_sum, _one_member, _outcome,
                        _outcome_report, _torsion_outcomes)
from .torsion import canonicalize, torus_matrix
from .alignment import (_so_torus_align, _unitary_eigenstructure,
                        canonical_align)

#: Errors below this floor count as exact; the O(h) ratio test is vacuous
#: when the difference quotient already matches the derivative to roundoff.
RATIO_FLOOR = 1e-10

#: Consecutive error ratios of the O(h) tangent test must track the step
#: ratios within this factor.
RATIO_SLACK = 3.0

DEFAULT_STEPS = (1e-2, 1e-3, 1e-4)


class DifferentComponentsError(ValueError):
    """The two elements lie in different conjugation orbits."""


def _sample_times(times) -> tuple:
    """``times`` as floats, checked to be positive and strictly decreasing."""
    times = tuple(float(t) for t in times)
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


def conjugation_curve(spec: GroupSpec, g: np.ndarray, X,
                      steps=DEFAULT_STEPS) -> CurveSample:
    """Sample c(t) = exp(tX) g exp(-tX) at the given decreasing steps."""
    g = require_member(spec, g)
    Xm = algebra_matrix(spec, X)
    pts = _conjugation_stack(g[None], Xm[None], [steps])[0]
    return CurveSample(spec, g, tuple(steps), tuple(pts))


def tangent_outcomes(spec: GroupSpec, g: np.ndarray, Xm: np.ndarray,
                     steps=DEFAULT_STEPS):
    """Outcome of ``tangent_space_check`` for each slice of the stack g of
    group members and the stack Xm of algebra matrices."""
    if len(steps) < 2:
        raise ValueError("need at least two steps for the ratio test")
    times = _sample_times(steps)
    points = _conjugation_stack(g, Xm, np.broadcast_to(times, (len(g),
                                                               len(times))))
    D = Xm @ g - g @ Xm  # (X - Ad(g)X) g
    out = []
    for base, Di, curve in zip(g, D, points):
        errors = [float(np.linalg.norm((c - base) / h - Di))
                  for h, c in zip(times, curve)]
        passed = True
        ratios = []
        for (h1, e1), (h2, e2) in zip(zip(times, errors),
                                      zip(times[1:], errors[1:])):
            if e1 <= RATIO_FLOOR and e2 <= RATIO_FLOOR:
                ratios.append(None)
                continue
            step_ratio = h1 / h2
            err_ratio = e1 / max(e2, 1e-300)
            ratios.append(err_ratio)
            if not (step_ratio / RATIO_SLACK <= err_ratio
                    <= step_ratio * RATIO_SLACK):
                passed = False
        out.append(_outcome(
            {f"error_h{i}": e for i, e in enumerate(errors)}, passed,
            {"steps": list(times),
             "error_ratios": [r if r is None else float(r) for r in ratios],
             "derivative_norm": float(np.linalg.norm(Di))}))
    return out


def tangent_space_check(spec: GroupSpec, g: np.ndarray, X,
                        steps=DEFAULT_STEPS) -> VerificationReport:
    """First-order check that c'(0) = (X - Ad(g)X) g.

    Compares the difference quotient (c(h) - g)/h against the predicted
    derivative D for each step.  The defect is O(h), so consecutive error
    ratios must track the step ratios within ``RATIO_SLACK``; errors under
    ``RATIO_FLOOR`` count as exact (that happens exactly when Ad(g)X = X,
    where the curve is constant).  This is the one-element case of
    ``tangent_outcomes``.
    """
    t0 = time.perf_counter()
    g = require_member(spec, g)
    Xm = algebra_matrix(spec, X)
    outcome, = tangent_outcomes(spec, g[None], Xm[None], steps)
    return _outcome_report(
        "tangent-space", {"group": spec.label()}, outcome,
        {"steps": list(steps), "ratio_slack": RATIO_SLACK,
         "floor": RATIO_FLOOR}, t0)


def curve_kernel_outcomes(spec: GroupSpec, g: np.ndarray, n: int,
                          X: np.ndarray, tol: float = TOL_MEMBERSHIP):
    """Outcome of ``curve_kernel_check`` for each slice of the stack g of
    group members of order dividing n, with algebra coordinates X (one row
    per slice)."""
    A = adjoint_stack(spec, g)
    alpha0 = (np.eye(spec.dim) - A) @ X[..., None]
    killed = _adjoint_power_sum(A, n) @ alpha0
    out = []
    for a, k in zip(alpha0[..., 0], killed[..., 0]):
        residual = float(np.linalg.norm(k))
        out.append(_outcome({"kernel_residual": residual}, residual <= tol,
                            {"alpha0_norm": float(np.linalg.norm(a))}))
    return out


def curve_kernel_check(spec: GroupSpec, g: np.ndarray, n: int, X,
                       tol: float = TOL_MEMBERSHIP) -> VerificationReport:
    """Exact-identity check: (I + Ad(g) + ... + Ad(g)^(n-1)) alpha'(0) = 0
    for alpha'(0) = (I - Ad(g))X, whenever g^n = e.

    The sum times (I - Ad(g)) telescopes to I - Ad(g)^n = 0, so any residual
    beyond roundoff is a bug.  This is the one-element case of
    ``curve_kernel_outcomes``."""
    t0 = time.perf_counter()
    stack, n = _one_member(spec, g, n)
    outcome, = _torsion_outcomes(
        spec, stack, n,
        lambda keep: curve_kernel_outcomes(
            spec, stack, n, np.asarray(X, dtype=float)[None], tol))
    return _outcome_report("curve-kernel", {"group": spec.label(), "n": n},
                           outcome, {"tol": tol}, t0, "kernel_residual")


def product_identity_outcomes(spec: GroupSpec, g: np.ndarray, n: int,
                              Xm: np.ndarray, t: np.ndarray):
    """Outcome of ``product_identity_check`` for each slice of the stack g
    of elements of order dividing n, with algebra matrices Xm and
    parameters t (one per slice)."""
    gamma = _conjugation_stack(g, Xm, np.asarray(t, dtype=float)[:, None])
    ginv = group_inverse(spec, g)
    alpha = gamma[:, 0] @ ginv
    prod = left = right = np.eye(spec.size, dtype=alpha.dtype)
    for _ in range(n):
        prod = prod @ (left @ alpha @ right)
        left = left @ g
        right = ginv @ right
    eye = np.eye(spec.size)
    residuals = [float(np.linalg.norm(p - eye)) for p in prod]
    return [_outcome({"product_residual": r}, r <= n * TOL_MEMBERSHIP, {})
            for r in residuals]


def product_identity_check(spec: GroupSpec, g: np.ndarray, n: int, X,
                           t: float) -> VerificationReport:
    """Telescoping product check at a finite parameter t.

    With gamma(t) = exp(tX) g exp(-tX) and alpha(t) = gamma(t) g^-1, the
    product alpha(t) (g alpha(t) g^-1) ... (g^(n-1) alpha(t) g^-(n-1))
    equals gamma(t)^n g^-n = e.  Passes when ||product - I|| <=
    n * TOL_MEMBERSHIP.
    This is the one-element case of ``product_identity_outcomes``."""
    t0 = time.perf_counter()
    t = float(t)
    stack, n = _one_member(spec, g, n)
    inputs = {"group": spec.label(), "n": n, "t": t}
    outcome, = _torsion_outcomes(
        spec, stack, n,
        lambda keep: product_identity_outcomes(
            spec, stack, n, algebra_matrix(spec, X)[None], [t]))
    return _outcome_report("product-identity", inputs, outcome,
                           {"tol_membership": TOL_MEMBERSHIP}, t0,
                           "product_residual")


def _conjugator_path(spec: GroupSpec, h: np.ndarray):
    """Return a function s -> H(s) with H(0) = I, H(1) = h, H(s) in G.

    Compact families: h is unitary/orthogonal, so h = exp(L) for a skew L
    read off its eigenstructure (orthogonal matrices pair their -1
    eigenvalues, so the log always exists in the algebra).  SL(2,R): split
    h = k exp(p) and move both factors linearly.
    """
    if spec.family in ("U", "SU"):
        Z, phases = _unitary_eigenstructure(h)
        theta = 2 * np.pi * phases
        theta = np.where(theta > np.pi, theta - 2 * np.pi, theta)
        if spec.family == "SU":
            # keep the generator traceless: the angles sum to a multiple of
            # 2 pi, absorbed by shifting one of them a full turn
            total = theta.sum()
            shift = int(np.rint(total / (2 * np.pi)))
            if shift != 0:
                j = int(np.argmax(theta)) if shift > 0 else int(np.argmin(theta))
                theta[j] -= 2 * np.pi * shift
        L = (Z * (1j * theta)) @ Z.conj().T
        return lambda s: expm(s * L)
    if spec.family == "SO":
        Q, phases = _so_torus_align(h)
        J = np.zeros((spec.size, spec.size))
        for b, p in enumerate(phases):
            th = 2 * np.pi * p
            if th > np.pi:
                th -= 2 * np.pi
            J[2 * b, 2 * b + 1] = -th
            J[2 * b + 1, 2 * b] = th
        L = Q @ J @ Q.T
        return lambda s: np.real(expm(s * L))
    k, p = cartan_decompose(h)
    phi = float(np.arctan2(k[1, 0], k[0, 0]))
    return lambda s: torus_matrix(spec, [s * phi / (2 * np.pi)]) @ expm(s * p)


def connect_within_component(spec: GroupSpec, g1: np.ndarray,
                             g2: np.ndarray, n: int,
                             waypoints: int = 20) -> CurveSample:
    """Explicit path from g1 to g2 inside their common conjugation orbit.

    Both endpoints must have order dividing n and equal canonical
    invariants; otherwise DifferentComponentsError is raised.  The path is
    g(s) = H(s) g1 H(s)^-1 for a conjugator path H, so every waypoint stays
    in the orbit.  Returned as a CurveSample based at g1 with times
    descending from 1.
    """
    if waypoints < 2:
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
    h = Q2 @ group_inverse(spec, Q1)
    path = _conjugator_path(spec, h)
    svals = np.linspace(0.0, 1.0, waypoints)[1:][::-1]  # 1 down to 1/(w-1)
    pts = []
    for s in svals:
        H = path(float(s))
        pts.append(H @ g1 @ group_inverse(spec, H))
    return CurveSample(spec, g1, tuple(float(s) for s in svals), pts)


def path_order_residuals(sample: CurveSample, n: int) -> list[float]:
    """||g(s)^n - I|| for every waypoint plus the base."""
    eye = np.eye(sample.spec.size)
    out = []
    for g in (*sample.points, sample.base):
        out.append(float(np.linalg.norm(np.linalg.matrix_power(g, n) - eye)))
    return out


def export_path_csv(sample: CurveSample, fileobj) -> None:
    """Waypoints as CSV, one row per parameter value in ascending order;
    complex entries are split into re/im columns."""
    import csv
    m = sample.spec.size
    is_c = sample.spec.is_complex
    header = ["s"]
    for i in range(m):
        for j in range(m):
            if is_c:
                header += [f"e{i}{j}_re", f"e{i}{j}_im"]
            else:
                header.append(f"e{i}{j}")
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(header)
    rows = [(0.0, sample.base)] + list(zip(sample.times, sample.points))[::-1]
    for s, g in rows:
        row = [repr(float(s))]
        for x in np.asarray(g).ravel():
            if is_c:
                row += [repr(float(x.real)), repr(float(x.imag))]
            else:
                row.append(repr(float(np.real(x))))
        writer.writerow(row)
