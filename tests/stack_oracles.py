"""One-element bodies of the stacked evaluators, kept as test oracles.

``groups.membership_residuals``, ``alignment._sl2_align_stack`` and the
stacked subspace checks take a whole stack at a time, and
``membership_residual``, ``_sl2_align`` and ``orientation_sign`` are
their one-element cases.  These are the direct per-matrix statements
they replaced, with ``scipy.linalg.subspace_angles`` for the principal
angles and an SVD of g - mu I for the SL(2,R) eigenvector, which the
stack now reads off g's entries in closed form.  They share no code with
the package, so a test that compares the two does not compare the code
with itself.

``component_dimension`` is the numeric adjoint rank that the exact
``torsion.orbit_dimension`` is checked against: the package's adjoint,
and its own SVD and rank cut at the package's ``TOL_RANK``.

The rest are per-element forms built on the package's own primitives:
``random_torsion_point`` and ``random_torsion_element``, one draw at a
time in the order the stacked ``sweeps._torsion_draw`` takes it;
``circle_point_oracle``, one surface point at a time, the scalar body
that ``surface.circle_points`` replaced; and the per-element bodies
that ``curves`` replaced with array code: ``tangent_outcome_oracle``,
one norm per (trial, step) and the ratio test as a loop,
``connect_waypoints_oracle``, one expm and one conjugation per waypoint
of the conjugator path that ``conjugator_path_oracle`` returns as a
closure, and ``export_path_csv_oracle``, the ``csv.writer`` path export.
``sl2_invariant_rows_oracle`` is the SL(2,R) branch that
``alignment._invariant_rows`` kept beside its compact path, before every
family was read off ``_eigen_rows`` with one per-member fallback.
"""

import csv

import numpy as np
from scipy.linalg import expm, subspace_angles

from torsion_orbits.alignment import (_SL2_REFUSALS, _off_grid, _snap,
                                      _sl2_align_stack, _so_torus_align,
                                      _unitary_eigenstructure,
                                      canonical_align)
from torsion_orbits.curves import RATIO_FLOOR, RATIO_SLACK
from torsion_orbits.groups import (SL2R, adjoint_matrix, cartan_decompose,
                                   group_inverse, random_element)
from torsion_orbits.subspaces import TOL_RANK
from torsion_orbits.surface import surface_value
from torsion_orbits.torsion import (_canonical_rows, _indexable_count,
                                    torsion_point, torus_matrix)


def membership_residual_oracle(spec, g):
    """Frobenius-scale distance from the defining group constraints, one
    matrix at a time: the max over the terms, or the first NaN term."""
    g = np.asarray(g)
    m = spec.size
    if g.shape != (m, m):
        return float("inf")
    eye = np.eye(m)
    gr = np.real(g)
    if spec.family in ("U", "SU"):
        terms = [np.linalg.norm(g.conj().T @ g - eye)]
        if spec.family == "SU":
            terms.append(abs(np.linalg.det(g) - 1.0))
    else:
        terms = [abs(np.linalg.det(gr) - 1.0),
                 np.linalg.norm(np.imag(g)) if np.iscomplexobj(g) else 0.0]
        if spec.family == "SO":
            terms.insert(0, np.linalg.norm(gr.T @ gr - eye))
    nans = [t for t in terms if t != t]
    return float(nans[0] if nans else max(terms))


def sl2_align_oracle(g):
    """(h, phase) with h in SL(2,R) and g = h R(2 pi phase) h^-1, for +-I
    and elliptic g; ValueError (LinAlgError for a non-finite g) otherwise."""
    g = np.asarray(g, dtype=float)
    eye = np.eye(2)
    if np.linalg.norm(g - eye) <= 1e-8:
        return eye.copy(), 0.0
    if np.linalg.norm(g + eye) <= 1e-8:
        return eye.copy(), 0.5
    tr = float(np.trace(g))
    if abs(tr) >= 2:
        raise ValueError("element is not elliptic or central; it has no "
                         "finite order in SL(2,R)")
    theta = float(np.arctan2(np.sqrt(max(0.0, 1 - tr * tr / 4)), tr / 2))
    mu = tr / 2 + 1j * np.sin(theta)
    _, _, Vt = np.linalg.svd(g.astype(complex) - mu * np.eye(2))
    v = Vt[-1].conj()
    x, y = v.real, v.imag
    delta = x[0] * y[1] - x[1] * y[0]
    if abs(delta) < 1e-12:
        raise ValueError("degenerate eigenvector; cannot align")
    if delta < 0:
        h = np.column_stack([y, x]) / np.sqrt(-delta)
        phase = theta / (2 * np.pi)
    else:
        h = np.column_stack([x, y]) / np.sqrt(delta)
        phase = 1.0 - theta / (2 * np.pi)
    return h, phase


def sl2_invariant_rows_oracle(n, g):
    """(canonical rows, errors) of ``alignment._invariant_rows`` for a
    stack g of SL(2,R) members, as its own SL(2,R) branch read them: one
    ``_sl2_align_stack``, a refused slice's error its refusal text, else
    the error of its phase off the 1/n grid."""
    errors = [None] * len(g)
    _, phases, refused = _sl2_align_stack(g)
    for i in np.flatnonzero(refused):
        errors[i] = ValueError(_SL2_REFUSALS[refused[i]])
    raw = phases[:, None]
    ks, off = _snap(raw, n)
    for i in np.flatnonzero(off.any(axis=1)):
        errors[i] = errors[i] or _off_grid(raw[i][off[i]][0], n)
    return _canonical_rows(SL2R, n, ks), errors


def orientation_sign_oracle(g):
    """-1 for a rotation phase in (0, 1/2), +1 in (1/2, 1), 0 for +-I and
    for whatever ``sl2_align_oracle`` refuses."""
    try:
        _, phase = sl2_align_oracle(g)
    except ValueError:
        return 0
    if phase in (0.0, 0.5):
        return 0
    return -1 if phase < 0.5 else 1


def _subspace_svds(A, n):
    """S = I + A + ... + A^(n-1), the SVD of I - A and the SVD of S."""
    S = P = np.eye(len(A))
    for _ in range(n - 1):
        P = P @ A
        S = S + P
    return S, np.linalg.svd(np.eye(len(A)) - A), np.linalg.svd(S)


def _rank(s, tol):
    return int(np.sum(s > tol * max(1.0, float(s[0]))))


def kernel_image_oracle(A, n, tol_rank, tol_subspace):
    """(residuals, passed, details) of the kernel-image check on one
    adjoint matrix A, one subspace_angles call per matrix."""
    S, (U, s, _), (_, s_S, Vt_S) = _subspace_svds(A, n)
    im = U[:, :_rank(s, tol_rank)].copy()
    ker = Vt_S[_rank(s_S, tol_rank):].T.copy()
    if im.shape[1] != ker.shape[1]:
        passed, angle = False, np.pi / 2
    elif im.shape[1] == 0:
        passed, angle = True, 0.0
    else:
        angle = float(np.sort(subspace_angles(im, ker))[-1])
        passed = angle <= tol_subspace
    containment = 0.0
    if im.shape[1]:
        containment = float(np.max(np.linalg.norm(S @ im, axis=0)))
    return ({"principal_angle": angle, "containment": containment}, passed,
            {"image_dim": im.shape[1], "kernel_dim": ker.shape[1]})


def zero_intersection_oracle(A, n, tol_rank, angle_tol):
    """(residuals, passed, details) of the zero-intersection check on one
    adjoint matrix A, one subspace_angles call per matrix."""
    _, (_, s, Vt), (_, s_S, Vt_S) = _subspace_svds(A, n)
    fixed = Vt[_rank(s, tol_rank):].T.copy()
    ker = Vt_S[_rank(s_S, tol_rank):].T.copy()
    est, min_angle = 0, np.pi / 2
    if fixed.shape[1] and ker.shape[1]:
        angles = np.sort(subspace_angles(fixed, ker))
        est, min_angle = int(np.sum(angles < angle_tol)), float(angles[0])
    return ({"intersection_dim": float(est)}, est == 0,
            {"fixed_dim": fixed.shape[1], "kernel_dim": ker.shape[1],
             "min_principal_angle": min_angle})


def component_dimension(spec, g, tol_rank=TOL_RANK):
    """Dimension of the conjugation orbit of g: the numeric rank of
    I - Ad(g), its singular values above tol_rank * max(1, sigma_max)."""
    A = adjoint_matrix(spec, g)
    return _rank(np.linalg.svd(np.eye(len(A)) - A, compute_uv=False),
                 tol_rank)


def random_torsion_point(spec, n, rng):
    """Uniform torus point killed by n, from one ``rng.integers`` draw over
    the point count."""
    return torsion_point(spec, n, int(rng.integers(_indexable_count(spec, n))))


def random_torsion_element(spec, n, rng):
    """Random conjugate of a random torsion point: (matrix, point)."""
    point = random_torsion_point(spec, n, rng)
    h = random_element(spec, rng)
    return h @ point.matrix() @ group_inverse(spec, h), point


def circle_point_oracle(a, phi, branch):
    """(x, y, z, residual) of the point y = a^2 sin(phi),
    z = branch * a^2 (1 + cos(phi)) of the slice x = a, branch in
    {+1, -1}."""
    if branch not in (1, -1):
        raise ValueError("branch must be +1 or -1")
    y = a * a * np.sin(phi)
    z = branch * a * a * (1.0 + np.cos(phi))
    return (float(a), float(y), float(z), float(abs(surface_value(a, y, z))))


def tangent_outcome_oracle(g, Xm, times):
    """(errors, passed, error_ratios, derivative_norm) of the tangent check
    on one member g and algebra matrix Xm: one expm per sample time, one
    norm per step, the ratio test over consecutive steps as a loop."""
    D = Xm @ g - g @ Xm
    errors = [float(np.linalg.norm((expm(h * Xm) @ g @ expm(-h * Xm) - g)
                                   / h - D)) for h in times]
    passed, ratios = True, []
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
    return errors, passed, ratios, float(np.linalg.norm(D))


def conjugator_path_oracle(spec, h):
    """A function s -> H(s) with H(0) = I, H(1) = h, H(s) in G, one expm
    per call: h = exp(L) for a skew L read off h's eigenstructure
    (compact families), or h = k exp(p) with both factors moved linearly
    (SL(2,R))."""
    if spec.family in ("U", "SU"):
        Z, phases = _unitary_eigenstructure(h)
        theta = 2 * np.pi * phases
        theta = np.where(theta > np.pi, theta - 2 * np.pi, theta)
        if spec.family == "SU":
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


def connect_waypoints_oracle(spec, g1, g2, n, waypoints=20):
    """The waypoints of ``connect_within_component(spec, g1, g2, n,
    waypoints)`` for a same-class pair, s from 1 down to 1/(waypoints - 1):
    one call of the ``conjugator_path_oracle`` closure and one conjugation
    of g1 per waypoint."""
    Q1, _ = canonical_align(spec, g1, n)
    Q2, _ = canonical_align(spec, g2, n)
    path = conjugator_path_oracle(spec, Q2 @ group_inverse(spec, Q1))
    points = []
    for s in np.linspace(0.0, 1.0, waypoints)[1:][::-1]:
        H = path(float(s))
        points.append(H @ g1 @ group_inverse(spec, H))
    return points


def export_path_csv_oracle(sample, fileobj):
    """``curves.export_path_csv`` through ``csv.writer``, one ``repr`` per
    matrix entry (two for a complex entry)."""
    m = sample.spec.size
    is_c = sample.spec.family in ("U", "SU")
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
