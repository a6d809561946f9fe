"""The surface (y^2 + z^2)^2 = 4 x^4 z^2 and its singular x-axis.

Each slice x = a of the vanishing set is a pair of circles of radius a^2 in
the (y, z) plane, centered at z = +-a^2 and tangent at the origin of the
slice, so the whole surface is a union of smooth curves.  The gradient of
the defining polynomial nevertheless vanishes along the entire x-axis,
which is what these checks exercise: smooth-curve structure away from the
axis, gradient exactly zero on it, and the tangent-cone inequality
sqrt(y^2 + z^2) <= 2 x^2 everywhere on the surface.

A point cloud is one float array of shape (N, 4) with columns x, y, z and
residual = |F(x, y, z)|.  ``circle_points`` is the one parametrization that
makes such rows; every function here takes the array as it is, from the
draw to the CSV.  ``_points_csv`` adds the gradient norms, from one
array call, and yields the header and then the passes of
``reports._float_csv``, which prints every float as ``repr`` does; it
refuses a cloud that is not (N, 4) or not finite before its first piece,
so ``export_points_csv`` and the demo-surface CLI, which write its
pieces, write nothing for a refused cloud.  The two checks take a cloud
of 3 or 4 columns (the residual column is not read) and refuse, with
ValueError, another shape or a coordinate that is not finite before they
compute, and a value that overflows before they decide.
"""

from __future__ import annotations

import time

import numpy as np

from .groups import positive_int
from .reports import VerificationReport, _float_csv, single_trial_report

_OVERFLOW = ("surface point overflows float64: a coordinate, residual or "
             "gradient norm is not finite")


def surface_value(x, y, z):
    """F(x, y, z) = (y^2 + z^2)^2 - 4 x^4 z^2 (vectorized)."""
    x, y, z = np.asarray(x, float), np.asarray(y, float), np.asarray(z, float)
    s = y * y + z * z
    return s * s - 4.0 * x ** 4 * z * z


def surface_gradient(x, y, z):
    """grad F = (-16 x^3 z^2, 4 y (y^2+z^2), 4 z (y^2+z^2) - 8 x^4 z)."""
    x, y, z = np.asarray(x, float), np.asarray(y, float), np.asarray(z, float)
    s = y * y + z * z
    return np.stack([-16.0 * x ** 3 * z * z,
                     4.0 * y * s,
                     4.0 * z * s - 8.0 * x ** 4 * z], axis=-1)


def circle_points(a, phi, branch) -> np.ndarray:
    """Cloud of the points of the slices x = a: y = a^2 sin(phi),
    z = branch * a^2 (1 + cos(phi)) with branch in {+1, -1}, the arguments
    broadcast against each other.  Each lies on the surface exactly.

    Raises ValueError for another branch, and for a row value or gradient
    norm that is not finite: a check on an overflowed point decides on the
    overflow, not on the surface."""
    a, phi, branch = np.broadcast_arrays(*(np.asarray(v, dtype=float)
                                           for v in (a, phi, branch)))
    if np.any(np.abs(branch) != 1):
        raise ValueError("branch must be +1 or -1")
    with np.errstate(over="ignore", invalid="ignore"):
        y = a * a * np.sin(phi)
        z = branch * a * a * (1.0 + np.cos(phi))
        rows = np.stack([a, y, z, np.abs(surface_value(a, y, z))],
                        axis=-1).reshape(-1, 4)
        g = surface_gradient(a, y, z)
        finite = np.isfinite(rows).all() and np.isfinite(np.vecdot(g, g)).all()
    if not finite:
        raise ValueError(_OVERFLOW)
    return rows


def sample_surface(a_range: tuple[float, float], count: int,
                   seed: int) -> np.ndarray:
    """Seeded cloud of surface points: a uniform in a_range, phi uniform in
    [0, 2 pi), branch uniform in {+1, -1}."""
    lo, hi = float(a_range[0]), float(a_range[1])
    if not (np.isfinite(lo) and np.isfinite(hi)) or hi < lo:
        raise ValueError("a_range must be a finite (lo, hi) with lo <= hi")
    count = positive_int(count, "count")
    rng = np.random.default_rng(seed)
    a = rng.uniform(lo, hi, size=count)
    phi = rng.uniform(0.0, 2.0 * np.pi, size=count)
    branch = np.where(rng.integers(0, 2, size=count) == 0, 1.0, -1.0)
    return circle_points(a, phi, branch)


def _coordinates(points: np.ndarray) -> np.ndarray:
    """The x, y, z columns of a cloud of 3 or 4 columns.

    Raises ValueError for another shape and for a coordinate that is not
    finite."""
    if points.ndim != 2 or points.shape[1] not in (3, 4):
        raise ValueError(f"points must be an (N, 3) or (N, 4) cloud, got "
                         f"shape {points.shape}")
    coordinates = points[:, :3]
    if not np.isfinite(coordinates).all():
        raise ValueError("a point coordinate is not finite")
    return coordinates


def tangent_cone_bound_check(points, slack: float = 1e-9) -> VerificationReport:
    """sqrt(y^2 + z^2) <= 2 x^2 + slack for every point of the cloud.

    On the surface y^2 + z^2 = 2 x^2 |z| <= 2 x^2 sqrt(y^2 + z^2), which
    forces the bound; it pins the tangent cone at the axis to the plane
    field |slope| <= 2."""
    t0 = time.perf_counter()
    points = np.asarray(points, dtype=float)
    if len(points) == 0:
        raise ValueError("no points supplied")
    xs, ys, zs = _coordinates(points).T
    with np.errstate(over="ignore", invalid="ignore"):
        excess = np.sqrt(ys * ys + zs * zs) - 2.0 * xs * xs
    if not np.isfinite(excess).all():
        raise ValueError(_OVERFLOW)
    worst = float(excess.max())
    passed = worst <= slack
    return single_trial_report(
        "tangent-cone-bound", {"points": len(points)},
        {"worst_excess": worst}, passed, config={"slack": slack},
        details={"worst_excess": worst},
        wall_time_s=time.perf_counter() - t0, worst_residual=max(worst, 0.0))


def singular_locus_scan(axis_x, points,
                        tol_grad: float = 1e-6) -> VerificationReport:
    """Gradient census: vanishes on the x-axis, not on off-axis circle points.

    ``axis_x`` is a grid of x values scanned at y = z = 0 (the gradient
    there is identically zero, every component carries a factor of y or z);
    the cloud ``points`` should stay off the tangency band (|z| not tiny),
    where the x-component -16 x^3 z^2 keeps the gradient above tol_grad.
    """
    t0 = time.perf_counter()
    axis_x = np.asarray(axis_x, dtype=float)
    points = np.asarray(points, dtype=float)
    if axis_x.size == 0 or len(points) == 0:
        raise ValueError("need both axis points and surface points")
    coordinates = _coordinates(points)
    if not np.isfinite(axis_x).all():
        raise ValueError("an axis_x value is not finite")
    with np.errstate(over="ignore", invalid="ignore"):
        axis_norms = np.linalg.norm(
            surface_gradient(axis_x, np.zeros_like(axis_x),
                             np.zeros_like(axis_x)), axis=-1)
        circle_norms = np.linalg.norm(surface_gradient(*coordinates.T),
                                      axis=-1)
    if not (np.isfinite(axis_norms).all() and np.isfinite(circle_norms).all()):
        raise ValueError(_OVERFLOW)
    axis_worst = float(axis_norms.max())
    circle_min = float(circle_norms.min())
    passed = axis_worst <= tol_grad < circle_min
    return single_trial_report(
        "singular-locus", {"axis_points": int(axis_x.size),
                           "circle_points": len(points)},
        {"axis_worst_grad": axis_worst}, passed,
        config={"tol_grad": tol_grad},
        details={"axis_worst_grad": axis_worst, "circle_min_grad": circle_min},
        wall_time_s=time.perf_counter() - t0, worst_residual=axis_worst)


def export_points_csv(points, fileobj) -> None:
    """Point cloud as CSV: x, y, z, residual, grad_norm.

    Full-precision floats, as ``repr`` prints them: the pieces of
    ``_points_csv`` written in order.  Raises ValueError, before anything
    is written, for a cloud that is not of shape (N, 4), and for a value
    or gradient norm that is not finite, as ``circle_points`` does.  An
    empty cloud writes the header alone."""
    fileobj.writelines(_points_csv(points))


def _points_csv(points):
    """The text of ``export_points_csv``: the header, then one piece per
    pass of ``reports._float_csv``.  The cloud is checked before the
    header is made, so a refused cloud yields nothing.  The gradient norms
    come from one array call, and ``sqrt(vecdot(g, g))`` runs the same dot
    kernel as ``np.linalg.norm`` of one gradient, so each grad_norm has
    the bits of the per-point norm (``norm(axis=-1)`` and ``einsum`` do
    not)."""
    points = np.asarray(points, dtype=float)
    if points.shape == (0,):
        points = points.reshape(0, 4)
    if points.ndim != 2 or points.shape[1] != 4:
        raise ValueError(f"points must be an (N, 4) cloud, got shape "
                         f"{points.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        g = surface_gradient(*points[:, :3].T)
        norms = np.sqrt(np.vecdot(g, g))
    if not (np.isfinite(points).all() and np.isfinite(norms).all()):
        raise ValueError(_OVERFLOW)
    yield "x,y,z,residual,grad_norm\n"
    yield from _float_csv(np.column_stack([points, norms]))
