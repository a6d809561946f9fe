"""The surface (y^2 + z^2)^2 = 4 x^4 z^2 and its singular x-axis.

Each slice x = a of the vanishing set is a pair of circles of radius a^2 in
the (y, z) plane, centered at z = +-a^2 and tangent at the origin of the
slice, so the whole surface is a union of smooth curves.  The gradient of
the defining polynomial nevertheless vanishes along the entire x-axis,
which is what these checks exercise: smooth-curve structure away from the
axis, gradient exactly zero on it, and the tangent-cone inequality
sqrt(y^2 + z^2) <= 2 x^2 everywhere on the surface.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .reports import VerificationReport, single_trial_report

#: Rows per block of the CSV export: one gradient call and one write each.
_EXPORT_BLOCK = 4096


@dataclass
class SurfacePoint:
    x: float
    y: float
    z: float
    residual: float  # |F(x, y, z)| at construction time


def _coords(points: list[SurfacePoint]):
    """The x, y and z of ``points`` as three float arrays."""
    return (np.array([p.x for p in points], dtype=float),
            np.array([p.y for p in points], dtype=float),
            np.array([p.z for p in points], dtype=float))


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


def circle_point(a: float, phi: float, branch: int) -> SurfacePoint:
    """Point of the slice x = a: y = a^2 sin(phi), z = branch * a^2 (1 + cos(phi))
    with branch in {+1, -1}.  Lies on the surface exactly."""
    if branch not in (1, -1):
        raise ValueError("branch must be +1 or -1")
    y = a * a * np.sin(phi)
    z = branch * a * a * (1.0 + np.cos(phi))
    return SurfacePoint(float(a), float(y), float(z),
                        float(abs(surface_value(a, y, z))))


def sample_surface(a_range: tuple[float, float], count: int,
                   seed: int) -> list[SurfacePoint]:
    """Seeded sample of surface points: a uniform in a_range, phi uniform in
    [0, 2 pi), branch uniform in {+1, -1}."""
    lo, hi = float(a_range[0]), float(a_range[1])
    if not (np.isfinite(lo) and np.isfinite(hi)) or hi < lo:
        raise ValueError("a_range must be a finite (lo, hi) with lo <= hi")
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    a = rng.uniform(lo, hi, size=count)
    phi = rng.uniform(0.0, 2.0 * np.pi, size=count)
    branch = np.where(rng.integers(0, 2, size=count) == 0, 1.0, -1.0)
    y = a * a * np.sin(phi)
    z = branch * a * a * (1.0 + np.cos(phi))
    res = np.abs(surface_value(a, y, z))
    return [SurfacePoint(float(ai), float(yi), float(zi), float(ri))
            for ai, yi, zi, ri in zip(a, y, z, res)]


def tangent_cone_bound_check(points: list[SurfacePoint],
                             slack: float = 1e-9) -> VerificationReport:
    """sqrt(y^2 + z^2) <= 2 x^2 + slack for every sampled surface point.

    On the surface y^2 + z^2 = 2 x^2 |z| <= 2 x^2 sqrt(y^2 + z^2), which
    forces the bound; it pins the tangent cone at the axis to the plane
    field |slope| <= 2."""
    t0 = time.perf_counter()
    if not points:
        raise ValueError("no points supplied")
    xs, ys, zs = _coords(points)
    excess = np.sqrt(ys * ys + zs * zs) - 2.0 * xs * xs
    worst = float(excess.max())
    passed = worst <= slack
    return single_trial_report(
        "tangent-cone-bound", {"points": len(points)},
        {"worst_excess": worst}, passed, config={"slack": slack},
        details={"worst_excess": worst},
        wall_time_s=time.perf_counter() - t0, worst_residual=max(worst, 0.0))


def singular_locus_scan(axis_x, points: list[SurfacePoint],
                        tol_grad: float = 1e-6) -> VerificationReport:
    """Gradient census: vanishes on the x-axis, not on off-axis circle points.

    ``axis_x`` is a grid of x values scanned at y = z = 0 (the gradient
    there is identically zero, every component carries a factor of y or z);
    ``points`` should stay off the tangency band (|z| not tiny), where the
    x-component -16 x^3 z^2 keeps the gradient above tol_grad.
    """
    t0 = time.perf_counter()
    axis_x = np.asarray(axis_x, dtype=float)
    if axis_x.size == 0 or not points:
        raise ValueError("need both axis points and surface points")
    axis_norms = np.linalg.norm(
        surface_gradient(axis_x, np.zeros_like(axis_x), np.zeros_like(axis_x)),
        axis=-1)
    circle_norms = np.linalg.norm(surface_gradient(*_coords(points)), axis=-1)
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


def export_points_csv(points: list[SurfacePoint], fileobj) -> None:
    """Point cloud as CSV: x, y, z, residual, grad_norm.

    Full-precision ``repr`` floats, written ``_EXPORT_BLOCK`` rows at a time
    with one gradient call per block.  ``sqrt(vecdot(g, g))`` runs the same
    dot kernel as ``np.linalg.norm`` of one gradient, so each grad_norm has
    the bits of the per-point norm (``norm(axis=-1)`` and ``einsum`` do not).
    """
    fileobj.write("x,y,z,residual,grad_norm\n")
    for start in range(0, len(points), _EXPORT_BLOCK):
        block = points[start:start + _EXPORT_BLOCK]
        g = surface_gradient(*_coords(block))
        norms = np.sqrt(np.vecdot(g, g)).tolist()
        fileobj.write("".join(
            f"{p.x!r},{p.y!r},{p.z!r},{p.residual!r},{gn!r}\n"
            for p, gn in zip(block, norms)))
