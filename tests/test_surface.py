"""Checks for the model surface (y^2 + z^2)^2 = 4 x^4 z^2."""

import csv
import io

import numpy as np
import pytest

from torsion_orbits import surface
from torsion_orbits.surface import (_EXPORT_BLOCK, SurfacePoint, circle_point,
                                    export_points_csv, sample_surface,
                                    singular_locus_scan, surface_gradient,
                                    surface_value, tangent_cone_bound_check)


def fd_gradient(x, y, z, h=1e-6):
    # central differences, independent of the closed form
    out = np.empty(3)
    for i, (dx, dy, dz) in enumerate(((h, 0, 0), (0, h, 0), (0, 0, h))):
        out[i] = (surface_value(x + dx, y + dy, z + dz)
                  - surface_value(x - dx, y - dy, z - dz)) / (2 * h)
    return out


def test_value_and_gradient_hand_point():
    assert surface_value(1.0, 0.0, 2.0) == 0.0
    assert np.array_equal(surface_gradient(1.0, 0.0, 2.0),
                          np.array([-64.0, 0.0, 16.0]))


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    for _ in range(50):
        x, y, z = rng.uniform(-2, 2, size=3)
        g = surface_gradient(x, y, z)
        assert np.linalg.norm(g - fd_gradient(x, y, z)) < 1e-4 * max(
            1.0, np.linalg.norm(g))


def test_circle_points_lie_on_surface():
    rng = np.random.default_rng(12)
    for _ in range(100):
        a = rng.uniform(0.2, 1.8)
        phi = rng.uniform(0, 2 * np.pi)
        p = circle_point(a, phi, 1 if rng.integers(2) else -1)
        assert p.residual < 1e-11
        assert abs(surface_value(p.x, p.y, p.z)) == p.residual


def test_circle_point_validation_and_tangency():
    with pytest.raises(ValueError):
        circle_point(1.0, 0.0, 0)
    p = circle_point(1.0, np.pi, 1)  # both branches meet the axis here
    assert p.x == 1.0
    assert abs(p.y) < 1e-15
    assert p.z == 0.0
    q = circle_point(1.0, 0.0, 1)
    assert (q.x, q.y, q.z) == (1.0, 0.0, 2.0)


def test_sample_surface_deterministic_and_in_range():
    pts = sample_surface((0.5, 1.5), 200, seed=3)
    again = sample_surface((0.5, 1.5), 200, seed=3)
    assert len(pts) == 200
    assert all(p.x == q.x and p.y == q.y and p.z == q.z
               for p, q in zip(pts, again))
    assert all(0.5 <= p.x <= 1.5 for p in pts)
    assert max(p.residual for p in pts) < 1e-11
    assert {1.0, -1.0} == {np.sign(p.z) for p in pts if abs(p.z) > 0.1}


def test_sample_surface_validation():
    with pytest.raises(ValueError):
        sample_surface((1.0, 0.5), 10, seed=0)
    with pytest.raises(ValueError):
        sample_surface((0.5, 1.5), 0, seed=0)
    with pytest.raises(ValueError):
        sample_surface((0.0, np.inf), 10, seed=0)


def test_tangent_cone_bound_on_samples():
    pts = sample_surface((0.1, 2.0), 5000, seed=4)
    rep = tangent_cone_bound_check(pts)
    assert rep.passed
    assert rep.check == "tangent-cone-bound"
    # phi = 0 attains equality: sqrt(y^2+z^2) = 2 x^2 exactly
    eq = tangent_cone_bound_check([circle_point(1.3, 0.0, -1)])
    assert eq.passed
    assert eq.details["worst_excess"] == pytest.approx(0.0, abs=1e-12)


def test_tangent_cone_bound_fails_off_surface():
    bad = SurfacePoint(1.0, 0.0, 3.0, 0.0)  # fabricated, violates the cone
    rep = tangent_cone_bound_check([bad], slack=1e-9)
    assert not rep.passed
    assert rep.worst_residual == pytest.approx(1.0)
    with pytest.raises(ValueError):
        tangent_cone_bound_check([])


def test_singular_locus_scan_passes_off_band():
    axis = np.linspace(-2.0, 2.0, 100)
    rng = np.random.default_rng(5)
    pts = [circle_point(a, phi, 1)
           for a, phi in zip(rng.uniform(0.5, 1.5, 100),
                             np.pi + rng.uniform(0.25, np.pi - 0.25, 100)
                             * np.where(rng.integers(0, 2, 100) == 0, 1, -1))]
    rep = singular_locus_scan(axis, pts)
    assert rep.passed
    assert rep.details["axis_worst_grad"] == 0.0  # every term carries y or z
    assert rep.details["circle_min_grad"] > 1e-3


def test_singular_locus_scan_fails_near_tangency():
    # points hugging phi = pi sit arbitrarily close to the singular axis
    pts = [circle_point(1.0, np.pi + 1e-9, 1)]
    rep = singular_locus_scan(np.array([1.0]), pts)
    assert not rep.passed
    assert rep.details["circle_min_grad"] < 1e-6
    with pytest.raises(ValueError):
        singular_locus_scan(np.array([]), pts)
    with pytest.raises(ValueError):
        singular_locus_scan(np.array([1.0]), [])


def test_export_points_csv_round_trip():
    pts = sample_surface((0.5, 1.5), 7, seed=6)
    buf = io.StringIO()
    export_points_csv(pts, buf)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert rows[0] == ["x", "y", "z", "residual", "grad_norm"]
    assert len(rows) == 8
    for row, p in zip(rows[1:], pts):
        assert float(row[0]) == p.x  # repr() keeps full precision
        assert float(row[3]) == p.residual
        assert float(row[4]) == np.linalg.norm(
            surface_gradient(p.x, p.y, p.z))


def _oracle_csv(points):
    # one csv.writer row and one per-point norm for each point, the
    # export's unblocked definition
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["x", "y", "z", "residual", "grad_norm"])
    for p in points:
        gn = float(np.linalg.norm(surface_gradient(p.x, p.y, p.z)))
        writer.writerow([repr(p.x), repr(p.y), repr(p.z),
                         repr(p.residual), repr(gn)])
    return buf.getvalue()


def _exported_rows(points):
    # the export's data rows, checked against the per-point oracle: the
    # same text, and every grad_norm equal to the per-point norm's bits
    buf = io.StringIO()
    export_points_csv(points, buf)
    assert buf.getvalue() == _oracle_csv(points)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))[1:]
    for row, p in zip(rows, points, strict=True):
        assert float(row[4]) == float(np.linalg.norm(
            surface_gradient(p.x, p.y, p.z)))
    return rows


@pytest.mark.parametrize("count", [0, 1, _EXPORT_BLOCK - 1, _EXPORT_BLOCK,
                                   _EXPORT_BLOCK + 1])
def test_export_blocks_match_per_point_norms(count, monkeypatch):
    pts = sample_surface((0.1, 2.0), count, seed=8) if count else []
    calls = []
    monkeypatch.setattr(surface, "surface_gradient",
                        lambda *xyz: calls.append(1) or surface_gradient(*xyz))
    assert len(_exported_rows(pts)) == count
    assert len(calls) == -(-count // _EXPORT_BLOCK)  # one call per block


def test_export_zero_gradients_and_the_axis():
    # a range starting at 0 reaches the origin, where the gradient is 0;
    # the forced tangency point has z = 0 and a gradient of ~1e-47
    pts = (sample_surface((0.0, 0.0), 3, seed=9)
           + sample_surface((0.0, 0.5), 200, seed=9)
           + [circle_point(1.0, np.pi, 1), circle_point(1.3, 0.0, -1)])
    rows = _exported_rows(pts)
    assert [float(r[4]) for r in rows[:3]] == [0.0, 0.0, 0.0]
