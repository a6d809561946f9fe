"""Checks for the model surface (y^2 + z^2)^2 = 4 x^4 z^2."""

import csv
import io
import warnings

import numpy as np
import pytest

from stack_oracles import circle_point_oracle
from torsion_orbits import cli, surface
from torsion_orbits.surface import (circle_points,
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
        x, y, z, residual = circle_points(
            a, phi, 1 if rng.integers(2) else -1)[0]
        assert residual < 1e-11
        assert abs(surface_value(x, y, z)) == residual


def test_circle_point_validation_and_tangency():
    with pytest.raises(ValueError):
        circle_points(1.0, 0.0, 0)
    # both branches meet the axis here
    x, y, z, _ = circle_points(1.0, np.pi, 1)[0]
    assert x == 1.0
    assert abs(y) < 1e-15
    assert z == 0.0
    q = circle_points(1.0, 0.0, 1)[0]
    assert tuple(q[:3]) == (1.0, 0.0, 2.0)


def test_sample_surface_deterministic_and_in_range():
    pts = sample_surface((0.5, 1.5), 200, seed=3)
    again = sample_surface((0.5, 1.5), 200, seed=3)
    assert len(pts) == 200
    assert (pts[:, :3] == again[:, :3]).all()
    assert ((0.5 <= pts[:, 0]) & (pts[:, 0] <= 1.5)).all()
    assert pts[:, 3].max() < 1e-11
    z = pts[:, 2]
    assert {1.0, -1.0} == set(np.sign(z[np.abs(z) > 0.1]))


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
    eq = tangent_cone_bound_check(circle_points(1.3, 0.0, -1))
    assert eq.passed
    assert eq.details["worst_excess"] == pytest.approx(0.0, abs=1e-12)


def test_tangent_cone_bound_fails_off_surface():
    bad = np.array([[1.0, 0.0, 3.0, 0.0]])  # fabricated, violates the cone
    rep = tangent_cone_bound_check(bad, slack=1e-9)
    assert not rep.passed
    assert rep.worst_residual == pytest.approx(1.0)
    with pytest.raises(ValueError):
        tangent_cone_bound_check([])
    with pytest.raises(ValueError):
        tangent_cone_bound_check(np.empty((0, 4)))


def test_singular_locus_scan_passes_off_band():
    axis = np.linspace(-2.0, 2.0, 100)
    rng = np.random.default_rng(5)
    pts = circle_points(rng.uniform(0.5, 1.5, 100),
                        np.pi + rng.uniform(0.25, np.pi - 0.25, 100)
                        * np.where(rng.integers(0, 2, 100) == 0, 1, -1), 1)
    rep = singular_locus_scan(axis, pts)
    assert rep.passed
    assert rep.details["axis_worst_grad"] == 0.0  # every term carries y or z
    assert rep.details["circle_min_grad"] > 1e-3


def test_singular_locus_scan_fails_near_tangency():
    # points hugging phi = pi sit arbitrarily close to the singular axis
    pts = circle_points(1.0, np.pi + 1e-9, 1)
    rep = singular_locus_scan(np.array([1.0]), pts)
    assert not rep.passed
    assert rep.details["circle_min_grad"] < 1e-6
    with pytest.raises(ValueError):
        singular_locus_scan(np.array([]), pts)
    with pytest.raises(ValueError):
        singular_locus_scan(np.array([1.0]), [])
    with pytest.raises(ValueError):
        singular_locus_scan(np.array([1.0]), np.empty((0, 4)))


def _no_gradient(*args):
    raise AssertionError("the check computed a gradient of bad input")


CHECKS = {
    "tangent-cone": lambda pts, axis=(1.0,): tangent_cone_bound_check(pts),
    "singular-locus": lambda pts, axis=(1.0,): singular_locus_scan(axis, pts),
}


@pytest.mark.parametrize("check", sorted(CHECKS))
@pytest.mark.parametrize("points", [
    np.ones(4), np.ones((2, 2)), np.ones((2, 5)), np.ones((2, 2, 4)),
    [[1.0, 0.0]]], ids=["1-d", "2-col", "5-col", "3-d", "list"])
def test_checks_refuse_a_cloud_of_the_wrong_shape(check, points,
                                                  monkeypatch):
    # tangent_cone_bound_check(np.ones(4)) raised IndexError, and
    # singular_locus_scan([1.0], np.ones((2, 2))) TypeError
    monkeypatch.setattr(surface, "surface_gradient", _no_gradient)
    with pytest.raises(ValueError, match=r"\(N, 3\) or \(N, 4\) cloud"):
        CHECKS[check](points)


@pytest.mark.parametrize("check", sorted(CHECKS))
@pytest.mark.parametrize("bad", [[1.0, np.nan, 0.0, 0.0],
                                 [np.inf, 0.0, 0.0, 0.0],
                                 [1.0, 0.0, -np.inf]])
def test_checks_refuse_a_non_finite_coordinate(check, bad, monkeypatch):
    # a NaN row gave a FAIL with worst_residual nan
    points = [[1.0, 0.0, 2.0, 0.0][:len(bad)], bad]
    monkeypatch.setattr(surface, "surface_gradient", _no_gradient)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="coordinate is not finite"):
            CHECKS[check](points)


@pytest.mark.parametrize("axis", [[0.0, np.nan], [np.inf], [[1.0, -np.inf]]])
def test_singular_locus_scan_refuses_a_non_finite_axis_value(axis,
                                                             monkeypatch):
    points = circle_points(1.0, 0.5, 1)
    monkeypatch.setattr(surface, "surface_gradient", _no_gradient)
    with pytest.raises(ValueError, match="axis_x value is not finite"):
        singular_locus_scan(axis, points)


@pytest.mark.parametrize("check, points, axis", [
    ("tangent-cone", [[1e200, 1e200, 1e200, 0.0]], [1.0]),
    ("singular-locus", [[1e200, 1e200, 1e200, 0.0]], [1.0]),
    ("singular-locus", [[1.0, 0.0, 2.0, 0.0]], [1e110])])
def test_checks_refuse_an_overflow(check, points, axis):
    # a finite input whose excess or gradient norm overflows would be
    # judged on the overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflows"):
            CHECKS[check](points, axis)


def test_checks_take_three_columns_as_four():
    pts = sample_surface((0.1, 2.0), 200, seed=8)
    axis = np.linspace(-2.0, 2.0, 7)
    for check in CHECKS.values():
        full, xyz = check(pts, axis), check(pts[:, :3], axis)
        assert (full.passed, full.details) == (xyz.passed, xyz.details)


def test_export_points_csv_round_trip():
    pts = sample_surface((0.5, 1.5), 7, seed=6)
    buf = io.StringIO()
    export_points_csv(pts, buf)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert rows[0] == ["x", "y", "z", "residual", "grad_norm"]
    assert len(rows) == 8
    for row, (x, y, z, residual) in zip(rows[1:], pts):
        assert float(row[0]) == x  # repr() keeps full precision
        assert float(row[3]) == residual
        assert float(row[4]) == np.linalg.norm(surface_gradient(x, y, z))


def _oracle_csv(points):
    # one csv.writer row and one per-point norm for each point, the
    # export's unblocked definition
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["x", "y", "z", "residual", "grad_norm"])
    for x, y, z, residual in np.asarray(points).tolist():
        gn = float(np.linalg.norm(surface_gradient(x, y, z)))
        writer.writerow([repr(x), repr(y), repr(z),
                         repr(residual), repr(gn)])
    return buf.getvalue()


def _exported_rows(points):
    # the export's data rows, checked against the per-point oracle: the
    # same text, and every grad_norm equal to the per-point norm's bits
    buf = io.StringIO()
    export_points_csv(points, buf)
    assert buf.getvalue() == _oracle_csv(points)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))[1:]
    for row, (x, y, z, _) in zip(rows, np.asarray(points).tolist(),
                                 strict=True):
        assert float(row[4]) == float(np.linalg.norm(
            surface_gradient(x, y, z)))
    return rows


@pytest.mark.parametrize("count", [0, 1, 4095, 4096, 4097])
def test_export_blocks_match_per_point_norms(count):
    # the sizes around 4,096 rows, the block of an earlier per-block export
    pts = sample_surface((0.1, 2.0), count, seed=8) if count else []
    assert len(_exported_rows(pts)) == count


def test_export_zero_gradients_and_the_axis():
    # a range starting at 0 reaches the origin, where the gradient is 0;
    # the forced tangency point has z = 0 and a gradient of ~1e-47
    pts = np.vstack([sample_surface((0.0, 0.0), 3, seed=9),
                     sample_surface((0.0, 0.5), 200, seed=9),
                     circle_points(1.0, np.pi, 1),
                     circle_points(1.3, 0.0, -1)])
    rows = _exported_rows(pts)
    assert [float(r[4]) for r in rows[:3]] == [0.0, 0.0, 0.0]


def test_circle_points_match_the_scalar_oracle():
    # ~1,000 rows, bit for bit: random slices and angles on both branches,
    # plus the tangency angle phi = pi, the origin a = 0 and phi = 0
    rng = np.random.default_rng(13)
    a = np.concatenate([rng.uniform(-2.0, 2.0, 960), [0.0] * 20,
                        rng.uniform(0.1, 2.0, 20)])
    phi = np.concatenate([rng.uniform(0.0, 2.0 * np.pi, 960),
                          rng.uniform(0.0, 2.0 * np.pi, 10), [np.pi] * 10,
                          [np.pi] * 10, [0.0] * 10])
    branch = np.where(rng.integers(0, 2, len(a)) == 0, 1, -1)
    want = np.array([circle_point_oracle(float(ai), float(pi), int(bi))
                     for ai, pi, bi in zip(a, phi, branch)])
    got = circle_points(a, phi, branch)
    assert got.shape == (len(a), 4)
    assert {1, -1} == set(branch[phi == np.pi])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_circle_points_broadcast_to_rows():
    assert circle_points(1.0, 0.0, 1).shape == (1, 4)
    rows = circle_points(1.5, [0.0, 1.0, np.pi], [1, -1, 1])
    assert rows.shape == (3, 4)
    assert (rows[:, 0] == 1.5).all()
    assert np.array_equal(rows[1], circle_points(1.5, 1.0, -1)[0])
    for branch in (0, 2, 0.5, np.nan, [1, -1, 0]):
        with pytest.raises(ValueError, match="branch"):
            circle_points(1.0, [0.0, 1.0, 2.0], branch)


@pytest.mark.parametrize("a", [1e22, 1e39, 1e200, -1e200])
def test_circle_points_refuse_an_overflow(a):
    # |grad F| grows like a^7 and its square overflows above a ~ 6e21; F
    # itself turns inf - inf = nan near 1e39; y and z overflow near 1e154
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflows"):
            circle_points(a, 1.0, 1)
        with pytest.raises(ValueError, match="overflows"):
            sample_surface((a, a), 2, seed=0)
    assert circle_points(6e21, 1.0, 1)[0, 0] == 6e21  # the last finite scale


@pytest.mark.parametrize("points", [
    np.ones((3, 3)), np.ones(4), np.ones((2, 5)), np.ones((2, 2, 4)),
    np.empty((0, 3))], ids=["N-by-3", "1-D", "N-by-5", "3-D", "empty 0-by-3"])
def test_export_refuses_a_cloud_that_is_not_n_by_4(points):
    buf = io.StringIO()
    with pytest.raises(ValueError, match=r"\(N, 4\) cloud"):
        export_points_csv(points, buf)
    assert buf.getvalue() == ""


@pytest.mark.parametrize("bad", [
    [1e200, 1e200, 1e200, 0.0],   # the gradient norm overflows
    [1e22, 0.0, 2e44, 0.0],       # the gradient overflows, the row does not
    [1.0, np.nan, 0.0, 0.0],
    [1.0, 0.0, 0.0, np.inf]])
def test_export_refuses_a_non_finite_row_before_writing(bad):
    # the bad row comes after four passes of the float writer, so a writer
    # that checks as it goes would already have written them
    points = np.vstack([sample_surface((0.5, 1.5), 4096, seed=1),
                        [bad]])
    buf = io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflows"):
            export_points_csv(points, buf)
    assert buf.getvalue() == ""


def test_a_refused_cloud_opens_no_output_file(tmp_path):
    # the demo-surface CSV goes through the CLI's one writer, which makes
    # the first piece, and so checks the cloud, before it opens the file
    path = tmp_path / "cloud.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflows"):
            cli._write_blocks(str(path), surface._points_csv(
                [[1.0, 0.0, 0.0, 0.0], [1.0, np.nan, 0.0, 0.0]]))
    assert not path.exists()


def test_export_of_an_empty_cloud_is_the_header():
    for points in ([], np.empty((0, 4))):
        buf = io.StringIO()
        export_points_csv(points, buf)
        assert buf.getvalue() == "x,y,z,residual,grad_norm\n"


@pytest.mark.parametrize("a, phi, printed", [
    ("3e-162", "2", ["1e-323", "5e-324"]),    # one-digit subnormals
    ("1e-161", "1", ["8.4e-323", "1.53e-322"]),
    ("1e21", "1", ["1e+21", "3.796049909540334e+148"])])
def test_cli_surface_rows_print_what_repr_prints(a, phi, printed, capsys):
    # rows that reach the printer's special cases, through the CLI, against
    # the per-point csv.writer oracle
    assert cli.main(["demo-surface", "--a", a, "--phi", phi,
                     "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out == _oracle_csv(circle_points(float(a), float(phi), 1))
    assert all(text in out.split("\n")[1].split(",") for text in printed)
