"""Grid bookkeeping and the two on-disk forms (F64GRID text, PGM preview)."""

import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from funkradon import Grid, ScalarField, read_f64grid, write_f64grid
from funkradon.fields import write_pgm


def test_centered_grid():
    g = Grid.centered(129, 0.64)
    assert g.nx == g.ny == 129
    assert g.h == pytest.approx(0.01)
    assert g.xs[0] == pytest.approx(-0.64)
    assert g.xs[-1] == pytest.approx(0.64)
    off = Grid.centered(65, 0.32, center=(0.55, 0.0))
    assert off.xs[32] == pytest.approx(0.55)
    assert off.ys[32] == pytest.approx(0.0)


def test_points_layout():
    g = Grid(3, 2, 1.0, 10.0, 0.5)
    pts = g.points()
    assert pts.shape == (3, 2, 2)
    assert_allclose(pts[2, 1], (2.0, 10.5))
    assert_allclose(pts[0, 0], (1.0, 10.0))


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(0, 5, 0.0, 0.0, 0.1)
    with pytest.raises(ValueError):
        Grid(5, 5, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        Grid.centered(1, 0.5)


def test_field_shape_checked():
    g = Grid(3, 4, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="shape"):
        ScalarField(g, np.zeros((4, 3)))


def test_error_metrics():
    g = Grid(2, 2, 0.0, 0.0, 1.0)
    ref = ScalarField(g, [[3.0, 0.0], [0.0, 4.0]])
    same = ScalarField(g, ref.values.copy())
    assert ref.rel_l2(same) == 0.0
    shifted = ScalarField(g, ref.values + 1.0)
    assert shifted.rel_l2(ref) == pytest.approx(2.0 / 5.0)
    assert shifted.linf(ref) == pytest.approx(1.0)
    other = ScalarField(Grid(2, 2, 1.0, 0.0, 1.0), ref.values)
    with pytest.raises(ValueError, match="different grids"):
        ref.rel_l2(other)
    zero = ScalarField(g, np.zeros((2, 2)))
    with pytest.raises(ValueError, match="zero"):
        ref.rel_l2(zero)


def test_f64grid_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(12)
    g = Grid(7, 5, -0.638, 0.11, 0.0473)
    vals = rng.standard_normal((7, 5)) * np.exp(rng.uniform(-300, 20, (7, 5)))
    vals[0, 0] = np.pi
    vals[1, 1] = -0.0
    vals[2, 2] = 1e-317  # subnormal
    f = ScalarField(g, vals)
    p = tmp_path / "field.f64grid"
    write_f64grid(p, f)
    back = read_f64grid(p)
    assert back.grid == g
    assert back.values.tobytes() == f.values.tobytes()


def test_f64grid_rejects_malformed(tmp_path):
    p = tmp_path / "bad"
    p.write_text("NOTAGRID 1 1 0 0 1\n0\n")
    with pytest.raises(ValueError, match="not an F64GRID"):
        read_f64grid(p)
    p.write_text("F64GRID 2 1 0.0 0.0\n0 0\n")
    with pytest.raises(ValueError, match="header"):
        read_f64grid(p)
    p.write_text("F64GRID 2 2 0.0 0.0 1.0\n0 0\n")
    with pytest.raises(ValueError, match="rows"):
        read_f64grid(p)
    p.write_text("F64GRID 2 2 0.0 0.0 1.0\n0 0\n0 0 0\n")
    with pytest.raises(ValueError, match="row 1"):
        read_f64grid(p)


AWKWARD = (5e-324, -0.0, 1e308, 0.1 + 0.2, 2.2250738585072014e-308, -1.7976931348623157e308)


def test_f64grid_bytes_match_the_per_value_repr_form(tmp_path):
    g = Grid(3, 2, -0.0, 0.1 + 0.2, 1e-3)
    vals = np.array(AWKWARD).reshape(3, 2)
    p = tmp_path / "field.f64grid"
    write_f64grid(p, ScalarField(g, vals))
    rows = [" ".join(repr(float(v)) for v in vals[:, iy]) for iy in range(g.ny)]
    want = "\n".join(["F64GRID 3 2 -0.0 0.30000000000000004 0.001"] + rows) + "\n"
    assert p.read_bytes() == want.encode()
    assert read_f64grid(p).values.tobytes() == vals.tobytes()


def test_f64grid_refuses_non_finite_numbers(tmp_path):
    p = tmp_path / "nan.f64grid"
    p.write_text("F64GRID 2 1 nan 0.0 0.1\n0 0\n")
    with pytest.raises(ValueError, match=re.escape(f"{p}: non-finite number nan in the header")):
        read_f64grid(p)
    p.write_text("F64GRID 2 2 0.0 0.0 0.1\n0 0\n1.0 -inf\n")
    with pytest.raises(ValueError, match="non-finite number -inf in row 1"):
        read_f64grid(p)
    p.write_text("F64GRID 2 1 0.0 0.0 0.1\n0 zero\n")
    with pytest.raises(ValueError, match="row 0 holds a malformed number"):
        read_f64grid(p)
    # nor does the writer leave a file that the reader would refuse
    with pytest.raises(ValueError, match="non-finite"):
        write_f64grid(tmp_path / "out.f64grid", ScalarField(Grid(2, 1, 0.0, 0.0, 0.1), [[np.nan], [0.0]]))
    assert not (tmp_path / "out.f64grid").exists()


def test_grid_refuses_non_finite_origin_and_spacing():
    for bad in ((np.nan, 0.0, 0.1), (0.0, -np.inf, 0.1), (0.0, 0.0, np.inf)):
        with pytest.raises(ValueError, match="finite"):
            Grid(3, 3, *bad)
    with pytest.raises(ValueError, match="finite"):
        Grid.centered(9, np.inf)


def test_pgm_scaling_and_orientation(tmp_path):
    g = Grid(2, 2, 0.0, 0.0, 1.0)
    f = ScalarField(g, [[0.0, 1.0], [2.0, 3.0]])
    p = tmp_path / "img.pgm"
    write_pgm(p, f)
    data = p.read_bytes()
    assert data.startswith(b"P5\n2 2\n255\n")
    # top raster row holds the largest y; x runs left to right
    assert list(data[-4:]) == [85, 255, 0, 170]
    flat = ScalarField(g, np.full((2, 2), 7.0))
    write_pgm(p, flat)
    assert list(p.read_bytes()[-4:]) == [0, 0, 0, 0]
