"""Grid bookkeeping and the two on-disk forms (F64GRID text, PGM preview)."""

import re
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from funkradon import GeometryFamily, Grid, ScalarField, Sinogram, read_f64grid, read_fkr1, write_f64grid, write_fkr1
from funkradon.fields import write_pgm
from funkradon.geometry import descriptor
from funkradon.transform import default_axes

MIB = float(1 << 20)


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
    with pytest.raises(ValueError, match="different grids"):
        ref.linf(other)
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
    p.write_text("F64GRID 2 2 a 0 1\n0 0\n0 0\n")
    with pytest.raises(ValueError, match="malformed number in header 'a 0 1'"):
        read_f64grid(p)
    # numpy's reader refuses the underscore that Python's float() accepts
    p.write_text("F64GRID 2 2 0.0 0.0 1.0\n1_0 2\n0 0\n")
    with pytest.raises(ValueError, match="unreadable data rows"):
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


@pytest.mark.parametrize(
    "nx, ny, field, token", [("x", "2", "nx", "x"), ("2", "2.0", "ny", "2.0"), ("0", "2", "nx", "0"), ("2", "-1", "ny", "-1")]
)
def test_f64grid_refuses_a_count_that_is_not_a_positive_integer(tmp_path, nx, ny, field, token):
    p = tmp_path / "count.f64grid"
    p.write_text(f"F64GRID {nx} {ny} 0.0 0.0 1.0\n0 0\n0 0\n")
    with pytest.raises(ValueError, match=re.escape(f"{p}: {field} must be a positive integer, got {token!r}")):
        read_f64grid(p)


def awkward_rows(n_rows, n_cols):
    """Random doubles of every magnitude, with zeros, -0.0, subnormals and
    the largest doubles of both signs spread over the rows."""
    rng = np.random.default_rng(n_rows)
    data = rng.standard_normal((n_rows, n_cols)) * np.exp(rng.uniform(-700, 700, (n_rows, n_cols)))
    special = (0.0, -0.0, 5e-324, -2.2250738585072009e-308, 1e-317, 1.7976931348623157e308, -1.7976931348623157e308)
    where = rng.choice(data.size, size=(len(special), min(40, data.size // len(special))), replace=False)
    for v, idx in zip(special, where):
        data.flat[idx] = v
    return data


def whole_string(head, data):
    """The file as one string, as the writers formed it before they streamed
    their rows: head, then the rows joined by newlines, then a newline."""
    return head + "\n".join(" ".join(map(repr, row)) for row in data.tolist()) + "\n"


def test_streamed_bodies_are_the_bytes_of_the_whole_string_form(tmp_path):
    data = awkward_rows(300, 2049)
    radon = GeometryFamily("radon")
    lam, phi = default_axes(radon, 2049, 300)
    p = tmp_path / "s.fkr1"
    write_fkr1(p, Sinogram(radon, lam, phi, data))
    head = f"FKR1\n{descriptor(radon)}\nmphi 2049 300 {float(lam[0])!r} {float(lam[-1])!r} full\n"
    assert p.read_bytes() == whole_string(head, data).encode()
    assert read_fkr1(p).data.tobytes() == data.tobytes()
    g = Grid(2049, 300, -0.0, 0.1 + 0.2, 1e-3)
    q = tmp_path / "f.f64grid"
    write_f64grid(q, ScalarField(g, data.T))
    assert q.read_bytes() == whole_string("F64GRID 2049 300 -0.0 0.30000000000000004 0.001\n", data).encode()
    assert read_f64grid(q).values.tobytes() == np.ascontiguousarray(data.T).tobytes()


def test_blank_lines_and_crlf_files_still_read(tmp_path):
    data = awkward_rows(4, 5)
    radon = GeometryFamily("radon")
    lam, phi = default_axes(radon, 5, 4)
    sino, grid = tmp_path / "s.fkr1", tmp_path / "f.f64grid"
    write_fkr1(sino, Sinogram(radon, lam, phi, data))
    write_f64grid(grid, ScalarField(Grid(5, 4, 0.0, 0.0, 1.0), data.T))
    # blank and whitespace-only lines between the rows, and before an F64GRID header
    cases = ((sino, 3, [], lambda p: read_fkr1(p).data), (grid, 1, ["", " "], lambda p: read_f64grid(p).values.T))
    for p, n_head, lead, read in cases:
        lines = p.read_text().splitlines()
        spaced = lead + lines[:n_head] + [x for ln in lines[n_head:] for x in ("", ln, "  \t")]
        for newline in ("\n", "\r\n"):
            p.write_bytes((newline.join(spaced) + newline).encode())
            assert read(p).tobytes() == data.tobytes()


def traced_peak(fn, *args):
    """What fn(*args) returns, and the most bytes it held at once above what
    was allocated when it started, counted by tracemalloc (which sees
    numpy's buffers, so the count repeats from run to run)."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sinogram_files_are_written_and_read_in_memory_bounded_by_the_array(tmp_path):
    # a 360 x 2049 sinogram (5.6 MiB): the writer holds a row of text at a
    # time (0.7 MiB when measured; 36.7 MiB when it formed the file as one
    # string) and the reader the array and a chunk (6.4 MiB; 28.0 MiB when it
    # held the text, its lines and a list of body lines)
    radon = GeometryFamily("radon")
    lam, phi = default_axes(radon, 2049, 360)
    data = np.sin(np.add.outer(phi, 3.0 * lam)) * (1.0 - lam**2)
    p = tmp_path / "s.fkr1"
    _, written = traced_peak(write_fkr1, p, Sinogram(radon, lam, phi, data))
    back, read = traced_peak(read_fkr1, p)
    assert back.data.tobytes() == data.tobytes()
    assert written < 2.0 * MIB
    assert read < data.nbytes + 2.0 * MIB


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
