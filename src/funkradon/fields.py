"""Cell-centered scalar grids and their on-disk forms.

A Grid is a uniform nx-by-ny lattice of cell centers with spacing h; (x0, y0)
is the center of cell (0, 0) and values are indexed [ix, iy]. Grids travel in
the F64GRID text format (exact float round trip via repr) and can be dumped
as a binary PGM preview for quick viewing.

The numeric body of both text formats (F64GRID here, FKR1 sinograms in
transform.py) is written a row at a time by write_rows and read in chunks from
the open file by read_rows, which refuses non-finite numbers as header_floats
does in a header; header_count refuses any count but a positive integer.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "Grid",
    "ScalarField",
    "read_f64grid",
    "write_f64grid",
    "write_pgm",
]


@dataclass(frozen=True)
class Grid:
    nx: int
    ny: int
    x0: float
    y0: float
    h: float

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise ValueError("grid needs at least one cell per axis")
        if not (self.h > 0):
            raise ValueError("grid spacing must be positive")
        if not all(map(math.isfinite, (self.x0, self.y0, self.h))):
            raise ValueError(f"grid origin and spacing must be finite, got ({self.x0}, {self.y0}) and {self.h}")

    @classmethod
    def centered(cls, n: int, half_extent: float, center=(0.0, 0.0)) -> "Grid":
        """Square n-by-n grid of cell centers spanning center +- half_extent."""
        if n < 2:
            raise ValueError("centered grid needs n >= 2")
        h = 2.0 * half_extent / (n - 1)
        return cls(n, n, center[0] - half_extent, center[1] - half_extent, h)

    @property
    def xs(self) -> np.ndarray:
        return self.x0 + self.h * np.arange(self.nx)

    @property
    def ys(self) -> np.ndarray:
        return self.y0 + self.h * np.arange(self.ny)

    def points(self) -> np.ndarray:
        """All cell centers as an (nx, ny, 2) array."""
        X, Y = np.meshgrid(self.xs, self.ys, indexing="ij")
        return np.stack([X, Y], axis=-1)


@dataclass
class ScalarField:
    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.nx, self.grid.ny):
            raise ValueError(
                f"values shape {self.values.shape} does not match grid "
                f"({self.grid.nx}, {self.grid.ny})"
            )

    def rel_l2(self, other: "ScalarField") -> float:
        """Relative l2 distance to a reference field on the same grid."""
        if self.grid != other.grid:
            raise ValueError("fields live on different grids")
        denom = float(np.linalg.norm(other.values))
        if denom == 0.0:
            raise ValueError("reference field is identically zero")
        return float(np.linalg.norm(self.values - other.values)) / denom

    def linf(self, other: "ScalarField") -> float:
        if self.grid != other.grid:
            raise ValueError("fields live on different grids")
        return float(np.max(np.abs(self.values - other.values)))


def write_rows(path, head: str, data) -> None:
    """Write the text ``head``, then one line of repr-formatted values per
    row of the 2-D array ``data``, to the file ``path``.

    repr is the shortest text that parses back to the same double, so a
    written body reads back bit for bit. Non-finite values are refused with
    ValueError before the file is opened, as read_rows would refuse them.
    """
    data = np.asarray(data, dtype=float)
    if not np.all(np.isfinite(data)):
        raise ValueError("refusing to write non-finite values")
    with open(path, "w") as f:
        f.write(head)
        f.writelines(" ".join(map(repr, row.tolist())) + "\n" for row in data)


def _refuse_non_finite(path, values: np.ndarray, place: str) -> None:
    # values is 2-D; place names row j of it when formatted with j
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        j, i = bad[0]
        raise ValueError(f"{path}: non-finite number {float(values[j, i])!r} in {place.format(j)}")


def header_floats(path, tokens) -> list:
    """The header numbers ``tokens`` as floats; malformed or non-finite ones
    are refused with ValueError naming the file."""
    try:
        values = np.array([float(v) for v in tokens])
    except ValueError:
        raise ValueError(f"{path}: malformed number in header {' '.join(tokens)!r}") from None
    _refuse_non_finite(path, values[None, :], "the header")
    return values.tolist()


def header_count(path, token: str, field: str) -> int:
    """The header count ``token`` of ``field``; anything but a positive
    integer is refused with ValueError naming the file and the field."""
    if not (token.isascii() and token.isdigit() and int(token) > 0):
        raise ValueError(f"{path}: {field} must be a positive integer, got {token!r}")
    return int(token)


def read_rows(path, f, n_rows: int, n_cols: int) -> np.ndarray:
    """The (n_rows, n_cols) body written by write_rows, read from the open
    text file ``f`` at its first row (blank lines skipped) by numpy's reader.

    A wrong row count or row length, a malformed number and a non-finite
    number are each refused with ValueError naming the file and the row;
    a second pass over the body finds the row to name.
    """
    start = f.tell()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # an empty body, refused below by its row count
            values = np.loadtxt(f, dtype=float, comments=None, ndmin=2)
    except ValueError:
        values = None
    if values is None or values.shape != (n_rows, n_cols):
        f.seek(start)
        found = sum(1 for ln in f if ln.strip())
        if found != n_rows:
            raise ValueError(f"{path}: expected {n_rows} data rows, found {found}")
        f.seek(start)
        for j, row in enumerate(r for r in map(str.split, f) if r):
            if len(row) != n_cols:
                raise ValueError(f"{path}: row {j} has {len(row)} values, expected {n_cols}")
            try:
                [float(v) for v in row]
            except ValueError:
                raise ValueError(f"{path}: row {j} holds a malformed number") from None
        raise ValueError(f"{path}: unreadable data rows")
    _refuse_non_finite(path, values, "row {}")
    return values


def write_f64grid(path, field: ScalarField) -> None:
    """Write the exact text form: header line, then ny rows of nx values.

    Values are serialized with repr so the round trip is bit-identical.
    """
    g = field.grid
    head = f"F64GRID {g.nx} {g.ny} {float(g.x0)!r} {float(g.y0)!r} {float(g.h)!r}\n"
    write_rows(path, head, field.values.T)


def read_f64grid(path) -> ScalarField:
    with open(path) as f:
        line = next((ln for ln in iter(f.readline, "") if ln.strip()), "")
        if not line.startswith("F64GRID"):
            raise ValueError(f"{path}: not an F64GRID file")
        head = line.split()
        if len(head) != 6:
            raise ValueError(f"{path}: malformed F64GRID header")
        nx, ny = header_count(path, head[1], "nx"), header_count(path, head[2], "ny")
        grid = Grid(nx, ny, *header_floats(path, head[3:]))
        values = read_rows(path, f, ny, nx)
    return ScalarField(grid, np.ascontiguousarray(values.T))


def write_pgm(path, field: ScalarField) -> None:
    """8-bit binary PGM preview, min-max scaled (max at white), y increasing
    downward so the image matches a conventional raster viewer."""
    vals = field.values
    lo, hi = float(vals.min()), float(vals.max())
    scale = 255.0 / (hi - lo) if hi > lo else 0.0
    img = np.round((vals - lo) * scale).astype(np.uint8)
    # raster rows run top to bottom: row 0 is the largest y
    raster = img.T[::-1]
    header = f"P5\n{field.grid.nx} {field.grid.ny}\n255\n".encode("ascii")
    Path(path).write_bytes(header + raster.tobytes())
