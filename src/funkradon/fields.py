"""Cell-centered scalar grids and their on-disk forms.

A Grid is a uniform nx-by-ny lattice of cell centers with spacing h; (x0, y0)
is the center of cell (0, 0) and values are indexed [ix, iy]. Grids travel in
the F64GRID text format (exact float round trip via repr) and can be dumped
as a binary PGM preview for quick viewing.

The numeric body of both text formats (F64GRID here, FKR1 sinograms in
transform.py) is written by format_rows and read back by read_rows, which
parse in bulk and refuse non-finite numbers, as header_floats does for the
numbers of a header line.
"""

from __future__ import annotations

import math
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


def format_rows(data) -> str:
    """Lines of repr-formatted values, one per row of the 2-D array ``data``.

    repr is the shortest text that parses back to the same double, so a
    written body reads back bit for bit. Non-finite values are refused with
    ValueError, as read_rows would refuse them.
    """
    data = np.asarray(data, dtype=float)
    if not np.all(np.isfinite(data)):
        raise ValueError("refusing to write non-finite values")
    return "\n".join(" ".join(map(repr, row)) for row in data.tolist())


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


def read_rows(path, lines, n_rows: int, n_cols: int) -> np.ndarray:
    """The (n_rows, n_cols) body written by format_rows, from its text
    ``lines`` (blank lines skipped), parsed in bulk.

    A wrong row count or row length, a malformed number and a non-finite
    number are each refused with ValueError naming the file and the row.
    """
    body = [ln for ln in lines if ln.strip()]
    if len(body) != n_rows:
        raise ValueError(f"{path}: expected {n_rows} data rows, found {len(body)}")
    try:
        values = np.loadtxt(body, dtype=float, comments=None, ndmin=2) if body else np.empty((0, n_cols))
    except ValueError:
        values = None
    if values is None or values.shape != (n_rows, n_cols):
        # find the first offending row for the message
        for j, ln in enumerate(body):
            row = ln.split()
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
    head = f"F64GRID {g.nx} {g.ny} {float(g.x0)!r} {float(g.y0)!r} {float(g.h)!r}"
    Path(path).write_text(head + "\n" + format_rows(field.values.T) + "\n")


def read_f64grid(path) -> ScalarField:
    text = Path(path).read_text()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("F64GRID"):
        raise ValueError(f"{path}: not an F64GRID file")
    head = lines[0].split()
    if len(head) != 6:
        raise ValueError(f"{path}: malformed F64GRID header")
    nx, ny = int(head[1]), int(head[2])
    grid = Grid(nx, ny, *header_floats(path, head[3:]))
    values = read_rows(path, lines[1:], ny, nx)
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
