"""Exact inversion: finite-part filtration in lambda and backprojection.

The reconstruction identity is

    f(x) = -1/(4 pi^2 D(x)) (P)int_0^{2pi} int g(lambda, phi) /
           (lambda - lambda0(x, phi))^2  dlambda dphi,

with g the forward data, lambda0(x, phi) the curve parameter of the family
member through x, and D(x) the angular mean of 1/|grad psi|^2. The inner
finite-part integral is tabulated once per phi row on the data's own lambda
grid (pv_filter); backprojection then samples that table at lambda0 by cubic
interpolation and averages over phi. lambda0 comes from harmonics computed
once per pixel (geometry.lambda_harmonics), so a row costs a few array
passes for it. Each row is interpolated from a power-form table: the four
coefficients of the 4-point Lagrange cubic on every stencil, built in O(m)
per row for a block of rows at a time, so a pixel costs four gathers and
Horner's rule. Where lambda0 is odd in phi, lambda0(x, phi + pi) =
-lambda0(x, phi) (radon, funk, hgeodesic, equidistant and cormack, whose
harmonics are b cos phi + c sin phi alone), pv_filter folds antipodal rows
of the data before filtering, so the table holds half a turn. On a grid
symmetric about the x1 axis, lambda0(x1, -x2, phi) = lambda0(x, -phi) lets
one row's lambda0 and stencil, formed on the pixels with y >= 0, sample its
mirror row at their images as well.

The second-order singularity is never attacked head-on: integrating by parts
turns it into a first-order principal value of dg/dlambda, which is computed
by singularity subtraction plus an exact logarithmic correction. Boundary
terms of the by-parts step are kept, which is why the data must be windowed
(near zero at the lambda endpoints) for the result to be meaningful. On the
uniform lambda grid the principal-value quadrature is a Toeplitz sum, so each
row is filtered by one zero-padded FFT convolution, O(m log m) in time and
O(m) in memory for m lambda nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from .fields import Grid, ScalarField
from .transform import Sinogram, phi_coverage, riemann_to_mphi

__all__ = [
    "WindowingError",
    "CoverageError",
    "FilteredSinogram",
    "dcoef_quadrature",
    "pv_filter",
    "backproject",
    "invert",
    "reconstruct_riemann",
]

TAU = 2.0 * np.pi

# Nodes of the cubic interpolation stencil: the fewest a filtered lambda axis
# may have.
_MIN_NODES = 4
# Largest data at a lambda boundary, relative to the peak, that pv_filter
# accepts as decayed.
_BOUNDARY_RTOL = 1e-6


class WindowingError(ValueError):
    """Sinogram does not decay at the lambda boundaries."""


class CoverageError(ValueError):
    """A grid point needs data outside the filtered lambda range."""


@dataclass(frozen=True, eq=False)
class FilteredSinogram:
    """G(lambda0, phi) tables, one row per phi, on a uniform lambda0 grid.

    The lambda axis may be wider than the input sinogram's: root-harmonics
    (parabola) data are extended evenly through lambda = 0 before filtering.
    The phi axis obeys Sinogram's rule (transform.phi_coverage), since
    backprojection weights every row by the first step: a full turn, or
    half a turn where lambda0 is odd in phi, whose rows then stand for
    themselves and their antipodes (pv_filter's fold).
    """

    geom: geo.GeometryFamily
    lambda_axis: np.ndarray
    phi_axis: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lambda_axis, dtype=float)
        phi = np.asarray(self.phi_axis, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "lambda_axis", lam)
        object.__setattr__(self, "phi_axis", phi)
        object.__setattr__(self, "values", values)
        if lam.ndim != 1 or lam.size < 2:
            raise ValueError("filtered lambda axis needs at least two nodes")
        dl = np.diff(lam)
        if dl[0] <= 0 or not np.allclose(dl, dl[0], rtol=1e-9, atol=0):
            raise ValueError("filtered lambda axis must be uniform and ascending")
        if phi.ndim != 1 or phi.size < 2:
            raise ValueError(f"filtered table needs at least two phi rows, got {phi.size}")
        phi_coverage(self.geom, phi)
        if values.shape != (phi.size, lam.size):
            raise ValueError(
                f"filtered values of shape {values.shape} do not match the axes ({phi.size}, {lam.size})"
            )


def dcoef_quadrature(geom: geo.GeometryFamily, x, n_phi: int = 256):
    """Normalizer D(x) as the mean of 1/|grad psi|^2 over a uniform phi grid
    (trapezoid on a periodic integrand, so spectrally accurate)."""
    if n_phi < 8:
        raise ValueError("dcoef_quadrature needs n_phi >= 8")
    x = np.asarray(x, dtype=float)
    phi = np.arange(n_phi) * (TAU / n_phi)
    g = geo.grad_norm(geom, x[..., None, :], phi)
    out = np.mean(1.0 / np.asarray(g) ** 2, axis=-1)
    return out if np.ndim(out) else float(out)


def _fast_len(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, a length the FFT transforms quickly."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < n:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


# Rows per FFT block: keeps the padded spectra to a few MB at any row count.
_FILTER_BLOCK = 64


def _fp_rows(g: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Finite part of int g(lambda)/(lambda - lambda_i)^2 dlambda for every
    row of g and every node lambda_i, via integration by parts:

        g(a)/(a - l) - g(b)/(b - l) + PV int g'(lambda)/(lambda - l) dlambda,

    the PV handled by subtracting g'(l) (the k = i quadrature term becomes
    w_i g''(l)) and adding back g'(l) log|(b - l)/(l - a)|. At the two end
    nodes the log and boundary terms are singular and dropped; windowed data
    vanishes there, and backprojection never samples that close to the edge.

    The quadrature sum_{k != i} w_k g'_k / (h (k - i)) is Toeplitz in (k, i),
    so it is one FFT convolution of g' w with the odd kernel 1/(h d), d != 0,
    zero-padded to a fast length of at least 2m - 1 (O(m log m) per row, rows
    in blocks). The subtracted weight sum_{k != i} w_k / (h (k - i)) is
    H(m - 1 - i) - H(i) with harmonic numbers H, corrected for the two
    half-weight end nodes. Each block's spectrum is multiplied in place and
    its terms are summed straight into its rows of the output, so the
    filter holds a few MB of block buffers beside the output at any size.
    """
    m = lam.size
    h = lam[1] - lam[0]
    w = np.full(m, h)
    w[0] = w[-1] = 0.5 * h
    d = np.arange(1, m)
    n_fft = _fast_len(2 * m - 1)
    kern = np.zeros(n_fft)
    kern[1:m] = -1.0 / (h * d)  # offset i - k = d
    kern[n_fft - m + 1 :] = 1.0 / (h * d[::-1])  # offset i - k = -d
    kern_hat = np.fft.rfft(kern)
    harm = np.concatenate(([0.0], np.cumsum(1.0 / d)))
    i = np.arange(m)
    csum = harm[m - 1 - i] - harm[i]
    csum[1:] += 0.5 / i[1:]
    csum[:-1] -= 0.5 / (m - 1 - i[:-1])
    with np.errstate(divide="ignore", invalid="ignore"):
        L = np.log((lam[-1] - lam) / (lam - lam[0]))
    L[0] = L[-1] = 0.0
    G = np.empty(g.shape)
    for r0 in range(0, g.shape[0], _FILTER_BLOCK):
        rows = slice(r0, r0 + _FILTER_BLOCK)
        Gb = G[rows]
        gp = np.gradient(g[rows], h, axis=1, edge_order=2)
        spec = np.fft.rfft(gp * w, n_fft)
        spec *= kern_hat
        np.multiply(gp, csum, out=Gb)
        np.subtract(np.fft.irfft(spec, n_fft)[:, :m], Gb, out=Gb)
        del spec
        Gb += np.gradient(gp, h, axis=1, edge_order=2) * w
        Gb += gp * L
        with np.errstate(divide="ignore", invalid="ignore"):
            bound = g[rows, :1] / (lam[0] - lam) - g[rows, -1:] / (lam[-1] - lam)
        bound[:, 0] = bound[:, -1] = 0.0
        Gb += bound
    return G


def pv_filter(sino: Sinogram) -> FilteredSinogram:
    """Tabulate the inner finite-part integral on the sinogram's own grid.

    Where lambda0 is odd in phi, row j + n/2 (at phi_j + pi on any turn
    phi_coverage admits) is row j reversed in lambda, and the linear filter
    commutes with that reversal: a full turn of even length with lam[0] =
    -lam[-1] is folded to g[:n/2] + g[n/2:, ::-1], and a half-range row,
    standing for its antipode too, is filtered as 2 g on its own axis.
    Either way the table holds a half turn (FilteredSinogram). Root-harmonics
    (parabola) data are extended evenly through lambda = 0. Decay at the
    lambda boundaries is checked before any row is folded or doubled.
    """
    if sino.kind != "mphi":
        raise ValueError("pv_filter expects kind='mphi' data (convert riemann data first)")
    geom = sino.geom
    lam = sino.lambda_axis
    phi = sino.phi_axis
    g = sino.data
    harm = geo.lambda_harmonics(geom)
    # the even extension filters 2m - 1 nodes
    m = 2 * lam.size - 1 if harm.root else lam.size
    if m < _MIN_NODES:
        raise ValueError(
            f"the filtered lambda axis has {m} nodes; cubic interpolation "
            f"needs at least {_MIN_NODES}"
        )

    if harm.root:
        # lambda0 = sqrt(...) starts at 0 where the data is genuinely
        # nonzero; the transform is even in lambda, so extend and filter on
        # the symmetric axis, making 0 an interior node
        if abs(lam[0]) > 1e-12 * (1.0 + abs(lam[-1])):
            raise WindowingError(
                f"{geom.tag} filtering needs the lambda axis to start at 0 "
                "for the even extension"
            )
        lam = np.concatenate([-lam[:0:-1], lam])
        g = np.concatenate([g[:, :0:-1], g], axis=1)

    peak = max(float(g.max()), -float(g.min()))
    if peak > 0.0:
        for side, col in (("lower", g[:, 0]), ("upper", g[:, -1])):
            worst = float(np.max(np.abs(col)))
            if worst > _BOUNDARY_RTOL * peak:
                raise WindowingError(
                    f"data at the {side} lambda boundary reaches {worst:.3e} "
                    f"({worst / peak:.2e} of peak); the scanned range does not "
                    "cover the phantom"
                )

    if sino.phi_full == "half":
        g = 2.0 * g
    elif harm.odd and phi.size % 2 == 0 and lam[0] == -lam[-1]:
        # one half-size array: g[half:, ::-1] is a view
        half = phi.size // 2
        g = g[:half] + g[half:, ::-1]
        phi = phi[:half]
    return FilteredSinogram(geom, lam, phi, _fp_rows(g, lam))


def _cubic_table(rows: np.ndarray, c: np.ndarray) -> None:
    """Fill c[r, :, i], for each filtered row r, with the power-form
    coefficients (c0, c1, c2, c3) of the 4-point Lagrange cubic through
    rows[r, i : i + 4], in the offset s from node i + 1 (s in [-1, 2])."""
    v0, v1, v2, v3 = rows[:, :-3], rows[:, 1:-2], rows[:, 2:-1], rows[:, 3:]
    c[:, 0] = v1
    c[:, 1] = v2 - v0 / 3.0 - v1 / 2.0 - v3 / 6.0
    c[:, 2] = (v0 + v2) / 2.0 - v1
    c[:, 3] = (v3 - v0) / 6.0 + (v1 - v2) / 2.0


def _mirror(filtered: FilteredSinogram, grid: Grid):
    """None where backproject samples every row at every pixel; else whether
    row -j mod n, the mirror of row j, is reversed in lambda.

    lambda0(x1, -x2, phi) = lambda0(x, -phi) on every family, since b, a and
    k are even in x2 and c is odd; so where the grid's y nodes are symmetric
    about the x1 axis (within a few ulps), row j's lambda0 at a pixel is the
    mirror row's lambda0 at the pixel's image. On a full turn the mirror row
    is row -j mod n at -phi_j. On a half turn, where lambda0 is odd in phi, it
    is row n - j at phi_(n-j) = pi - phi_j, whose lambda0 at the image is
    minus row j's at the pixel: that row reversed in lambda (row 0 is its own
    mirror, unreversed). Reversing maps the stencil offset t to m - 1 - t,
    which is the offset of -lambda0 only where lam[0] == -lam[-1] and
    (lam[-1] - lam[0]) / h is m - 1 exactly. On any other axis the reversed
    row would be sampled up to (m - 1) times the rounding of h away from
    where the row itself is (6.5e-13 of the image's maximum on funk at
    m = 2049), so a half turn there has no mirror.
    """
    ys = grid.ys
    if grid.ny < 2 or np.max(np.abs(ys + ys[::-1])) > 4.0 * np.spacing(np.max(np.abs(ys))):
        return None
    phi = filtered.phi_axis
    # the table's phi axis spans a full turn or a half turn (FilteredSinogram)
    if (phi[1] - phi[0]) * phi.size > 1.5 * np.pi:
        return False
    lam = filtered.lambda_axis
    if lam[0] != -lam[-1] or (lam[-1] - lam[0]) / (lam[1] - lam[0]) != lam.size - 1:
        return None
    return True


def _sample(c, k, s, val, coef):
    """val = the power-form cubics c (4, m - 3) on the stencils k at the
    offsets s, by four gathers and Horner's rule; coef is scratch."""
    # k is in range, so mode="clip" only skips numpy's bounds check
    c[3].take(k, out=val, mode="clip")
    for ci in c[2::-1]:
        val *= s
        val += ci.take(k, out=coef, mode="clip")


def backproject(filtered: FilteredSinogram, grid: Grid) -> ScalarField:
    """Average the filtered tables over phi at each pixel's lambda0 and apply
    the -1/(4 pi^2 D(x)) normalization (with the sheet count for the cormack
    family, whose curves pass through each point on k parameter sheets).

    lambda0 comes from the pixels' harmonics (geometry.lambda_harmonics),
    formed and checked against the family's domain once per call, so a row
    costs a few array passes for lambda0. Each phi row is sampled by 4-point
    Lagrange interpolation on the stencil starting at
    clip(floor(t) - 1, 0, m - 4), t = (lambda0 - lambda_first)/h, so the
    first and last intervals extrapolate inside the end stencils. The rows
    are first turned into power-form tables (_cubic_table, O(m) per row),
    _FILTER_BLOCK rows at a time into one buffer allocated per call, so the
    tables hold a few MB at any row count; a pixel then costs four gathers
    and Horner's rule in s = t - (stencil start + 1). Every row is sampled;
    a half-turn table's rows stand for their antipodes too (pv_filter).

    On a grid symmetric about the x1 axis (_mirror), lambda0 and the stencil
    of a row are formed on the pixels with y >= 0 only. They sample that row
    there and its mirror row at the images (x1, -x2) of those pixels, a
    reversed mirror row at the reversed stencil (m - 4 - k, 1 - s). Rows go
    in pairs j, -j mod n for j = 0 .. n/2, so each table is built once: the
    buffer holds half a block of rows and half a block of their mirrors.

    Cormack data of order k >= 2 determine only the k-fold rotational
    average f_k(x) = (1/k) sum_m f(R(2 pi m / k) x), which is returned.
    """
    geom = filtered.geom
    lam = filtered.lambda_axis
    phi = filtered.phi_axis
    values = filtered.values
    n, m = values.shape
    if m < _MIN_NODES:
        raise ValueError(f"backprojection needs at least {_MIN_NODES} lambda nodes, got {m}")
    h = lam[1] - lam[0]
    pts = grid.points()
    D = np.asarray(geo.dcoef_closed(geom, pts))
    sheet = geom.record.sheets(geom)
    flip = _mirror(filtered, grid)
    # with the mirror, rows go in pairs j, -j mod n for j = 0 .. n/2
    q, leads = (0, n) if flip is None else (grid.ny // 2, n // 2 + 1)
    lam0_at = geo.lambda_harmonics(geom, pts[:, q:])
    tol = 1e-9 * (1.0 + lam[-1] - lam[0])
    lo, hi = lam[0] - tol, lam[-1] + tol
    # sums at the stencil's pixels, and of the mirror rows at their images
    acc = np.zeros((1 if flip is None else 2, grid.nx, grid.ny - q))
    val = np.empty_like(acc[0])
    coef = np.empty_like(val)
    block = min(_FILTER_BLOCK, n) // acc.shape[0]
    table = np.empty((acc.shape[0], block, 4, m - 3))
    for b0 in range(0, leads, block):
        # power-form tables of the next block of rows, and of their mirrors
        stop = min(b0 + block, leads)
        _cubic_table(values[b0:stop], table[0, : stop - b0])
        if flip is not None:
            _cubic_table(values[-np.arange(b0, stop) % n], table[1, : stop - b0])
        for j in range(b0, stop):
            # row j, then its mirror row where that is another row, each with
            # its own table first and the other's for the images
            tabs = table[:, j - b0]
            for r in (j,) if flip is None or -j % n == j else (j, n - j):
                p = float(phi[r])
                s = lam0_at(p)
                # min and max carry a NaN lambda0, which fails both
                # comparisons, so it counts as uncovered too
                if not (s.min() >= lo and s.max() <= hi):
                    _refuse_uncovered(pts, geo.lambda_harmonics(geom, pts)(p), lo, hi, lam, p)
                # s = t - 1 - k on the stencil k = clip(floor(t) - 1, 0, m - 4),
                # with t = (lambda0 - lambda_first) / h, formed in place on
                # lambda0; clipping floor(t - 1) picks the same k, since t - 1
                # is exact for t >= 1/2 and below that both clip to 0
                s -= lam[0]
                s /= h
                s -= 1.0
                k = np.floor(s)
                np.clip(k, 0, m - 4, out=k)
                s -= k
                k = k.astype(np.intp)
                _sample(tabs[0], k, s, val, coef)
                acc[0] += val
                if flip is not None:
                    if flip and j:
                        np.subtract(m - 4, k, out=k)
                        np.subtract(1.0, s, out=s)
                    _sample(tabs[1], k, s, val, coef)
                    acc[1] += val
                tabs = tabs[::-1]
    if flip is not None:
        # the y = 0 column of an odd grid is its own image, summed once
        acc = np.concatenate([acc[1, :, grid.ny - 2 * q :][:, ::-1], acc[0]], axis=1)
    dphi = phi[1] - phi[0]
    rec = -acc.reshape(grid.nx, grid.ny) * dphi / (4.0 * np.pi**2 * D * sheet)
    return ScalarField(grid, rec)


def _refuse_uncovered(pts, lam0, lo, hi, lam, p):
    """Raise CoverageError naming the first grid points of the row at phi = p
    whose lambda0 lies outside [lo, hi] or is not finite."""
    bad = ~((lam0 >= lo) & (lam0 <= hi))
    where = np.argwhere(bad)
    shown = "; ".join(
        f"({pts[ix, iy, 0]:.6g}, {pts[ix, iy, 1]:.6g}) needs lambda0={lam0[ix, iy]:.6g}"
        for ix, iy in where[:4]
    )
    more = "" if len(where) <= 4 else f" (and {len(where) - 4} more)"
    raise CoverageError(
        f"{len(where)} grid points at phi={p:.6g} fall outside the filtered "
        f"range [{lam[0]:.6g}, {lam[-1]:.6g}]: {shown}{more}"
    )


def invert(sino: Sinogram, grid: Grid) -> ScalarField:
    """Full reconstruction: pv_filter then backproject; the k-fold
    rotational average of the field on cormack data of order k >= 2."""
    return backproject(pv_filter(sino), grid)


def reconstruct_riemann(sino: Sinogram, grid: Grid) -> ScalarField:
    """Reconstruct from plain arc-length data of a factorizable family:
    divide by mu(lambda), invert, then divide pointwise by m(x)."""
    rec = invert(riemann_to_mphi(sino), grid)
    m = np.asarray(geo.weight_m(sino.geom, grid.points()))
    return ScalarField(grid, rec.values / m)
