"""Finite-part filtration and backprojection.

The filter is checked against a hand-integrated finite part: for the window
g(lambda) = (1 - lambda^2)^2 on [-1, 1],

    FP int g(lambda) / (lambda - c)^2 dlambda
        = 6 c^2 - 10/3 + g'(c) log((1-c)/(1+c)) - 2 (1 - c^2),

obtained by differentiating the principal-value integral of g/(lambda - c)
in c (the polynomial part integrates term by term). Reconstruction quality
is then measured end to end on small grids.
"""

import tracemalloc
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest
from numpy.testing import assert_allclose

from funkradon import geometry as geo
from funkradon import (
    CoverageError,
    GeometryFamily,
    Phantom,
    Sinogram,
    WindowingError,
    backproject,
    forward_mphi,
    invert,
    pv_filter,
)
from funkradon.acceptance import _round_trips
from funkradon.fields import Grid, ScalarField
from funkradon.inversion import FilteredSinogram, _fast_len, _fp_rows, dcoef_quadrature, reconstruct_riemann
from funkradon.phantom import Gaussian
from funkradon.transform import default_axes, forward_riemann, phi_coverage

TAU = 2.0 * np.pi

RADON = GeometryFamily("radon")
FUNK = GeometryFamily("funk", support_radius=0.8)
HGEO = GeometryFamily("hgeodesic", support_radius=0.7)
EQUI = GeometryFamily("equidistant", support_radius=0.4)
ELLIPSE = GeometryFamily("ellipse", e1=1.2, e2=0.8, support_radius=0.7)
HYPER = GeometryFamily("hyperbola", eps=2.0)
PARAB = GeometryFamily("parabola")
CORMACK2 = GeometryFamily("cormack", k=2)


def uniform_phi(n, half=False):
    span = np.pi if half else TAU
    return np.arange(n) * (span / n)


def window_sinogram(g_of_lam, m=801, n_phi=3, geom=RADON):
    """Every row g_of_lam on [-1, 1]; the default odd n_phi is a layout
    pv_filter does not fold, so each filtered row is g_of_lam's own."""
    lam = np.linspace(-1.0, 1.0, m)
    g = g_of_lam(lam)
    data = np.broadcast_to(g, (n_phi, m)).copy()
    return Sinogram(geom, lam, uniform_phi(n_phi), data)


# ---------------------------------------------------------------------------
# normalizer quadrature


def test_dcoef_quadrature_pins():
    assert dcoef_quadrature(RADON, (0.3, -0.2)) == pytest.approx(1.0, rel=1e-12)
    # 1/|grad psi|^2 = 2|x| for the parabola family, constant in phi
    assert dcoef_quadrature(PARAB, (0.3, 0.4)) == pytest.approx(1.0, rel=1e-12)
    assert dcoef_quadrature(HGEO, (0.0, 0.0)) == pytest.approx(0.25, rel=1e-12)


def test_dcoef_quadrature_vectorizes():
    pts = np.array([[0.1, 0.2], [0.3, -0.1], [0.0, 0.4]])
    out = dcoef_quadrature(RADON, pts)
    assert out.shape == (3,)
    assert_allclose(out, 1.0, rtol=1e-12)


def test_dcoef_quadrature_rejects_coarse_grids():
    with pytest.raises(ValueError, match="n_phi >= 8"):
        dcoef_quadrature(RADON, (0.1, 0.1), n_phi=4)


# ---------------------------------------------------------------------------
# finite-part filter


def exact_fp_window(c):
    gp = -4.0 * c + 4.0 * c**3
    return 6.0 * c * c - 10.0 / 3.0 + gp * np.log((1.0 - c) / (1.0 + c)) - 2.0 * (1.0 - c * c)


def test_pv_filter_matches_closed_form_window():
    sino = window_sinogram(lambda lam: (1.0 - lam * lam) ** 2)
    table = pv_filter(sino)
    lam = table.lambda_axis
    interior = np.abs(lam) <= 0.9
    got = table.values[0][interior]
    assert np.max(np.abs(got - exact_fp_window(lam[interior]))) <= 2e-4
    # every phi row saw the same data
    assert np.array_equal(table.values[0], table.values[-1])


def test_pv_filter_center_node_value():
    # FP int (1 - l^2)^2 / l^2 dl = -2 - 4 + 2/3 = -16/3
    sino = window_sinogram(lambda lam: (1.0 - lam * lam) ** 2, m=1601)
    mid = 800
    got = pv_filter(sino).values[0][mid]
    assert got == pytest.approx(-16.0 / 3.0, abs=5e-5)


def test_pv_filter_odd_data_vanishes_at_center():
    sino = window_sinogram(lambda lam: lam * (1.0 - lam * lam) ** 2)
    table = pv_filter(sino)
    scale = np.max(np.abs(table.values))
    assert abs(table.values[0][400]) <= 1e-10 * scale


def test_pv_filter_zero_data():
    sino = window_sinogram(lambda lam: np.zeros_like(lam))
    table = pv_filter(sino)
    assert np.all(table.values == 0.0)


def test_pv_filter_rejects_unwindowed_data():
    lam = np.linspace(-0.5, 0.5, 101)
    phi = uniform_phi(4)
    low = np.exp(-0.5 * ((lam - 0.3) / 0.1) ** 2)
    sino = Sinogram(RADON, lam, phi, np.broadcast_to(low, (4, 101)).copy())
    with pytest.raises(WindowingError, match="upper lambda boundary"):
        pv_filter(sino)
    hi = np.exp(-0.5 * ((lam + 0.3) / 0.1) ** 2)
    sino2 = Sinogram(RADON, lam, phi, np.broadcast_to(hi, (4, 101)).copy())
    with pytest.raises(WindowingError, match="lower lambda boundary"):
        pv_filter(sino2)


def test_pv_filter_requires_mphi_kind():
    lam = np.linspace(-1.0, 1.0, 11)
    sino = Sinogram(RADON, lam, uniform_phi(4), np.zeros((4, 11)), kind="riemann")
    with pytest.raises(ValueError, match="convert riemann data first"):
        pv_filter(sino)


def test_pv_filter_half_range_doubling_matches_full():
    lam = np.linspace(-1.0, 1.0, 201)
    w = (1.0 - lam * lam) ** 4
    phi_full = uniform_phi(8)
    top = w[None, :] * (1.0 + 0.3 * lam[None, :] * np.cos(phi_full[:4])[:, None])
    # g(-lambda, phi + pi) = g(lambda, phi), imposed bitwise by mirroring
    full = np.concatenate([top, top[:, ::-1]], axis=0)
    half = Sinogram(RADON, lam, uniform_phi(4, half=True), top)
    t_full = pv_filter(Sinogram(RADON, lam, phi_full, full))
    t_half = pv_filter(half)
    # the full turn is folded to the half turn, on which half-range data
    # are filtered as 2 g: the same table, bit for bit
    assert t_full.phi_axis.size == t_half.phi_axis.size == 4
    assert np.array_equal(t_half.phi_axis, half.phi_axis)
    assert_allclose(t_full.phi_axis, half.phi_axis, rtol=0, atol=1e-15)
    assert np.array_equal(t_half.values, t_full.values)


def test_pv_filter_half_range_takes_its_own_lambda_axis():
    # a half-turn row stands for its antipode, the row reversed on the
    # mirrored axis, so an axis that is not symmetric needs no mirror: the
    # reconstruction is the per-row backprojection of the full turn whose
    # row j + n/2 is row j reversed on -lambda (refused until the fold moved
    # into the filter, which no longer mirrors the data)
    sino = random_sinogram(RADON, 12, half=True, lam=np.linspace(-0.8, 1.0, 65))
    lam, g = sino.lambda_axis, sino.data
    grid = Grid.centered(17, 0.5)
    pts = grid.points()
    mirrored = -lam[::-1]
    acc = sum(
        lagrange_cubic(row, lam, geo.lambda_of(RADON, pts, p))
        + lagrange_cubic(antipode, mirrored, geo.lambda_of(RADON, pts, p + np.pi))
        for row, antipode, p in zip(_fp_rows(g, lam), _fp_rows(g[:, ::-1], mirrored), sino.phi_axis)
    )
    want = -acc * (np.pi / 12) / (4.0 * np.pi**2 * geo.dcoef_closed(RADON, pts))
    got = backproject(pv_filter(sino), grid).values
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_pv_filter_parabola_even_extension():
    lam = np.linspace(0.0, 1.0, 101)
    g = (lam * (1.0 - lam)) ** 2
    sino = Sinogram(PARAB, lam, uniform_phi(4), np.broadcast_to(g, (4, 101)).copy())
    table = pv_filter(sino)
    assert table.lambda_axis.size == 201
    assert table.lambda_axis[0] == pytest.approx(-1.0)
    assert np.max(np.abs(table.lambda_axis + table.lambda_axis[::-1])) == 0.0
    # even data filters to an even table
    scale = np.max(np.abs(table.values))
    assert np.max(np.abs(table.values - table.values[:, ::-1])) <= 1e-9 * scale


def test_pv_filter_parabola_needs_zero_start():
    lam = np.linspace(0.1, 1.0, 10)
    sino = Sinogram(PARAB, lam, uniform_phi(4), np.zeros((4, 10)))
    with pytest.raises(WindowingError, match="start at 0"):
        pv_filter(sino)


@pytest.mark.parametrize("m", (2, 3))
def test_pv_filter_refuses_fewer_than_four_lambda_nodes(m):
    # the cubic stencil needs 4 nodes; at m = 3 it used to wrap to the last
    # node and reconstruct 0.6366 at every pixel of this sinogram
    data = np.zeros((8, m))
    if m == 3:
        data[:, 1] = 1.0
    sino = Sinogram(RADON, np.linspace(-1.0, 1.0, m), uniform_phi(8), data)
    with pytest.raises(ValueError, match=f"has {m} nodes; cubic interpolation needs at least 4"):
        pv_filter(sino)
    table = FilteredSinogram(RADON, sino.lambda_axis, sino.phi_axis, data)
    with pytest.raises(ValueError, match=f"at least 4 lambda nodes, got {m}"):
        backproject(table, Grid.centered(3, 0.5))


@pytest.mark.parametrize("shape", [(8, 40), (5, 33)], ids=["wider-than-lambda", "fewer-rows-than-phi"])
def test_filtered_sinogram_refuses_values_that_do_not_match_the_axes(shape):
    # backprojection used to read only the first 33 of 40 columns without a
    # word, and to fail with a bare IndexError on 5 rows for 8 phi nodes
    lam = np.linspace(-1.0, 1.0, 33)
    with pytest.raises(ValueError, match=rf"shape \({shape[0]}, {shape[1]}\) do not match the axes \(8, 33\)"):
        FilteredSinogram(RADON, lam, uniform_phi(8), np.zeros(shape))


def test_filtered_sinogram_refuses_a_single_phi_row():
    # the phi step of backprojection needs a second row
    lam = np.linspace(-1.0, 1.0, 33)
    with pytest.raises(ValueError, match="at least two phi rows, got 1"):
        FilteredSinogram(RADON, lam, np.zeros(1), np.zeros((1, 33)))


@pytest.mark.parametrize(
    "geom, phi, refusal",
    [
        (ELLIPSE, uniform_phi(64, half=True), "odd in phi, which ellipse is not"),
        (RADON, np.sort(np.random.default_rng(64).uniform(0.0, TAU, 64)), "uniform starting at 0"),
        (RADON, uniform_phi(64) + 0.3, "uniform starting at 0"),
    ],
    ids=["half-range ellipse", "sorted-random", "offset"],
)
def test_filtered_sinogram_refuses_a_phi_axis_that_sinogram_refuses(geom, phi, refusal):
    # backprojection weights every row by phi[1] - phi[0]: with these axes on
    # the filtered radon table of gauss:0.1,-0.05,0.15,1 at 129 x 64, a 17^2
    # grid came back at rel_l2 0.47 (sorted-random) and 0.16 (offset)
    # without a word, where the table's own full axis reaches 0.0027. A half
    # turn stands for the whole only where lambda0 is odd in phi
    lam = np.linspace(-1.0, 1.0, 33)
    with pytest.raises(ValueError, match=refusal):
        FilteredSinogram(geom, lam, phi, np.zeros((64, 33)))
    assert FilteredSinogram(RADON, lam, uniform_phi(64, half=True), np.zeros((64, 33))).phi_axis.size == 64


@pytest.mark.parametrize(
    "lam",
    [[0.0], [-1.0, 0.0, 0.5, 1.0], [1.0, 0.5, 0.0, -0.5], [-1.0, np.nan, 0.0, 0.5]],
    ids=["one-node", "non-uniform", "descending", "nan"],
)
def test_filtered_sinogram_refuses_a_bad_lambda_axis(lam):
    with pytest.raises(ValueError, match="filtered lambda axis"):
        FilteredSinogram(RADON, np.array(lam), uniform_phi(4), np.zeros((4, len(lam))))


def test_pv_filter_refuses_a_parabola_axis_that_extends_to_three_nodes():
    sino = Sinogram(PARAB, np.array([0.0, 1.0]), uniform_phi(4), np.zeros((4, 2)))
    with pytest.raises(ValueError, match="has 3 nodes"):
        pv_filter(sino)


def dense_fp_rows(g, lam):
    """The filter as an explicit m x m quadrature matrix A[k, i] = w_k /
    (lambda_k - lambda_i), k != i: the direct form of the finite part."""
    m = lam.size
    h = lam[1] - lam[0]
    gp = np.gradient(g, h, axis=1, edge_order=2)
    gpp = np.gradient(gp, h, axis=1, edge_order=2)
    w = np.full(m, h)
    w[0] = w[-1] = 0.5 * h
    with np.errstate(divide="ignore"):
        A = w[:, None] / (lam[:, None] - lam[None, :])
    np.fill_diagonal(A, 0.0)
    G = gp @ A - gp * A.sum(axis=0) + gpp * w
    with np.errstate(divide="ignore", invalid="ignore"):
        L = np.log((lam[-1] - lam) / (lam - lam[0]))
        bound = g[:, :1] / (lam[0] - lam) - g[:, -1:] / (lam[-1] - lam)
    L[0] = L[-1] = 0.0
    bound[:, 0] = bound[:, -1] = 0.0
    return G + gp * L + bound


@pytest.mark.parametrize("m", (5, 64, 513))
@pytest.mark.parametrize("rows", (1, 65, 130))
def test_fp_rows_matches_the_dense_quadrature(m, rows):
    # row counts around the FFT block size, rough rows and windowed ones
    rng = np.random.default_rng(m + rows)
    lam = np.linspace(-0.4, 1.9, m)
    bump = np.sin(np.linspace(0.0, np.pi, m)) ** 3
    g = rng.normal(size=(rows, 1)) * bump + 0.05 * rng.normal(size=(rows, m))
    want = dense_fp_rows(g, lam)
    got = _fp_rows(g, lam)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_pv_filter_memory_stays_linear_in_m():
    # a dense m x m quadrature matrix alone would be 34 MB at m = 2049
    lam, phi = default_axes(RADON, 2049, 360)
    ctr = 0.1 * np.cos(phi)[:, None]
    data = np.exp(-0.5 * ((lam[None, :] - ctr) / 0.15) ** 2)
    sino = Sinogram(RADON, lam, phi, data)
    tracemalloc.start()
    try:
        pv_filter(sino)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6


def oracle_fp_rows(g, lam):
    """_fp_rows with a fresh array per operation, 64 rows at a time: the
    form the in-place filter must equal bit for bit."""
    m = lam.size
    h = lam[1] - lam[0]
    w = np.full(m, h)
    w[0] = w[-1] = 0.5 * h
    d = np.arange(1, m)
    n_fft = _fast_len(2 * m - 1)
    kern = np.zeros(n_fft)
    kern[1:m] = -1.0 / (h * d)
    kern[n_fft - m + 1 :] = 1.0 / (h * d[::-1])
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
    for r0 in range(0, g.shape[0], 64):
        rows = slice(r0, r0 + 64)
        gp = np.gradient(g[rows], h, axis=1, edge_order=2)
        gpp = np.gradient(gp, h, axis=1, edge_order=2)
        conv = np.fft.irfft(np.fft.rfft(gp * w, n_fft) * kern_hat, n_fft)[:, :m]
        Gb = conv - gp * csum + gpp * w + gp * L
        with np.errstate(divide="ignore", invalid="ignore"):
            bound = g[rows, :1] / (lam[0] - lam) - g[rows, -1:] / (lam[-1] - lam)
        bound[:, 0] = bound[:, -1] = 0.0
        G[rows] = Gb + bound
    return G


@pytest.mark.parametrize("rows", (45, 64, 65, 130))
def test_fp_rows_equals_the_fresh_array_form_bit_for_bit(rows):
    rng = np.random.default_rng(rows)
    for m in (65, 2049):
        lam = np.linspace(-0.4, 1.9, m)
        g = rng.normal(size=(rows, 1)) * np.sin(np.linspace(0.0, np.pi, m)) ** 3 + 0.05 * rng.normal(size=(rows, m))
        assert _fp_rows(g, lam).tobytes() == oracle_fp_rows(g, lam).tobytes()


@pytest.mark.parametrize("n_phi", (361, 360), ids=["unfolded", "folded"])
def test_pv_filter_holds_its_output_and_a_few_block_buffers(n_phi):
    # at 361 x 2049 the output is 5.6 MiB; a block of 64 rows holds its
    # slopes and spectrum beside it (12.2 MiB in all when measured at 360
    # rows before the fold; 16.3 MiB when every term of a block was a fresh
    # array and the peak took an abs copy of the data). At 360 rows the fold
    # adds one array of the output's size, 180 rows, and no full-size one
    lam, phi = default_axes(RADON, 2049, n_phi)
    data = np.exp(-0.5 * ((lam[None, :] - 0.1 * np.cos(phi)[:, None]) / 0.15) ** 2)
    sino = Sinogram(RADON, lam, phi, data)
    tracemalloc.start()
    try:
        out = pv_filter(sino)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    folded = out.values.nbytes if n_phi % 2 == 0 else 0
    assert out.values.shape[0] == (n_phi // 2 if folded else n_phi)
    assert peak < out.values.nbytes + folded + 9.0 * (1 << 20)


# ---------------------------------------------------------------------------
# backprojection


@dataclass(frozen=True, eq=False)
class SeamHarmonics(geo.Harmonics):
    """Real harmonics, whose odd and root properties pv_filter reads, giving
    lambda0 at each angle from lam0 instead of from the fields."""

    lam0: Callable | None = None

    def __call__(self, phi):
        return self.lam0(phi)


def seam(h, lam0):
    """The harmonics h with lambda0 at phi taken from lam0(phi)."""
    return SeamHarmonics(h.b, h.c, h.a, h.k, h.root, lam0)


def mirrored(upper, n):
    """lambda0 per row of a full turn on an n x n grid symmetric about the
    x1 axis, from each row's values at the pixels with y >= 0, upper[j] of
    shape (n, n - n // 2): row j at the pixels below is row -j mod len(upper)
    at their images (x1, -x2), as lambda0 is on every family."""
    cut = n - 2 * (n // 2)
    return [np.concatenate([upper[-j % len(upper)][:, cut:][:, ::-1], upper[j]], axis=1) for j in range(len(upper))]


def inject(monkeypatch, lam0_at):
    """Make backproject read lambda0 at phi from lam0_at[phi], a full grid's
    values, at the pixels it forms lambda0 on: the last columns, those with
    y >= 0 where the mirror applies."""
    harmonics = geo.lambda_harmonics
    monkeypatch.setattr(
        geo, "lambda_harmonics", lambda geom, x: seam(harmonics(geom, x), lambda p: lam0_at[p][:, -x.shape[1] :].copy())
    )


def test_backproject_zero_table():
    sino = window_sinogram(lambda lam: np.zeros_like(lam), m=33, n_phi=8)
    rec = backproject(pv_filter(sino), Grid.centered(9, 0.5))
    assert np.all(rec.values == 0.0)


def test_backproject_coverage_error():
    sino = Sinogram(
        RADON,
        np.linspace(-0.5, 0.5, 33),
        uniform_phi(8),
        np.zeros((8, 33)),
    )
    with pytest.raises(CoverageError, match="outside the filtered range"):
        backproject(pv_filter(sino), Grid.centered(9, 0.7))


@pytest.mark.parametrize(
    "lam_lo, lam_hi, message",
    [
        (
            -0.5,
            0.5,
            "6 grid points at phi=0 fall outside the filtered range [-0.5, 0.5]: "
            "(-0.7, -0.7) needs lambda0=-0.7; (-0.7, 0) needs lambda0=-0.7; "
            "(-0.7, 0.7) needs lambda0=-0.7; (0.7, -0.7) needs lambda0=0.7 (and 2 more)",
        ),
        (
            -0.75,
            0.5,
            "3 grid points at phi=0 fall outside the filtered range [-0.75, 0.5]: "
            "(0.7, -0.7) needs lambda0=0.7; (0.7, 0) needs lambda0=0.7; "
            "(0.7, 0.7) needs lambda0=0.7",
        ),
    ],
)
def test_backproject_coverage_error_names_the_first_points(lam_lo, lam_hi, message):
    # radon lambda0 at phi = 0 is x1; the 3 x 3 grid has x1 in {-0.7, 0, 0.7}
    sino = Sinogram(RADON, np.linspace(lam_lo, lam_hi, 33), uniform_phi(8), np.zeros((8, 33)))
    with pytest.raises(CoverageError) as info:
        backproject(pv_filter(sino), Grid.centered(3, 0.7))
    assert str(info.value) == message


def test_backproject_counts_a_non_finite_lambda0_as_uncovered(monkeypatch):
    sino = window_sinogram(lambda lam: np.zeros_like(lam), m=33, n_phi=8)
    filtered = pv_filter(sino)
    harmonics = geo.lambda_harmonics

    def with_nan(geom, x):
        at = harmonics(geom, x)

        def lam0(phi):
            out = at(phi)
            out[2, 3] = np.nan
            return out

        return seam(at, lam0)

    monkeypatch.setattr(geo, "lambda_harmonics", with_nan)
    with pytest.raises(CoverageError, match="1 grid points"):
        backproject(filtered, Grid.centered(9, 0.5))


def lagrange_cubic(row, lam, lam0):
    """4-point Lagrange interpolation of one filtered row at lambda0 on the
    stencil clip(floor(t) - 1, 0, m - 4), in weight-polynomial form."""
    m = lam.size
    t = (lam0 - lam[0]) / (lam[1] - lam[0])
    i0 = np.clip(np.floor(t).astype(int) - 1, 0, m - 4)
    u = t - i0
    w0 = -(u - 1.0) * (u - 2.0) * (u - 3.0) / 6.0
    w1 = u * (u - 2.0) * (u - 3.0) / 2.0
    w2 = -u * (u - 1.0) * (u - 3.0) / 2.0
    w3 = u * (u - 1.0) * (u - 2.0) / 6.0
    return w0 * row[i0] + w1 * row[i0 + 1] + w2 * row[i0 + 2] + w3 * row[i0 + 3]


@pytest.mark.parametrize("m", (4, 5, 64, 2049))
def test_backproject_matches_the_lagrange_oracle(m, monkeypatch):
    # rough rows, with lambda0 on nodes, at midpoints, in the first and last
    # intervals (the clipped stencils) and up to the tolerance outside the axis
    rng = np.random.default_rng(m)
    lam = np.linspace(-0.7, 1.3, m)
    h = lam[1] - lam[0]
    tol = 1e-9 * (1.0 + lam[-1] - lam[0])
    probes = np.concatenate([
        lam,
        0.5 * (lam[:-1] + lam[1:]),
        lam[0] + h * rng.uniform(size=16),
        lam[-1] - h * rng.uniform(size=16),
        lam[0] - tol * rng.uniform(size=8),
        lam[-1] + tol * rng.uniform(size=8),
        [lam[0] - tol, lam[-1] + tol],
    ])
    # every probe at a pixel with y >= 0 of every row, where backproject's
    # mirror forms lambda0 and the stencil; the pixels below read the
    # mirror row's stencil
    n = int(np.ceil(np.sqrt(2 * probes.size)))
    upper = n - n // 2
    probes = np.concatenate([probes, rng.uniform(lam[0], lam[-1], n * upper - probes.size)])
    phi = uniform_phi(3)
    values = rng.normal(size=(phi.size, m))
    lam0 = mirrored([rng.permutation(probes).reshape(n, upper) for _ in phi], n)
    lam0_at = dict(zip(map(float, phi), lam0))
    # lambda0 enters at the pixels' harmonics, one call per row at its phi
    inject(monkeypatch, lam0_at)
    grid = Grid.centered(n, 0.5)

    got = backproject(FilteredSinogram(RADON, lam, phi, values), grid).values
    acc = sum(lagrange_cubic(row, lam, lam0_at[float(p)]) for row, p in zip(values, phi))
    want = -acc * (phi[1] - phi[0]) / (4.0 * np.pi**2 * geo.dcoef_closed(RADON, grid.points()))
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("m", (4, 513))
def test_backproject_stencils_at_the_axis_ends_match_the_lagrange_oracle(m, monkeypatch):
    # the stencil start is clip(floor(t) - 1, 0, m - 4): lambda0 just below
    # the axis, on its first node and in its first interval has t - 1 in
    # (-1, 0] and takes the bottom clip, where a start rounded toward zero
    # instead of down agrees only after the clip; the last interval, the
    # last node and just past it take the top clip
    rng = np.random.default_rng(m)
    lam = np.linspace(-0.7, 1.3, m)
    h = lam[1] - lam[0]
    tol = 1e-9 * (1.0 + lam[-1] - lam[0])
    probes = np.array([lam[0] - tol / 2, lam[0], lam[0] + h / 2, lam[-1] - h / 2, lam[-1], lam[-1] + tol / 2])
    phi = uniform_phi(2)
    values = rng.normal(size=(phi.size, m))
    # the six probes fill the 3 x 2 pixels with y >= 0 of each row
    lam0 = mirrored([rng.permutation(probes).reshape(3, 2) for _ in phi], 3)
    lam0_at = dict(zip(map(float, phi), lam0))
    inject(monkeypatch, lam0_at)
    grid = Grid.centered(3, 0.5)

    got = backproject(FilteredSinogram(RADON, lam, phi, values), grid).values
    acc = sum(lagrange_cubic(row, lam, lam0_at[float(p)]) for row, p in zip(values, phi))
    want = -acc * (phi[1] - phi[0]) / (4.0 * np.pi**2 * geo.dcoef_closed(RADON, grid.points()))
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def count_rows(monkeypatch):
    """Record every angle at which backproject asks for lambda0 from here on."""
    rows = []
    harmonics = geo.lambda_harmonics

    def counting(geom, x):
        at = harmonics(geom, x)

        def lam0(phi):
            rows.append(phi)
            return at(phi)

        return seam(at, lam0)

    monkeypatch.setattr(geo, "lambda_harmonics", counting)
    return rows


def per_row_backprojection(filtered, grid):
    """backproject with no fold: every row sampled at its own lambda0."""
    geom, pts = filtered.geom, grid.points()
    lam, phi = filtered.lambda_axis, filtered.phi_axis
    acc = sum(lagrange_cubic(row, lam, geo.lambda_of(geom, pts, p)) for row, p in zip(filtered.values, phi))
    sheet = geom.record.sheets(geom)
    return -acc * (phi[1] - phi[0]) / (4.0 * np.pi**2 * geo.dcoef_closed(geom, pts) * sheet)


def unfolded_table(sino):
    """pv_filter's table with no row folded: a full turn (a half turn
    mirrored to one) filtered row by row, on the evenly extended lambda axis
    of root-harmonics data."""
    lam, phi, g = sino.lambda_axis, sino.phi_axis, sino.data
    if sino.phi_full == "half":
        phi, g = np.concatenate([phi, phi + np.pi]), np.concatenate([g, g[:, ::-1]])
    if geo.lambda_harmonics(sino.geom).root:
        lam, g = np.concatenate([-lam[:0:-1], lam]), np.concatenate([g[:, :0:-1], g], axis=1)
    return FilteredSinogram(sino.geom, lam, phi, _fp_rows(g, lam))


def rough_radon_rows(n_phi, lam, half=False):
    rng = np.random.default_rng(n_phi)
    g = rng.normal(size=(n_phi, lam.size)) * (1.0 - lam**2) ** 2
    return Sinogram(RADON, lam, uniform_phi(n_phi, half), g)


FOLD_GRID = Grid.centered(17, 0.2, (0.05, 0.03))  # off the origin of the punctured families


def random_sinogram(geom, n_phi, asymmetric=False, half=False, lam=None):
    """Windowed rows of random low harmonics in lambda, neither even nor odd,
    on lam or else the family's default lambda axis of 65 nodes, which
    covers FOLD_GRID, its top end moved out by 1e-12 relative if asymmetric.
    Smooth rows keep the rounding of lambda0(x, phi + pi) against
    -lambda0(x, phi) from being magnified by the 1/h slopes of noise."""
    if lam is None:
        lam = default_axes(geom, 65, n_phi)[0]
        lam = np.linspace(lam[0], lam[-1] * (1.0 + 1e-12 * asymmetric), lam.size)
    phi = uniform_phi(n_phi, half)
    t = (2.0 * lam - lam[0] - lam[-1]) / (lam[-1] - lam[0])
    basis = np.concatenate([np.cos(np.outer(np.arange(4), np.pi * t)), np.sin(np.outer(np.arange(1, 4), np.pi * t))])
    values = np.random.default_rng(n_phi).normal(size=(n_phi, basis.shape[0])) @ basis
    return Sinogram(geom, lam, phi, values * (1.0 - t * t) ** 2)


# (sinogram, grid, rows pv_filter keeps and backproject asks lambda0 for);
# the radon grid holds the origin, where lambda0 = 0 is a node of every row
# and the reversed row is sampled on a stencil one node apart
RADON_GRID = Grid.centered(17, 0.6)
FOLD_CASES = {
    "full data": (rough_radon_rows(24, np.linspace(-1.0, 1.0, 65)), RADON_GRID, 12),
    "doubled half data": (rough_radon_rows(12, np.linspace(-1.0, 1.0, 65), half=True), RADON_GRID, 12),
    "odd n_phi": (rough_radon_rows(25, np.linspace(-1.0, 1.0, 65)), RADON_GRID, 25),
    "asymmetric lambda axis": (rough_radon_rows(24, np.linspace(-1.0, 1.0 + 1e-12, 65)), RADON_GRID, 24),
}
for _geom in (FUNK, HGEO, EQUI, CORMACK2):
    FOLD_CASES[f"{_geom.tag} even n_phi"] = (random_sinogram(_geom, 24), FOLD_GRID, 12)
    FOLD_CASES[f"{_geom.tag} odd n_phi"] = (random_sinogram(_geom, 25), FOLD_GRID, 25)
    FOLD_CASES[f"{_geom.tag} asymmetric lambda axis"] = (random_sinogram(_geom, 24, asymmetric=True), FOLD_GRID, 24)
for _geom in (HYPER, ELLIPSE, PARAB):
    FOLD_CASES[f"{_geom.tag} even n_phi"] = (random_sinogram(_geom, 24), FOLD_GRID, 24)


@pytest.mark.parametrize("sino, grid, rows", FOLD_CASES.values(), ids=FOLD_CASES.keys())
def test_pv_filter_folds_antipodal_rows(monkeypatch, sino, grid, rows):
    # row j + n/2 is row j reversed in lambda where lambda0 is odd in phi,
    # and the filter commutes with that reversal on a symmetric axis, so
    # folding the data before the filter reconstructs what filtering and
    # sampling every row does; without an even row count and a symmetric
    # axis no row is folded. Harmonics b cos phi + c sin phi alone make
    # lambda0 odd in phi, on radon and on funk, hgeodesic, equidistant and
    # cormack alike; a constant (hyperbola), k (ellipse) or root (parabola)
    # term does not, and there every row is filtered on its own too
    want = per_row_backprojection(unfolded_table(sino), grid)
    filtered = pv_filter(sino)
    asked = count_rows(monkeypatch)
    got = backproject(filtered, grid).values
    assert filtered.phi_axis.size == len(asked) == rows
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def oracle_backproject(filtered, grid, mirror=False):
    """backproject with a fresh power-form table per row: the form the
    shared-buffer loop must equal bit for bit. With mirror (a grid symmetric
    about the x1 axis), lambda0 and the stencil of each row are formed at the
    pixels with y >= 0 and sample there the row and, at the images
    (x1, -x2), its mirror row -j mod n, on a half turn reversed by sampling
    it at (m - 4 - k, 1 - s) (row 0 unreversed); rows are then taken in the
    order 0, 1, n - 1, 2, n - 2, ..."""
    geom, lam, phi, values = filtered.geom, filtered.lambda_axis, filtered.phi_axis, filtered.values
    (n, m), h = values.shape, lam[1] - lam[0]
    half = phi_coverage(geom, phi) == "half"
    v0, v1, v2, v3 = values[:, :-3], values[:, 1:-2], values[:, 2:-1], values[:, 3:]
    c1 = v2 - v0 / 3.0 - v1 / 2.0 - v3 / 6.0
    table = np.stack([v1, c1, (v0 + v2) / 2.0 - v1, (v3 - v0) / 6.0 + (v1 - v2) / 2.0], axis=1)
    q = grid.ny // 2 if mirror else 0
    pts = grid.points()
    lam0_at = geo.lambda_harmonics(geom, pts[:, q:])
    order = [r for j in range(n // 2 + 1) for r in dict.fromkeys((j, -j % n))] if mirror else range(n)
    acc = np.zeros((2, grid.nx, grid.ny - q))
    for j in order:
        s = (lam0_at(float(phi[j])) - lam[0]) / h - 1.0
        k = np.clip(np.floor(s), 0, m - 4)
        s -= k
        c = table[j][:, k.astype(np.intp)]
        acc[0] += ((c[3] * s + c[2]) * s + c[1]) * s + c[0]
        if mirror:
            if half and j:
                k, s = m - 4 - k, 1.0 - s
            c = table[-j % n][:, k.astype(np.intp)]
            acc[1] += ((c[3] * s + c[2]) * s + c[1]) * s + c[0]
    image = np.concatenate([acc[1, :, grid.ny - 2 * q :][:, ::-1], acc[0]], axis=1)
    sheet = geom.record.sheets(geom)
    return -image * (phi[1] - phi[0]) / (4.0 * np.pi**2 * np.asarray(geo.dcoef_closed(geom, pts)) * sheet)


@pytest.mark.parametrize(
    "filtered, grid, mirror",
    [
        (pv_filter(rough_radon_rows(150, np.linspace(-1.0, 1.0, 65))), RADON_GRID, True),  # folded: 75 rows
        (pv_filter(rough_radon_rows(151, np.linspace(-1.0, 1.0, 65))), RADON_GRID, True),  # 151 rows
        (pv_filter(random_sinogram(FUNK, 150)), FOLD_GRID, False),  # folded: 75 rows
        (pv_filter(random_sinogram(ELLIPSE, 130)), FOLD_GRID, False),  # 130 rows
    ],
    ids=["radon folded", "radon unfolded", "funk folded", "ellipse unfolded"],
)
def test_backproject_equals_the_fresh_table_form_bit_for_bit(filtered, grid, mirror):
    # RADON_GRID is symmetric about the x1 axis and its lambda axis is
    # [-1, 1], so even the folded half turn takes the mirror; FOLD_GRID is not
    assert backproject(filtered, grid).values.tobytes() == oracle_backproject(filtered, grid, mirror).tobytes()


def record_widths(monkeypatch):
    """Record the number of y columns of every grid backproject forms lambda0
    on from here on."""
    widths = []
    harmonics = geo.lambda_harmonics

    def recording(geom, x=None):
        if x is not None:
            widths.append(np.shape(x)[1])
        return harmonics(geom, x)

    monkeypatch.setattr(geo, "lambda_harmonics", recording)
    return widths


# grids symmetric about the x1 axis, clear of the origin of the punctured
# families, with a y = 0 column (odd) and without (even)
MIRROR_GRIDS = {n: Grid.centered(n, 0.2, (0.03, 0.0)) for n in (17, 16)}
CIRCLE = GeometryFamily("ellipse", e1=1.0, e2=1.0, support_radius=0.7)
# lambda axes of 65 nodes whose step is exact, lam[-1] - lam[0] = 64 h, and
# which cover the mirror grids and FOLD_GRID on the families with lambda0
# odd in phi
EXACT_AXES = {g: np.linspace(-w, w, 65) for g, w in ((RADON, 0.5), (FUNK, 0.5), (HGEO, 0.75), (EQUI, 0.875), (CORMACK2, 0.25))}
MIRROR_CASES = {}
for _geom in (RADON, FUNK, HGEO, EQUI, CORMACK2, ELLIPSE, CIRCLE, HYPER, PARAB):
    MIRROR_CASES[f"{geo.descriptor(_geom)} n_phi 25"] = random_sinogram(_geom, 25)
for _geom in (ELLIPSE, CIRCLE, HYPER, PARAB):
    MIRROR_CASES[f"{geo.descriptor(_geom)} n_phi 24"] = random_sinogram(_geom, 24)
for _geom, _lam in EXACT_AXES.items():
    MIRROR_CASES[f"{geo.descriptor(_geom)} folded"] = random_sinogram(_geom, 24, lam=_lam)
    MIRROR_CASES[f"{geo.descriptor(_geom)} half range"] = random_sinogram(_geom, 12, half=True, lam=_lam)


@pytest.mark.parametrize("n", MIRROR_GRIDS)
@pytest.mark.parametrize("sino", MIRROR_CASES.values(), ids=MIRROR_CASES.keys())
def test_backproject_mirror_matches_every_row_sampled_at_every_pixel(monkeypatch, sino, n):
    # lambda0(x1, -x2, phi) = lambda0(x, -phi) on every family, so on a grid
    # symmetric about the x1 axis backproject forms lambda0 and the stencil
    # on the pixels with y >= 0 alone and samples the mirror row at their
    # images: row -j mod n of a full turn, or row n - j reversed in lambda
    # on a half turn (folded, or half-range data doubled)
    grid = MIRROR_GRIDS[n]
    filtered = pv_filter(sino)
    want = per_row_backprojection(filtered, grid)
    widths = record_widths(monkeypatch)
    got = backproject(filtered, grid).values
    assert widths == [n - n // 2]
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("n", MIRROR_GRIDS)
def test_backproject_takes_no_mirror_on_a_half_turn_whose_step_is_not_exact(monkeypatch, n):
    # funk's default axis is symmetric, but (lam[-1] - lam[0]) / h is not
    # 64, so a reversed row would be sampled off its own stencil: every row
    # is sampled at every pixel, as off the axis
    sino = random_sinogram(FUNK, 24)
    lam = sino.lambda_axis
    assert lam[0] == -lam[-1] and (lam[-1] - lam[0]) / (lam[1] - lam[0]) != lam.size - 1
    filtered = pv_filter(sino)
    assert filtered.phi_axis.size == 12
    want = oracle_backproject(filtered, MIRROR_GRIDS[n])
    widths = record_widths(monkeypatch)
    assert backproject(filtered, MIRROR_GRIDS[n]).values.tobytes() == want.tobytes()
    assert widths == [n]


@pytest.mark.parametrize("sino", MIRROR_CASES.values(), ids=MIRROR_CASES.keys())
def test_backproject_off_the_axis_is_the_per_row_loop_bit_for_bit(monkeypatch, sino):
    # FOLD_GRID is not symmetric about the x1 axis: no mirror, every row at
    # every pixel in row order
    filtered = pv_filter(sino)
    want = oracle_backproject(filtered, FOLD_GRID)
    widths = record_widths(monkeypatch)
    assert backproject(filtered, FOLD_GRID).values.tobytes() == want.tobytes()
    assert widths == [FOLD_GRID.ny]


def test_invert_is_homogeneous():
    ph = Phantom((Gaussian((0.06, 0.04), 0.15),))
    lam, phi = default_axes(RADON, 65, 24)
    sino = forward_mphi(ph, RADON, lam, phi, rtol=0.0, n_start=64, n_max=128)
    grid = Grid.centered(11, 0.3)
    one = invert(sino, grid)
    two = invert(Sinogram(RADON, lam, phi, 2.0 * sino.data), grid)
    assert np.array_equal(two.values, 2.0 * one.values)


def test_radon_round_trip():
    ph = Phantom((Gaussian((0.06, 0.04), 0.15),))
    lam, phi = default_axes(RADON, 129, 90)
    sino = forward_mphi(ph, RADON, lam, phi)
    grid = Grid.centered(33, 0.45)
    rec = invert(sino, grid)
    assert rec.rel_l2(ph.rasterize(grid)) <= 0.02


def test_half_range_radon_round_trip():
    ph = Phantom((Gaussian((0.06, 0.04), 0.15),))
    lam, phi = default_axes(RADON, 129, 45, half=True)
    sino = forward_mphi(ph, RADON, lam, phi)
    grid = Grid.centered(33, 0.45)
    rec = invert(sino, grid)
    assert rec.rel_l2(ph.rasterize(grid)) <= 0.02


# the acceptance phantoms of the families whose lambda0 is odd in phi, and
# CI's three Gaussians for cormack k = 3
HALF_RANGE_CASES = {
    rt.label: (rt.geom, rt.phantom, rt.center, rt.extent)
    for rt in _round_trips()
    if geo.lambda_harmonics(rt.geom).odd
}
HALF_RANGE_CASES["cormack3"] = (
    GeometryFamily("cormack", k=3),
    Phantom(tuple(Gaussian((0.55 * np.cos(a), 0.55 * np.sin(a)), 0.0675) for a in (0.0, TAU / 3, -TAU / 3))),
    (0.55, 0.0),
    0.32,
)


@pytest.mark.parametrize("label", HALF_RANGE_CASES)
def test_half_range_reconstruction_matches_full_range(label):
    # g(-lambda, phi + pi) = g(lambda, phi) where lambda0 is odd in phi, so
    # pv_filter folds the full turn to half a turn, and half a turn of data,
    # filtered as 2 g, gives the full turn's reconstruction
    geom, ph, center, extent = HALF_RANGE_CASES[label]
    # an even n_lambda keeps lambda = 0, where cormack k = 3 rows diverge, off the axis
    lam, phi_full = default_axes(geom, 128, 90)
    _, phi_half = default_axes(geom, 128, 45, half=True)
    grid = Grid.centered(33, extent, center)
    full_sino = forward_mphi(ph, geom, lam, phi_full)
    full = invert(full_sino, grid)
    half_sino = forward_mphi(ph, geom, lam, phi_half)
    assert half_sino.phi_full == "half"
    for table in (pv_filter(full_sino), pv_filter(half_sino)):
        assert table.phi_axis.size == 45
        assert_allclose(table.phi_axis, phi_half, rtol=0, atol=1e-14)
    assert invert(half_sino, grid).rel_l2(full) <= 1e-6


def test_cormack_reconstructs_the_k_fold_rotational_average():
    # cormack curves of order k are unchanged by a turn of 2 pi / k, so f and
    # its k-fold average f_k = (1/k) sum_m f(R(2 pi m / k) x) have the same
    # data, and invert returns f_k: here half the Gaussian at (0.2, 0) and
    # half its mirror at (-0.2, 0)
    k = 2
    geom = GeometryFamily("cormack", k=k)
    ph = Phantom((Gaussian((0.2, 0.0), 0.03),))
    lam, phi = default_axes(geom, 513, 180)
    grid = Grid.centered(32, 0.31)
    rec = invert(forward_mphi(ph, geom, lam, phi), grid)
    pts = grid.points()
    f_k = ScalarField(grid, np.mean([ph.eval(pts, TAU * m / k) for m in range(k)], axis=0))
    assert rec.rel_l2(f_k) <= 0.05
    assert rec.rel_l2(ph.rasterize(grid)) >= 0.5


def test_riemann_round_trip_divides_by_both_weights():
    ph = Phantom((Gaussian((0.04, 0.03), 0.105),))
    lam, phi = default_axes(HGEO, 129, 90)
    sino = forward_riemann(ph, HGEO, lam, phi)
    grid = Grid.centered(25, 0.3)
    rec = reconstruct_riemann(sino, grid)
    assert rec.rel_l2(ph.rasterize(grid)) <= 0.02
