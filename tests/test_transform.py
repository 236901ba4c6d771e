"""Forward transform, curve tracing, and sinogram plumbing.

The quadrature is pinned against cases with closed-form answers: straight
chords of an indicator disc, Gaussian line projections, and circular curve
integrals where the weight is constant along the curve. Tracing output is
validated by plugging the vertices back into the level-set equation rather
than by comparing against any stored reference.
"""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

from funkradon import (
    DivergentRowError,
    FactorizationUnavailableError,
    GeometryFamily,
    Phantom,
    Sinogram,
    TracingError,
    forward_mphi,
    invert,
    pv_filter,
    read_fkr1,
    trace_curve,
    write_fkr1,
)
from funkradon import geometry, transform
from funkradon.acceptance import _round_trips
from funkradon.fields import Grid
from funkradon.geometry import descriptor, lambda_of
from funkradon.phantom import Disc, Gaussian, parse_phantom
from funkradon.transform import (
    _TABLE_POINTS,
    _row_sums,
    _stretch_map,
    _working_radius,
    default_axes,
    forward_riemann,
    riemann_to_mphi,
)

TAU = 2.0 * np.pi

RADON = GeometryFamily("radon")
FUNK = GeometryFamily("funk", support_radius=0.8)
HGEO = GeometryFamily("hgeodesic", support_radius=0.7)
EQUI = GeometryFamily("equidistant", support_radius=0.4)
CIRCLE = GeometryFamily("ellipse", e1=1.0, e2=1.0)
HYPER = GeometryFamily("hyperbola", eps=2.0)
PARAB = GeometryFamily("parabola")
CORMACK2 = GeometryFamily("cormack", k=2)
ELLIPSE = GeometryFamily("ellipse", e1=1.2, e2=0.8, support_radius=0.7)

# fixed two-level quadrature: deterministic and exactly linear in the phantom
FIXED = dict(rtol=0.0, n_start=128, n_max=256)


def uniform_phi(n, half=False):
    span = np.pi if half else TAU
    return np.arange(n) * (span / n)


# ---------------------------------------------------------------------------
# sinogram container


def test_sinogram_accepts_forward_axes():
    lam, phi = default_axes(RADON, 5, 8)
    s = Sinogram(RADON, lam, phi, np.zeros((8, 5)))
    assert s.n_lambda == 5
    assert s.n_phi == 8
    assert s.phi_full == "full"
    assert s.kind == "mphi"


def test_sinogram_half_range_radon():
    lam, phi = default_axes(RADON, 5, 6, half=True)
    assert_allclose(phi[-1], np.pi * 5 / 6, rtol=1e-15)
    s = Sinogram(RADON, lam, phi, np.ones((6, 5)))
    assert s.phi_full == "half"


def test_sinogram_rejects_unknown_kind():
    lam, phi = default_axes(RADON, 3, 4)
    with pytest.raises(ValueError, match="unknown sinogram kind"):
        Sinogram(RADON, lam, phi, np.zeros((4, 3)), kind="attenuated")


def test_sinogram_rejects_short_lambda_axis():
    with pytest.raises(ValueError, match="at least two samples"):
        Sinogram(RADON, [0.0], uniform_phi(4), np.zeros((4, 1)))


def test_sinogram_rejects_nonuniform_lambda():
    with pytest.raises(ValueError, match="uniform and ascending"):
        Sinogram(RADON, [-0.5, 0.0, 0.7], uniform_phi(4), np.zeros((4, 3)))
    with pytest.raises(ValueError, match="uniform and ascending"):
        Sinogram(RADON, [0.5, 0.0, -0.5], uniform_phi(4), np.zeros((4, 3)))


def test_sinogram_rejects_bad_phi_axis():
    lam = np.linspace(-1.0, 1.0, 3)
    with pytest.raises(ValueError, match="at least two samples"):
        Sinogram(RADON, lam, [0.0], np.zeros((1, 3)))
    with pytest.raises(ValueError, match="uniform starting at 0"):
        Sinogram(RADON, lam, [0.1, 0.1 + np.pi], np.zeros((2, 3)))
    with pytest.raises(ValueError, match=r"tile \[0, 2pi\) or \[0, pi\)"):
        Sinogram(RADON, lam, [0.0, 0.5], np.zeros((2, 3)))


@pytest.mark.parametrize("geom", (ELLIPSE, CIRCLE, HYPER, PARAB), ids=descriptor)
def test_sinogram_half_range_needs_odd_lambda0(geom):
    lam, phi = default_axes(geom, 3, 4, half=True)
    with pytest.raises(ValueError, match=f"odd in phi.* which {geom.tag} is not"):
        Sinogram(geom, lam, phi, np.zeros((4, 3)))
    assert Sinogram(geom, *default_axes(geom, 3, 4), np.zeros((4, 3))).phi_full == "full"


@pytest.mark.parametrize("phi", ([], [0.0], [[0.0, np.pi], [0.0, np.pi]], 0.0), ids=("empty", "one", "2x2", "0-d"))
def test_phi_coverage_refuses_an_axis_that_is_not_1d_with_two_nodes(phi):
    with pytest.raises(ValueError, match="phi axis needs at least two samples"):
        transform.phi_coverage(RADON, phi)


# uniform turns from 0 reach the 'full' and 'half' answers, and the ellipse's
# refusal of a half turn; the raw arrays bring NaN, inf and nodes whose
# differences overflow, which must not warn
PHI_NODES = st.one_of(st.floats(), st.sampled_from((0.0, np.pi, np.nan, np.inf, -np.inf, 1.5e308, -1.5e308)))
PHI_AXES = st.one_of(
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=5), elements=PHI_NODES),
    st.builds(lambda n, span: np.linspace(0.0, span, n, endpoint=False), st.integers(0, 6), st.sampled_from((TAU, np.pi))),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(geom=st.sampled_from((RADON, ELLIPSE)), phi=PHI_AXES)
@example(geom=RADON, phi=np.array([np.inf, np.inf]))
@example(geom=RADON, phi=np.array([0.0, 1.5e308, -1.5e308]))
@example(geom=RADON, phi=np.array([0.0, 1e308]))
def test_phi_coverage_answers_or_raises_value_error_on_any_array(geom, phi):
    try:
        answer = transform.phi_coverage(geom, phi)
    except ValueError:
        return
    assert answer in ("full", "half")


def test_sinogram_rejects_shape_mismatch():
    lam, phi = default_axes(RADON, 3, 4)
    with pytest.raises(ValueError, match=r"shape \(3, 4\) do not match the axes \(4, 3\)"):
        Sinogram(RADON, lam, phi, np.zeros((3, 4)))


def test_phi_coverage_runs_once_per_table(monkeypatch, tmp_path):
    # each table holds phi_coverage's answer as phi_full, which the FKR1
    # writer, pv_filter and backprojection's mirror read; a forward checks
    # its axes before any quadrature, then builds its Sinogram
    calls = []
    real = transform.phi_coverage
    monkeypatch.setattr(transform, "phi_coverage", lambda geom, phi: calls.append(phi) or real(geom, phi))

    def count(fn, *args):
        calls.clear()
        return fn(*args), len(calls)

    lam, phi = default_axes(RADON, 33, 8)
    sino, n = count(forward_mphi, Phantom((Gaussian((0.06, 0.04), 0.15),)), RADON, lam, phi)
    assert n == 2
    path = tmp_path / "s.fkr1"
    assert count(write_fkr1, path, sino)[1] == 0
    back, n = count(read_fkr1, path)
    assert n == 1 and back.phi_full == "full"
    # a grid symmetric about the x1 axis, so that backprojection mirrors rows
    _, n = count(invert, back, Grid.centered(9, 0.5))
    assert n == 1
    table, n = count(pv_filter, back)
    assert n == 1 and table.phi_full == "half"


def test_sinogram_rejects_non_finite_entries():
    lam, phi = default_axes(RADON, 3, 4)
    data = np.zeros((4, 3))
    data[2, 1] = np.nan
    with pytest.raises(ValueError, match="must be finite"):
        Sinogram(RADON, lam, phi, data)


def test_sinogram_rejects_out_of_range_lambda():
    phi = uniform_phi(4)
    with pytest.raises(ValueError, match="exceeds admissible range"):
        Sinogram(RADON, np.linspace(-1.0, 1.0 + 1e-6, 5), phi, np.zeros((4, 5)))
    # the exact endpoints are admissible
    Sinogram(RADON, np.linspace(-1.0, 1.0, 5), phi, np.zeros((4, 5)))


def test_default_axes_span_admissible_interval():
    lam, phi = default_axes(HYPER, 9, 6)
    assert lam[0] == -3.0 and lam[-1] == 1.0
    assert phi[0] == 0.0
    assert_allclose(np.diff(phi), TAU / 6, rtol=1e-15)


# ---------------------------------------------------------------------------
# curve tracing


def polyline_max_step(line):
    return float(np.max(np.hypot(*np.diff(line, axis=0).T)))


def residual(geom, line, lam, phi):
    return float(np.max(np.abs(lambda_of(geom, line, phi) - lam)))


def test_trace_radon_diameter():
    lines = trace_curve(RADON, 0.0, 0.0, region=1.0, step=0.05)
    assert len(lines) == 1
    pts = lines[0]
    # the level set <x, e(0)> = 0 is the vertical diameter
    assert np.max(np.abs(pts[:, 0])) <= 1e-10
    assert pts[:, 1].min() == pytest.approx(-1.0, abs=1e-9)
    assert pts[:, 1].max() == pytest.approx(1.0, abs=1e-9)
    assert polyline_max_step(pts) <= 0.05 * 1.01


def test_trace_circle_family_closed_curve():
    lines = trace_curve(CIRCLE, 0.25, 0.0, region=1.6, step=0.02)
    assert len(lines) == 1
    pts = lines[0]
    assert residual(CIRCLE, pts, 0.25, 0.0) <= 1e-10 * 1.25
    # contained in the region, radius 0.5 about (1, 0), traced all the way round
    assert_allclose(np.hypot(pts[:, 0] - 1.0, pts[:, 1]), 0.5, atol=1e-9)
    assert np.hypot(*(pts[0] - pts[-1])) <= 1e-9
    assert polyline_max_step(pts) <= 0.02 * 1.01


def test_trace_hyperbola_branch():
    lines = trace_curve(HYPER, 1.0, 0.0, region=3.0, step=0.05)
    assert len(lines) == 1
    pts = lines[0]
    assert residual(HYPER, pts, 1.0, 0.0) <= 1e-10 * 2.0
    # the branch passes through its vertex 2 x1 - |x| = 1 at (1, 0)
    gap = np.min(np.hypot(pts[:, 0] - 1.0, pts[:, 1]))
    assert gap <= 0.05


def test_trace_parabola_positive_lambda():
    lines = trace_curve(PARAB, 0.8, 0.0, region=1.5, step=0.03)
    assert len(lines) == 1
    pts = lines[0]
    assert residual(PARAB, pts, 0.8, 0.0) <= 1e-10 * 1.8
    r = np.hypot(pts[:, 0], pts[:, 1])
    assert_allclose(r + pts[:, 0], 0.64, atol=1e-9)


def test_trace_cormack_zero_level_rays():
    lines = trace_curve(CORMACK2, 0.0, 0.0, region=1.0, step=0.05)
    # cos(2 theta) = 0 inside the disc: four radial spokes
    assert len(lines) == 4
    angles = sorted(math.atan2(p[-1, 1], p[-1, 0]) % TAU for p in lines)
    assert_allclose(angles, [np.pi / 4, 3 * np.pi / 4, 5 * np.pi / 4, 7 * np.pi / 4], atol=1e-12)
    for pts in lines:
        assert residual(CORMACK2, pts, 0.0, 0.0) <= 1e-10


def test_trace_parabola_zero_level_backward_ray():
    # r + <x, e(phi)> = 0 on the backward ray, whose sqrt has no slope to
    # project along; the ray is drawn from its closed form
    lines = trace_curve(PARAB, 0.0, 0.7, region=1.0, step=0.05)
    assert len(lines) == 1
    pts = lines[0]
    back = np.array([np.cos(0.7 + np.pi), np.sin(0.7 + np.pi)])
    assert np.max(np.abs(pts[:, 0] * back[1] - pts[:, 1] * back[0])) <= 1e-15
    assert np.all(pts @ back > 0.0)
    assert pts[-1] @ back == pytest.approx(1.0, rel=1e-12)
    assert polyline_max_step(pts) <= 0.05 * 1.01


def test_trace_parabola_next_to_lambda_zero():
    # the arc out along the backward ray and back, drawn from its polynomial
    # map; r + <x, e> = lambda^2 = 1e-18 at every vertex
    phi = 0.3
    lines = trace_curve(PARAB, 1e-9, phi, region=0.7, step=0.01)
    assert len(lines) == 1
    pts = lines[0]
    e = np.array([np.cos(phi), np.sin(phi)])
    assert np.max(np.abs(np.hypot(pts[:, 0], pts[:, 1]) + pts @ e - 1e-18)) <= 1e-15
    assert np.max(np.hypot(pts[:, 0], pts[:, 1])) == pytest.approx(0.7, rel=1e-12)
    assert polyline_max_step(pts) <= 0.01 * 1.01


@pytest.mark.parametrize("k", (2, 3))
def test_trace_cormack_draws_one_polyline_per_sheet(k):
    # the k sheets of r^k cos(k theta - phi) = lambda are one arc turned by
    # 2 pi m / k about the origin
    geom = GeometryFamily("cormack", k=k)
    lines = trace_curve(geom, 0.2, 0.4, region=1.0, step=0.05)
    assert len(lines) == k
    for m, pts in enumerate(lines):
        assert residual(geom, pts, 0.2, 0.4) <= 1e-12
        c, s = np.cos(TAU * m / k), np.sin(TAU * m / k)
        turned = np.stack([c * lines[0][:, 0] - s * lines[0][:, 1], s * lines[0][:, 0] + c * lines[0][:, 1]], axis=-1)
        assert_allclose(pts, turned, atol=1e-14)
        assert polyline_max_step(pts) <= 0.05 * 1.01


@pytest.mark.parametrize("lam", (1e-4, 1e-8))
def test_trace_hgeodesic_near_the_line_is_exact(lam):
    # circles of radius ~1 / lambda: every vertex solves
    # 2 <x, e> = lambda (1 + |x|^2) to rounding, in extended precision
    phi = 0.3
    lines = trace_curve(HGEO, lam, phi, region=0.7, step=0.05)
    assert len(lines) == 1
    x = lines[0].astype(np.longdouble)
    e = np.array([np.cos(phi), np.sin(phi)], dtype=np.longdouble)
    resid = np.abs(2.0 * (x @ e) - np.longdouble(lam) * (1.0 + np.sum(x * x, axis=1))) / 2.0
    assert float(np.max(resid)) <= 1e-15
    assert np.max(np.hypot(*lines[0].T)) == pytest.approx(0.7, rel=1e-12)
    assert polyline_max_step(lines[0]) <= 0.05 * 1.01


def test_trace_misses_region():
    assert trace_curve(RADON, 0.9, 0.0, region=0.5, step=0.05) == []
    # the zero-lambda ellipse curve degenerates to a point and is omitted
    assert trace_curve(CIRCLE, 0.0, 0.3, region=1.5, step=0.05) == []


def test_trace_validates_arguments():
    with pytest.raises(ValueError, match="step must be positive"):
        trace_curve(RADON, 0.0, 0.0, region=1.0, step=0.0)
    with pytest.raises(ValueError, match="region radius must be positive"):
        trace_curve(RADON, 0.0, 0.0, region=-1.0, step=0.1)


# ---------------------------------------------------------------------------
# forward transform: closed-form pins


def test_radon_indicator_disc_chords():
    # unit indicator disc: the chord length at offset lambda is 2 sqrt(1 - lambda^2)
    ph = Phantom((Disc((0.0, 0.0), 1.0),))
    lam = np.linspace(-0.96, 0.96, 25)
    sino = forward_mphi(ph, RADON, lam, uniform_phi(8))
    chord = 2.0 * np.sqrt(1.0 - lam * lam)
    assert_allclose(sino.data, np.broadcast_to(chord, sino.data.shape), rtol=1e-13)
    pinned = forward_mphi(ph, RADON, np.array([-0.6, 0.0, 0.6]), uniform_phi(4))
    assert pinned.data[0, 2] == pytest.approx(1.6, rel=1e-13)
    assert pinned.data[0, 1] == pytest.approx(2.0, rel=1e-13)


def test_radon_gaussian_projections():
    sg = 0.2
    ph = Phantom((Gaussian((0.0, 0.0), sg),))
    lam = np.linspace(-0.9, 0.9, 19)
    sino = forward_mphi(ph, RADON, lam, uniform_phi(4), rtol=1e-10)
    want = sg * np.sqrt(TAU) * np.exp(-0.5 * (lam / sg) ** 2)
    assert np.max(np.abs(sino.data - want[None, :])) <= 1e-8


def test_circle_family_gaussian_centered_on_a_center():
    # f is constant along every curve about e(0): the weighted integral of
    # exp(-lambda / 2 sigma^2) over a circle of radius sqrt(lambda) against
    # 1/(2 sqrt(lambda)) is exactly pi exp(-lambda / 2 sigma^2)
    sigma = 0.05
    geom = GeometryFamily("ellipse", e1=1.0, e2=1.0, support_radius=1.3)
    ph = Phantom((Gaussian((1.0, 0.0), sigma),))
    lam = np.linspace(0.0, 0.12, 13)
    sino = forward_mphi(ph, geom, lam, uniform_phi(2))
    want = np.pi * np.exp(-0.5 * lam / sigma**2)
    assert_allclose(sino.data[0], want, rtol=1e-12)


def test_circle_family_zero_lambda_row_is_pi_f_at_centers():
    # shrinking curves converge onto e(phi) with a finite limiting value
    sigma = 0.4
    geom = GeometryFamily("ellipse", e1=1.0, e2=1.0, support_radius=3.4)
    ph = Phantom((Gaussian((1.0, 0.0), sigma),))
    lam = np.linspace(0.0, 0.5, 3)
    phi = uniform_phi(12)
    sino = forward_mphi(ph, geom, lam, phi)
    want = np.pi * np.exp(-0.5 * (2.0 - 2.0 * np.cos(phi)) / sigma**2)
    assert_allclose(sino.data[:, 0], want, rtol=1e-12)


def circle_arc_angle_inside_disc(curve_center, rc, disc_center, disc_radius):
    """Half-angle of {curve_center + rc e(beta)} inside the disc, found by
    bisecting the boundary crossing of the distance function."""

    def outside(beta):
        p = curve_center + rc * np.array([np.cos(beta), np.sin(beta)])
        return np.hypot(*(p - disc_center)) - disc_radius

    # beta measured from the point nearest the disc center
    u = (disc_center - curve_center) / np.hypot(*(disc_center - curve_center))
    base = math.atan2(u[1], u[0])
    if outside(base) > 0:
        return 0.0
    if outside(base + np.pi) < 0:
        return np.pi
    lo, hi = 0.0, np.pi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if outside(base + mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_circle_family_indicator_disc_angles():
    disc = Disc((1.2, 0.0), 0.3, amplitude=2.0)
    geom = GeometryFamily("ellipse", e1=1.0, e2=1.0, support_radius=1.5)
    lam = np.linspace(0.01, 1.21, 11)
    sino = forward_mphi(Phantom((disc,)), geom, lam, uniform_phi(6))
    for j, phi in enumerate(sino.phi_axis):
        ctr = np.array([np.cos(phi), np.sin(phi)])
        for i, lv in enumerate(lam):
            gamma = circle_arc_angle_inside_disc(ctr, np.sqrt(lv), np.array(disc.center), disc.radius)
            assert sino.data[j, i] == pytest.approx(2.0 * gamma, abs=1e-10)


def test_sharp_disc_riemann_data_are_mphi_data_times_mu():
    disc = Disc((0.2, -0.1), 0.3, amplitude=2.0)
    ph = Phantom((disc,))
    lam, phi = default_axes(RADON, 17, 6)
    a = forward_mphi(ph, RADON, lam, phi)
    b = forward_riemann(ph, RADON, lam, phi)
    assert b.kind == "riemann"
    assert np.array_equal(a.data, b.data)

    # on the circle of radius sqrt(lambda) the arc inside the disc has
    # length 2 sqrt(lambda) gamma, gamma its half-angle
    disc = Disc((1.2, 0.0), 0.3, amplitude=2.0)
    geom = GeometryFamily("ellipse", e1=1.0, e2=1.0, support_radius=1.5)
    lam = np.linspace(0.0, 1.21, 12)
    sino = forward_riemann(Phantom((disc,)), geom, lam, uniform_phi(6))
    for j, phi in enumerate(sino.phi_axis):
        ctr = np.array([np.cos(phi), np.sin(phi)])
        for i, lv in enumerate(lam):
            gamma = circle_arc_angle_inside_disc(ctr, np.sqrt(lv), np.array(disc.center), disc.radius)
            assert sino.data[j, i] == pytest.approx(disc.amplitude * 2.0 * np.sqrt(lv) * gamma, abs=1e-10)


def test_sharp_disc_families_have_unit_spatial_weight():
    # the forward turns sharp-disc mphi data into arc-length data by mu(lambda)
    # alone, which needs m = 1 on every family that has them
    geoms = (RADON, FUNK, HGEO, EQUI, CIRCLE, HYPER, PARAB, CORMACK2)
    assert {g.tag for g in geoms} == set(geometry.TAGS)
    rng = np.random.default_rng(5)
    r = rng.uniform(0.05, 0.35, 20)
    th = rng.uniform(0.0, TAU, 20)
    pts = np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)
    with_discs = [g for g in geoms if g.record.sharp_disc_data is not None]
    assert with_discs
    for g in with_discs:
        assert np.array_equal(geometry.weight_m(g, pts), np.ones(20)), g.tag


def oracle_radon_chords(disc, lam, phi):
    """Radon's sharp-disc data with a fresh array per operation, the form the
    in-place chords must equal bit for bit."""
    dist = np.cos(phi)[:, None] * disc.center[0] + np.sin(phi)[:, None] * disc.center[1] - lam[None, :]
    chord = 2.0 * np.sqrt(np.maximum(disc.radius**2 - dist * dist, 0.0))
    return disc.amplitude * chord


def oracle_ellipse_angles(g, disc, lam, phi):
    """The ellipse family's sharp-disc data with full-size arrays throughout,
    the form the in-place angles must equal bit for bit."""
    rc = np.sqrt(np.maximum(lam[None, :], 0.0)) + np.zeros((phi.size, 1))
    cx = g.e1 * np.cos(phi)[:, None] - disc.center[0]
    cy = g.e2 * np.sin(phi)[:, None] - disc.center[1]
    d = np.hypot(cx, cy) + np.zeros_like(rc)
    with np.errstate(divide="ignore", invalid="ignore"):
        cu = (d * d + rc * rc - disc.radius**2) / (2.0 * d * rc)
    cu = np.where(np.isfinite(cu), cu, np.where(d + rc <= disc.radius, -1.0, 1.0))
    return disc.amplitude * np.arccos(np.clip(cu, -1.0, 1.0))


TWO_DISCS = (Disc((0.05, -0.03), 0.35, 1.0), Disc((-0.1, 0.1), 0.1, 0.5))


def test_sharp_disc_data_equal_the_full_array_forms_bit_for_bit():
    # two discs, a disc centred on e(0) (d = 0 at phi = 0) and one that holds
    # every circle (d + rc <= r), on lambda axes with a node at lambda = 0 (rc = 0)
    discs = TWO_DISCS + (Disc((1.2, 0.0), 0.2, 2.0), Disc((0.0, 0.0), 3.0, 0.7))
    phi = uniform_phi(48)
    for geom, lam, oracle in (
        (RADON, np.linspace(-1.0, 1.0, 65), lambda disc, lam: oracle_radon_chords(disc, lam, phi)),
        (ELLIPSE, np.linspace(0.0, 4.0, 65), lambda disc, lam: oracle_ellipse_angles(ELLIPSE, disc, lam, phi)),
        (CIRCLE, np.linspace(0.0, 4.0, 65), lambda disc, lam: oracle_ellipse_angles(CIRCLE, disc, lam, phi)),
    ):
        for disc in discs:
            got = geom.record.sharp_disc_data(geom, disc, lam, phi)
            assert got.tobytes() == oracle(disc, lam).tobytes(), (geom.tag, disc)
        # the forward sums the discs' tables, times mu on arc-length data
        lam, phi_axis = default_axes(geom, 65, 48)
        want = np.zeros((phi.size, lam.size))
        for disc in TWO_DISCS:
            want += oracle(disc, lam) * 1.0
        got = forward_mphi(Phantom(TWO_DISCS), geom, lam, phi_axis).data
        assert got.tobytes() == want.tobytes(), geom.tag
        want = np.zeros((phi.size, lam.size))
        for disc in TWO_DISCS:
            want += oracle(disc, lam) * geometry.weight_mu(geom, lam)
        got = forward_riemann(Phantom(TWO_DISCS), geom, lam, phi_axis).data
        assert got.tobytes() == want.tobytes(), geom.tag


def test_two_disc_ellipse_forward_holds_one_disc_table_at_a_time():
    # at 360 x 2049 the data and one disc's table with its divisor are three
    # arrays (17.0 MiB when measured; 34.5 MiB, six arrays, when every
    # operation made a full-size temporary and the forward kept the last
    # table while making the next)
    lam, phi = default_axes(ELLIPSE, 2049, 360)
    tracemalloc.start()
    try:
        sino = forward_mphi(Phantom(TWO_DISCS), ELLIPSE, lam, phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * sino.data.nbytes


def test_sharp_disc_rejected_off_the_analytic_families():
    ph = Phantom((Disc((0.1, 0.0), 0.2),))
    lam, phi = default_axes(FUNK, 5, 4)
    with pytest.raises(ValueError, match="mollification width"):
        forward_mphi(ph, FUNK, lam, phi)
    # a mollified disc goes through the quadrature path fine
    soft = Phantom((Disc((0.1, 0.0), 0.2, width=0.05),))
    sino = forward_mphi(soft, FUNK, lam, phi, **FIXED)
    assert np.all(np.isfinite(sino.data))
    assert np.max(sino.data) > 0


# ---------------------------------------------------------------------------
# forward transform: structural properties


def test_forward_is_linear_in_the_phantom():
    # equal support radii keep the integration windows identical across the
    # three calls, so superposition holds down to rounding
    g1 = Gaussian((0.3, 0.0), 0.1)
    g2 = Gaussian((-0.18, 0.24), 0.1, amplitude=0.7)
    lam = np.linspace(-0.9, 0.9, 9)
    phi = uniform_phi(6)
    both = forward_mphi(Phantom((g1, g2)), RADON, lam, phi, **FIXED)
    one = forward_mphi(Phantom((g1,)), RADON, lam, phi, **FIXED)
    two = forward_mphi(Phantom((g2,)), RADON, lam, phi, **FIXED)
    scale = float(np.max(np.abs(both.data)))
    assert np.max(np.abs(both.data - (one.data + two.data))) <= 1e-13 * scale


def test_radon_antipodal_symmetry():
    ph = Phantom((Gaussian((0.3, 0.1), 0.1), Gaussian((-0.2, 0.15), 0.08, amplitude=0.7)))
    lam = np.linspace(-0.9, 0.9, 21)
    phi = uniform_phi(8)
    sino = forward_mphi(ph, RADON, lam, phi, **FIXED)
    flipped = np.roll(sino.data, -4, axis=0)[:, ::-1]
    assert_allclose(sino.data, flipped, rtol=1e-11, atol=1e-13)


def test_funk_antipodal_symmetry():
    # great circles project to lines: swapping phi -> phi + pi flips lambda
    ph = Phantom((Gaussian((0.2, 0.1), 0.1), Gaussian((-0.15, -0.2), 0.12, amplitude=0.5)))
    lam = np.linspace(-0.7, 0.7, 15)
    phi = uniform_phi(8)
    sino = forward_mphi(ph, FUNK, lam, phi, **FIXED)
    flipped = np.roll(sino.data, -4, axis=0)[:, ::-1]
    assert_allclose(sino.data, flipped, rtol=1e-11, atol=1e-13)


class _NaNComponent:
    """A component that evaluates to NaN; Gaussian and Disc refuse to be built
    with non-finite parameters, so the forward guard needs one of its own."""

    support_radius = 0.3

    def eval(self, x, turn=0.0):
        return np.full(np.shape(turn) + np.shape(x)[:-1], np.nan)


def test_forward_rejects_non_finite_phantom_values():
    with pytest.raises(ValueError, match="finite"):
        Gaussian((0.0, 0.0), 0.1, amplitude=float("nan"))
    ph = Phantom((_NaNComponent(),))
    lam = np.linspace(-0.5, 0.5, 5)
    with pytest.raises(ValueError, match="non-finite value on a curve"):
        forward_mphi(ph, RADON, lam, uniform_phi(4), **FIXED)


def test_forward_rejects_support_outside_domain():
    ph = Phantom((Gaussian((0.9, 0.0), 0.02),))  # support 1.02, past the unit disc
    lam = np.linspace(-0.5, 0.5, 5)
    with pytest.raises(ValueError, match="strictly inside the family domain"):
        forward_mphi(ph, EQUI, lam, uniform_phi(4))


# a ring of Gaussians that vanishes at the origin, so that the cormack rows
# at lambda = 0 converge, and that every lambda = 0 ray meets
RING = Phantom(tuple(Gaussian((0.5 * np.cos(a), 0.5 * np.sin(a)), 0.05) for a in np.arange(12) * (TAU / 12)))


WORKER_CASES = {
    "radon": (RADON, Phantom((Gaussian((0.2, 0.1), 0.15),)), 4),
    # seven columns split unevenly between the workers: cormack and the
    # parabola share one arc table, the unequal ellipse maps one per column
    "cormack3": (GeometryFamily("cormack", k=3), RING, 7),
    "parabola": (PARAB, RING, 7),
    "ellipse": (GeometryFamily("ellipse", e1=1.2, e2=0.8, support_radius=0.7), RING, 7),
    # the hyperbola's lambda = 0 rays and hgeodesic's lambda = 0 line arc
    # have one row each, which a worker's columns evaluate in one call; the
    # hyperbola has no arc-length data
    "hyperbola": (HYPER, RING, 7),
    "hgeodesic": (HGEO, RING, 7),
}


@pytest.mark.parametrize(
    "forward, geom, ph, n_phi",
    [
        pytest.param(forward, *case, id=f"{label}-{kind}")
        for label, case in WORKER_CASES.items()
        for forward, kind in ((forward_mphi, "mphi"), (forward_riemann, "riemann"))
        if not (label == "hyperbola" and kind == "riemann")
    ],
)
def test_forward_worker_count_is_invisible(forward, geom, ph, n_phi):
    lam, phi = default_axes(geom, 17, n_phi)
    serial = forward(ph, geom, lam, phi)
    pooled = forward(ph, geom, lam, phi, workers=2)
    assert np.max(np.abs(serial.data)) > 0.0
    assert np.array_equal(serial.data, pooled.data)


@pytest.mark.parametrize("workers", (1, 2))
@pytest.mark.parametrize("rt", _round_trips(), ids=lambda rt: rt.label)
def test_forward_columns_do_not_depend_on_the_columns_beside_them(rt, workers):
    # every other column of 16 is a column of 8 at the same angle; the 16
    # share their calls and blocks with other columns than the 8 do, on one
    # worker or split between two
    lam = default_axes(rt.geom, 33, 8)[0]
    eight = forward_mphi(rt.phantom, rt.geom, lam, uniform_phi(8), workers=workers).data
    sixteen = forward_mphi(rt.phantom, rt.geom, lam, uniform_phi(16), workers=workers).data
    assert np.max(np.abs(eight)) > 0.0
    assert sixteen[::2].tobytes() == eight.tobytes()


@pytest.mark.parametrize("shift", (1e-11, 1e-9))
@pytest.mark.parametrize("geom", (HGEO, EQUI), ids=descriptor)
def test_poincare_rows_next_to_the_line_are_circles_not_zeros(geom, shift):
    # a lambda of 1e-9 makes a circle of radius 1e9: its arc in the working
    # disc must be found and integrated, not rounded away to an empty row
    ph = Phantom((Gaussian((0.04, 0.03), 0.105),))
    lam = np.linspace(-0.4, 0.4, 9)
    phi = uniform_phi(4)
    base = forward_mphi(ph, geom, lam, phi).data[:, 4]
    near = forward_mphi(ph, geom, lam + shift, phi).data[:, 4]
    assert np.min(base) > 0.1
    assert_allclose(near, base, rtol=1e-7)


# lambda axes with a node at 0, and the shifts that move it next to 0 (the
# parabola has no rows below lambda = 0)
NEAR_ZERO = {
    "hyperbola": (HYPER, np.linspace(-0.4, 0.4, 9), (1e-11, 1e-9, -1e-9)),
    "parabola": (PARAB, np.linspace(0.0, 0.8, 9), (1e-11, 1e-9)),
    "cormack2": (CORMACK2, np.linspace(-0.4, 0.4, 9), (1e-11, 1e-9, -1e-9)),
    "cormack3": (GeometryFamily("cormack", k=3), np.linspace(-0.4, 0.4, 9), (1e-11, 1e-9, -1e-9)),
}


@pytest.mark.parametrize("label, shift", [(k, sh) for k, v in NEAR_ZERO.items() for sh in v[2]])
def test_conic_rows_next_to_lambda_zero_match_the_zero_row(label, shift):
    # a row a hair off lambda = 0 is a conic arc hugging the rays of the zero
    # row, and its integral must be theirs, not a value the arc map loses
    geom, lam, _ = NEAR_ZERO[label]
    zero = int(np.flatnonzero(lam == 0.0)[0])
    phi = uniform_phi(4)
    base = forward_mphi(RING, geom, lam, phi).data[:, zero]
    near = forward_mphi(RING, geom, lam + shift, phi).data[:, zero]
    assert np.min(base) > 0.05 * np.max(base) > 0.0
    assert_allclose(near, base, rtol=1e-7)


@pytest.mark.parametrize("k", (2, 3))
def test_cormack_data_do_not_change_when_the_phantom_turns_by_2pi_over_k(k):
    # each curve is one sheet and its copies turned by 2 pi m / k, so a
    # phantom without that symmetry, turned by 2 pi / k, has the same data
    # (sigma 0.06 leaves f(0) = 3e-18, below what the rows next to
    # lambda = 0 allow at FIXED's rtol = 0; sigma 0.08 left 1.5e-10)
    geom = GeometryFamily("cormack", k=k)
    c, s = np.cos(TAU / k), np.sin(TAU / k)
    lam, phi = np.linspace(-0.3, 0.3, 6), uniform_phi(4)
    data = [
        forward_mphi(Phantom((Gaussian(centre, 0.06),)), geom, lam, phi, **FIXED).data
        for centre in ((0.5, 0.2), (0.5 * c - 0.2 * s, 0.5 * s + 0.2 * c))
    ]
    assert np.max(data[0]) > 0.01
    assert_allclose(data[1], data[0], rtol=1e-9, atol=1e-12 * np.max(data[0]))


# ---------------------------------------------------------------------------
# forward transform: refinement


def count_points(monkeypatch):
    """Count the values every Phantom.eval call returns from here on, one per
    point and turn, and the calls in counted[1]."""
    counted = [0, 0]
    evaluate = Phantom.eval

    def counting(self, x, turn=0.0):
        counted[0] += np.size(x) // 2 * np.size(turn)
        counted[1] += 1
        return evaluate(self, x, turn)

    monkeypatch.setattr(Phantom, "eval", counting)
    return counted


def test_forward_refines_only_unconverged_rows(monkeypatch):
    # the README's two-term phantom: the smoothstep rim is only C^1, so a few
    # rows refine to n_max while most stop at the first comparison; refining
    # whole columns to n_max instead would cost 16256 points per entry
    ph = parse_phantom("gauss:0.06,0.04,0.15,1;disc:-0.2,0.1,0.1,0.5,0.02")
    lam, phi = default_axes(RADON, 33, 16)
    counted = count_points(monkeypatch)
    forward_mphi(ph, RADON, lam, phi)
    assert counted[0] <= 2000 * lam.size * phi.size


def count_arc_maps(monkeypatch):
    """Record the number of nodes of every arc-map call from here on."""
    sizes = []
    arcs = geometry.arcs

    def counting(*args):
        out = arcs(*args)
        for arc in out:

            def mapto(B, act, mapto=arc.mapto):
                sizes.append(B.size)
                return mapto(B, act)

            arc.mapto = mapto
        return out

    monkeypatch.setattr(geometry, "arcs", counting)
    return sizes


def test_forward_maps_each_arc_once_per_level_for_all_columns(monkeypatch):
    # a column is its table's arcs turned, so at a fixed depth the arc maps
    # run as often and on as many nodes for 16 columns as for 4, rays and
    # cormack's sheets included
    sizes = count_arc_maps(monkeypatch)
    for geom in (RADON, HYPER, CORMACK2):
        lam = default_axes(geom, 17, 4)[0]
        calls = []
        for n_phi in (4, 16):
            sizes.clear()
            forward_mphi(RING, geom, lam, uniform_phi(n_phi), **FIXED)
            calls.append(list(sizes))
        assert calls[0] == calls[1] and len(calls[0]) > 0
    # rows that refine to n_max = 8192 are mapped in blocks, not all at once
    ph = parse_phantom("gauss:0.06,0.04,0.15,1;disc:-0.2,0.1,0.1,0.5,0.02")
    lam, phi = default_axes(RADON, 33, 4)
    sizes.clear()
    forward_mphi(ph, RADON, lam, phi, rtol=0.0, n_max=8192)
    assert max(sizes) <= _TABLE_POINTS < sum(sizes)


def test_forward_evaluates_whole_columns_together_within_the_table_bound(monkeypatch):
    # the columns that take a block whole share one Phantom.eval call where
    # all their values fit in _TABLE_POINTS, so the hyperbola's single-row
    # lambda = 0 rays cost a call per level, not one per column; a deep
    # level's blocks are that large on their own and keep a call each
    sizes = []
    evaluate = Phantom.eval

    def recording(self, x, turn=0.0):
        sizes.append((np.size(x) // 2, np.size(turn)))
        return evaluate(self, x, turn)

    monkeypatch.setattr(Phantom, "eval", recording)
    rt = next(rt for rt in _round_trips() if rt.label == "hyperbola")
    forward_mphi(rt.phantom, rt.geom, *default_axes(rt.geom, 129, 45))
    assert max(points * turns for points, turns in sizes) <= _TABLE_POINTS
    assert max(turns for _, turns in sizes) == 45
    sizes.clear()
    ph = parse_phantom("gauss:0.06,0.04,0.15,1;disc:-0.2,0.1,0.1,0.5,0.02")
    forward_mphi(ph, RADON, *default_axes(RADON, 33, 16), rtol=0.0, n_max=8192)
    assert max(points * turns for points, turns in sizes) <= _TABLE_POINTS < sum(p * t for p, t in sizes)


def test_row_sums_equal_multiply_then_sum_for_every_weight_shape():
    # a constant weight sums against ones, a per-node weight is one vector,
    # and a per-row-and-node weight pairs with the values node by node; the
    # contraction may order its sum differently, but by no more than
    # summation roundoff
    rng = np.random.default_rng(5)
    vals = rng.normal(size=(37, 129))
    for w in (
        np.ones(129),
        rng.uniform(0.5, 2.0, 129),
        rng.uniform(0.5, 2.0, (37, 129)),
        np.broadcast_to(rng.uniform(0.5, 2.0, (37, 1)), (37, 129)),
    ):
        want = (vals * w).sum(axis=1)
        bound = 129 * np.finfo(float).eps * np.abs(vals * w).sum(axis=1)
        assert np.all(np.abs(_row_sums(vals, w) - want) <= bound)


def test_forward_row_sums_see_all_three_weight_shapes(monkeypatch):
    # radon's weight is constant (ones after the first level, whose end nodes
    # count half: a per-node vector); funk's varies per row and node
    seen = set()

    def recorded(vals, w):
        seen.add("ones" if w.ndim == 1 and np.all(w == 1.0) else f"{w.ndim}-d")
        return row_sums(vals, w)

    row_sums = transform._row_sums
    monkeypatch.setattr(transform, "_row_sums", recorded)
    ph = parse_phantom("gauss:0.05,0.03,0.105,1")
    forward_mphi(ph, RADON, *default_axes(RADON, 17, 4), **FIXED)
    assert seen == {"ones", "1-d"}
    seen.clear()
    forward_mphi(ph, FUNK, *default_axes(FUNK, 17, 4), **FIXED)
    assert seen == {"2-d"}


def test_forward_with_zero_rtol_runs_every_row_to_n_max(monkeypatch):
    # every row meets the working disc; the nested trapezoid rule on a line
    # ends with n_max + 1 nodes, each evaluated once
    ph = Phantom((Gaussian((0.2, 0.1), 0.15),))
    lam = np.linspace(-0.8, 0.8, 9)
    counted = count_points(monkeypatch)
    forward_mphi(ph, RADON, lam, uniform_phi(4), rtol=0.0, n_start=16, n_max=512)
    assert counted[0] == 4 * lam.size * 513


# forward keywords over radon on 9 x 4 axes, and the refusal they meet
BAD_SETTINGS = {
    "workers=0": (dict(workers=0), "workers"),
    "workers=-1": (dict(workers=-1), "workers"),
    "n_start=0": (dict(n_start=0), "n_start"),
    "n_max=31": (dict(n_max=31), "n_max"),
    "rtol=-1e-08": (dict(rtol=-1e-8), "rtol"),
    "rtol=nan": (dict(rtol=float("nan")), "rtol"),
    "half-range hyperbola": (dict(geom=HYPER, phi_axis=uniform_phi(4, half=True)), "odd in phi"),
    "radon lambda past 1": (dict(lambda_axis=np.linspace(-1.5, 1.5, 9)), "admissible range"),
}


@pytest.mark.parametrize("forward", (forward_mphi, forward_riemann), ids=lambda f: f.__name__)
@pytest.mark.parametrize("bad, refusal", BAD_SETTINGS.values(), ids=BAD_SETTINGS.keys())
def test_forward_refuses_bad_settings_before_any_work(monkeypatch, forward, bad, refusal):
    # workers < 1 once gave an all-zero sinogram, n_start = 0 a
    # ZeroDivisionError, and a negative or NaN rtol refined every row to n_max;
    # n_max below 2 n_start returned the first level with no convergence test
    # (10.9 % of max off on the README's two-term radon phantom at 257 x 180),
    # and the axes a Sinogram refuses were refused only after the quadrature
    ph = Phantom((Gaussian((0.2, 0.1), 0.15),))
    counted = count_points(monkeypatch)
    args = dict(geom=RADON, lambda_axis=np.linspace(-0.8, 0.8, 9), phi_axis=uniform_phi(4)) | bad
    with pytest.raises(ValueError, match=refusal):
        forward(ph, **args)
    assert counted == [0, 0]


def test_forward_stops_coarse_on_the_radon_acceptance_phantom(monkeypatch):
    # sigma 0.15 is resolved at the second level, 33 nodes per line
    rt = next(rt for rt in _round_trips() if rt.label == "radon")
    lam, phi = default_axes(RADON, 513, 45)
    counted = count_points(monkeypatch)
    forward_mphi(rt.phantom, RADON, lam, phi)
    assert counted[0] <= 33 * lam.size * phi.size


def test_forward_resolves_a_spike_narrower_than_the_first_level():
    # at 16 or 32 nodes a line misses a sigma = 0.002 spike or hits it by
    # chance, and the two levels can agree to rtol on the wide Gaussian
    # alone; the rows must refine until the nodes are no farther apart than
    # the spike's sigma
    ph = Phantom((Gaussian((0.0, 0.0), 0.3), Gaussian((0.41, 0.27), 0.002, amplitude=5.0)))
    lam, phi = default_axes(RADON, 41, 16)
    rtol = 1e-8
    got = forward_mphi(ph, RADON, lam, phi, rtol=rtol).data
    ref = forward_mphi(ph, RADON, lam, phi, rtol=0.0, n_max=1 << 15).data
    assert np.max(np.abs(got - ref)) <= 2.0 * rtol * np.max(np.abs(ref))


@pytest.mark.parametrize(
    "geom, gaussians, lam",
    [
        (HYPER, [((0.06, 0.04), 0.15)], np.linspace(-3.0, 1.0, 17)),
        (PARAB, [((0.55, 0.0), 0.0675)], np.linspace(0.0, np.sqrt(2.0), 17)),
        (CORMACK2, [((0.55, 0.0), 0.0675), ((-0.55, 0.0), 0.0675)], np.linspace(-1.0, 1.0, 17)),
    ],
    ids=["hyperbola", "parabola", "cormack2"],
)
def test_forward_matches_a_fixed_depth_reference(geom, gaussians, lam):
    # stretched arcs and the lambda = 0 rays, where rows refine furthest
    ph = Phantom(tuple(Gaussian(c, sg) for c, sg in gaussians))
    phi = uniform_phi(6)
    rtol = 1e-8
    got = forward_mphi(ph, geom, lam, phi, rtol=rtol).data
    ref = forward_mphi(ph, geom, lam, phi, rtol=0.0, n_max=8192).data
    zero = np.flatnonzero(lam == 0.0)
    assert zero.size == 1 and np.max(ref[:, zero]) > 0.05 * np.max(ref)
    assert np.max(np.abs(got - ref)) <= 2.0 * rtol * np.max(np.abs(ref))


@pytest.mark.parametrize("rt", _round_trips(), ids=lambda rt: rt.label)
def test_forward_evaluates_no_gradient(monkeypatch, rt):
    # every arc weighs its nodes in closed form, both kinds of data
    def no_gradient(*args, **kwargs):
        raise AssertionError("the forward transform evaluated grad_norm")

    monkeypatch.setattr(geometry, "grad_norm", no_gradient)
    lam, phi = default_axes(rt.geom, 33, 4)
    assert np.max(forward_mphi(rt.phantom, rt.geom, lam, phi).data) > 0.0
    if rt.geom.tag == "hyperbola":
        with pytest.raises(FactorizationUnavailableError):
            forward_riemann(rt.phantom, rt.geom, lam, phi)
    else:
        assert np.max(forward_riemann(rt.phantom, rt.geom, lam, phi).data) > 0.0


def node_turning_forward(ph, geom, lam, phi, n, mu=None):
    """One trapezoid level of n intervals per arc, column by column, with
    the phantom evaluated at each column's nodes turned through _Arc.turned:
    the forward as it was before each column turned the phantom instead."""
    R = _working_radius(geom, ph)
    u = np.arange(n + 1) * (2.0 / n) - 1.0
    out = np.zeros((phi.size, lam.size))
    for j, p in enumerate(phi):
        for arc in geometry.arcs(geom, lam, p, R):
            nodes, dnodes = _stretch_map(u) if arc.stretch else (u, 1.0)
            rows = np.flatnonzero(arc.W > 0.0)
            B = arc.W[rows, None] * nodes
            P, w = arc.mapto(B, rows)
            w = w * dnodes
            if mu is not None:
                w = w * geometry.weight_m(geom, P) * mu[rows, None]
            f = sum(ph.eval(Q) for Q in arc.turned(P)) * w
            out[j, rows] += arc.W[rows] * (2.0 / n) * (f[:, 1:-1].sum(axis=1) + 0.5 * (f[:, 0] + f[:, -1]))
    return out


# Gaussians and a mollified disc at no common symmetry, so that a copy turned
# the wrong way shows, and clear of the origin, where the cormack rays start
TURNED = Phantom(
    (Gaussian((0.45, 0.25), 0.05), Gaussian((-0.15, -0.55), 0.05, 0.7), Disc((-0.2, 0.1), 0.1, 0.5, 0.02))
)


@pytest.mark.parametrize(
    "kind, geom",
    [("mphi", g) for g in (RADON, HYPER, PARAB, CORMACK2, GeometryFamily("cormack", k=3))]
    + [("riemann", g) for g in (RADON, PARAB, CORMACK2, GeometryFamily("cormack", k=3))],
    ids=lambda v: v if isinstance(v, str) else descriptor(v),
)
def test_forward_turning_the_phantom_matches_turning_the_nodes(kind, geom):
    # rays (hyperbola, cormack k = 2), sheets (cormack) and plain arcs
    # (radon, parabola); cormack k = 3 takes an even n_lambda, with no
    # lambda = 0 row, since at rtol = 0 the Gaussians' f(0) = 1e-23 moves
    # its rays by more than the refusal allows; at rtol = 0 every row takes
    # both levels and the Richardson step (4 T_64 - T_32) / 3
    lam, phi = default_axes(geom, 16 if geom.k == 3 else 17, 7)
    forward = forward_mphi if kind == "mphi" else forward_riemann
    mu = None if kind == "mphi" else geometry.weight_mu(geom, lam)
    got = forward(TURNED, geom, lam, phi, rtol=0.0, n_start=32, n_max=64).data
    coarse, fine = (node_turning_forward(TURNED, geom, lam, phi, n, mu) for n in (32, 64))
    want = (4.0 * fine - coarse) / 3.0
    assert np.max(np.abs(want)) > 0.0
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


# Phantom.eval values of one adaptive forward of each acceptance phantom at
# 33 x 8, as the node-turning forward counted them: turning the phantom, and
# evaluating several columns in one call, evaluates it at the same points
EVAL_POINTS = {
    "radon": 8712,
    "circle": 8712,
    "hyperbola": 15120,
    "equidistant": 8712,
    "hgeodesic": 8712,
    "parabola": 18584,
    "cormack2": 23009,
    "funk": 8712,
}


@pytest.mark.parametrize("rt", _round_trips(), ids=lambda rt: rt.label)
def test_forward_evaluates_the_phantom_on_a_pinned_number_of_points(monkeypatch, rt):
    lam, phi = default_axes(rt.geom, 33, 8)
    counted = count_points(monkeypatch)
    forward_mphi(rt.phantom, rt.geom, lam, phi)
    assert counted[0] == EVAL_POINTS[rt.label]


@pytest.mark.parametrize("label, arcs", (("radon", 1), ("hgeodesic", 2)))
def test_forward_evaluates_the_end_nodes_in_the_first_level(monkeypatch, label, arcs):
    # every row of these columns converges at the first comparison, so each
    # level makes one pass over each arc, the first level's with its end
    # nodes at half weight; a separate pass over the end nodes would cost a
    # third more calls on the same points. Every column takes each block
    # whole, and the eight columns' values (at most 33 x 17 x 8) fit in one
    # call (hgeodesic has a line arc and a circle arc, on disjoint rows)
    rt = next(rt for rt in _round_trips() if rt.label == label)
    lam, phi = default_axes(rt.geom, 33, 8)
    counted = count_points(monkeypatch)
    forward_mphi(rt.phantom, rt.geom, lam, phi)
    assert counted == [EVAL_POINTS[label], 2 * arcs]


# ---------------------------------------------------------------------------
# forward transform: rows that diverge at the origin

ORIGIN_GAUSSIAN = Phantom((Gaussian((0.0, 0.0), 0.15),))


@pytest.mark.parametrize("k", (2, 3))
def test_forward_refuses_the_cormack_zero_row_when_f_at_the_origin_is_not_zero(k):
    # the rays of the lambda = 0 row integrate f(0) r^(1-k) / k from the
    # origin, which diverges for k >= 2; odd n_lambda puts a node there
    geom = GeometryFamily("cormack", k=k)
    lam, phi = default_axes(geom, 33, 8)
    with pytest.raises(DivergentRowError, match=rf"k={k}.*lambda = 0 \(index 16\).*f\(0\) = 1") as err:
        forward_mphi(ORIGIN_GAUSSIAN, geom, lam, phi)
    # an even n_lambda only steps over the divergent row, and the data near
    # lambda = 0 still carry it, so the message must not suggest one
    message = str(err.value)
    assert "vanishes at the origin" in message
    assert "even" not in message and "number of lambda" not in message
    # arc-length data weigh the rays by dr alone, which converges
    forward_riemann(ORIGIN_GAUSSIAN, geom, lam, phi)
    # the rows next to a lambda = 0 that the axis steps over carry it too
    lam, phi = default_axes(geom, 32, 8)
    with pytest.raises(DivergentRowError, match=rf"k={k}.*steps over lambda = 0.*\(index 15\).*f\(0\) = 1"):
        forward_mphi(ORIGIN_GAUSSIAN, geom, lam, phi)
    forward_riemann(ORIGIN_GAUSSIAN, geom, lam, phi)


@pytest.mark.parametrize("n_lambda", (32, 33))
@pytest.mark.parametrize("k", (2, 3))
def test_forward_refuses_a_cormack_phantom_off_the_origin_that_is_not_zero_there(k, n_lambda):
    # the probe of a wrong answer with no refusal: a sigma 0.15 Gaussian at
    # (0.06, 0.04), f(0) = 0.89, reconstructed 0.31 off in rel_l2 at k = 2
    # and an even n_lambda of 256; the node at lambda = 0 or the two rows
    # next to it are refused alike
    geom = GeometryFamily("cormack", k=k)
    ph = Phantom((Gaussian((0.06, 0.04), 0.15),))
    lam, phi = default_axes(geom, n_lambda, 8)
    index = "16" if n_lambda == 33 else "15"
    with pytest.raises(DivergentRowError, match=rf"k={k}.*\(index {index}\).*f\(0\) = 0.891.*vanishes at the origin"):
        forward_mphi(ph, geom, lam, phi)


def test_forward_keeps_the_acceptance_cormack_phantom_on_either_axis():
    # two Gaussians at +-0.55 with sigma 0.0675 leave f(0) = 8e-15: too little
    # to move the lambda = 0 row, or the rows next to it, by rtol
    rt = next(rt for rt in _round_trips() if rt.label == "cormack2")
    assert 0.0 < rt.phantom.eval(np.zeros(2)) < 1e-14
    for n_lambda in (32, 33):
        lam, phi = default_axes(rt.geom, n_lambda, 8)
        assert np.max(forward_mphi(rt.phantom, rt.geom, lam, phi).data) > 0.0


def test_forward_keeps_the_cormack_zero_row_where_it_converges():
    # k = 1 weighs its rays by 1, so the row converges whatever f(0) is
    cormack1 = GeometryFamily("cormack", k=1)
    lam, phi = default_axes(cormack1, 33, 8)
    forward_mphi(ORIGIN_GAUSSIAN, cormack1, lam, phi)
    # the acceptance phantom: f(0) ~ 8e-15 moves the row far below rtol
    lam, phi = default_axes(CORMACK2, 33, 8)
    ph = Phantom((Gaussian((0.55, 0.0), 0.0675), Gaussian((-0.55, 0.0), 0.0675)))
    sino = forward_mphi(ph, CORMACK2, lam, phi)
    assert np.max(sino.data[:, 16]) > 0.05 * np.max(sino.data)


# ---------------------------------------------------------------------------
# arc-length data and conversion


def test_riemann_equals_mphi_for_unit_gradient():
    ph = Phantom((Gaussian((0.1, -0.2), 0.2),))
    lam = np.linspace(-0.9, 0.9, 9)
    phi = uniform_phi(4)
    a = forward_mphi(ph, RADON, lam, phi, **FIXED)
    b = forward_riemann(ph, RADON, lam, phi, **FIXED)
    assert b.kind == "riemann"
    assert np.array_equal(a.data, b.data)


def test_riemann_to_mphi_divides_by_mu():
    lam = np.linspace(1.0, 4.0, 4)
    phi = uniform_phi(4)
    sino = Sinogram(CIRCLE, lam, phi, np.ones((4, 4)), kind="riemann")
    out = riemann_to_mphi(sino)
    assert out.kind == "mphi"
    want = np.broadcast_to(1.0 / (2.0 * np.sqrt(lam)), (4, 4))
    assert_allclose(out.data, want, rtol=1e-15)
    assert out.data[0, -1] == pytest.approx(0.25, rel=1e-15)

    lam_h = np.linspace(0.0, 0.6, 4)
    sino_h = Sinogram(HGEO, lam_h, phi, np.ones((4, 4)), kind="riemann")
    out_h = riemann_to_mphi(sino_h)
    assert out_h.data[0, -1] == pytest.approx(1.25, rel=1e-14)


def test_riemann_to_mphi_requires_riemann_kind():
    lam, phi = default_axes(RADON, 3, 4)
    sino = Sinogram(RADON, lam, phi, np.zeros((4, 3)))
    with pytest.raises(ValueError, match="expects kind='riemann'"):
        riemann_to_mphi(sino)


def test_riemann_to_mphi_degenerate_weight_nodes():
    # mu vanishes at lambda = 0 for the circle family; zero data passes
    lam = np.linspace(0.0, 0.3, 4)
    phi = uniform_phi(4)
    data = np.ones((4, 4))
    data[:, 0] = 0.0
    out = riemann_to_mphi(Sinogram(CIRCLE, lam, phi, data, kind="riemann"))
    assert np.all(out.data[:, 0] == 0.0)
    data[1, 0] = 0.5
    with pytest.raises(ValueError, match="cannot be converted"):
        riemann_to_mphi(Sinogram(CIRCLE, lam, phi, data, kind="riemann"))


def test_riemann_forward_rejects_hyperbola():
    ph = Phantom((Gaussian((0.2, 0.0), 0.1),))
    lam = np.linspace(-0.5, 0.5, 5)
    with pytest.raises(FactorizationUnavailableError):
        forward_riemann(ph, HYPER, lam, uniform_phi(4))


# ---------------------------------------------------------------------------
# sinogram files


def test_fkr1_round_trip_is_bitwise(tmp_path):
    rng = np.random.default_rng(7)
    lam, phi = default_axes(HYPER, 6, 5)
    data = rng.standard_normal((5, 6)) * np.exp(rng.uniform(-30, 10, (5, 6)))
    sino = Sinogram(HYPER, lam, phi, data)
    path = tmp_path / "hyper.fkr"
    write_fkr1(path, sino)
    back = read_fkr1(path)
    assert back.geom == sino.geom
    assert back.kind == "mphi"
    assert back.data.tobytes() == sino.data.tobytes()
    assert back.lambda_axis.tobytes() == sino.lambda_axis.tobytes()
    assert back.phi_axis.tobytes() == sino.phi_axis.tobytes()


def test_fkr1_round_trip_half_range(tmp_path):
    lam, phi = default_axes(RADON, 4, 3, half=True)
    sino = Sinogram(RADON, lam, phi, np.arange(12.0).reshape(3, 4), kind="riemann")
    path = tmp_path / "half.fkr"
    write_fkr1(path, sino)
    back = read_fkr1(path)
    assert back.phi_full == "half"
    assert back.kind == "riemann"
    assert back.data.tobytes() == sino.data.tobytes()
    assert back.phi_axis.tobytes() == sino.phi_axis.tobytes()


def test_fkr1_round_trip_half_range_funk(tmp_path):
    lam, phi = default_axes(FUNK, 9, 6, half=True)
    data = np.random.default_rng(5).standard_normal((6, 9))
    sino = Sinogram(FUNK, lam, phi, data)
    path = tmp_path / "funk_half.fkr"
    write_fkr1(path, sino)
    back = read_fkr1(path)
    assert back.geom == FUNK
    assert back.phi_full == "half"
    assert back.data.tobytes() == sino.data.tobytes()
    assert back.lambda_axis.tobytes() == sino.lambda_axis.tobytes()
    assert back.phi_axis.tobytes() == sino.phi_axis.tobytes()


def test_fkr1_rejects_malformed_files(tmp_path):
    lam, phi = default_axes(RADON, 3, 2)
    sino = Sinogram(RADON, lam, phi, np.zeros((2, 3)))
    good = tmp_path / "good.fkr"
    write_fkr1(good, sino)
    lines = good.read_text().splitlines()

    def rewrite(name, munge):
        p = tmp_path / name
        p.write_text("\n".join(munge(list(lines))) + "\n")
        return p

    with pytest.raises(ValueError, match="not an FKR1"):
        read_fkr1(rewrite("a", lambda ls: ["FKR2"] + ls[1:]))
    with pytest.raises(ValueError, match="truncated FKR1 header"):
        read_fkr1(rewrite("b", lambda ls: ls[:2]))
    with pytest.raises(ValueError, match="malformed FKR1 axis header"):
        read_fkr1(rewrite("c", lambda ls: ls[:2] + ["mphi 3 2"] + ls[3:]))
    with pytest.raises(ValueError, match="must be 'full' or 'half'"):
        read_fkr1(rewrite("d", lambda ls: ls[:2] + [ls[2].replace("full", "most")] + ls[3:]))
    with pytest.raises(ValueError, match="expected 2 data rows, found 1"):
        read_fkr1(rewrite("e", lambda ls: ls[:3] + ls[4:]))
    with pytest.raises(ValueError, match="row 1 has 2 values, expected 3"):
        read_fkr1(rewrite("f", lambda ls: ls[:4] + ["0.0 0.0"]))
    with pytest.raises(ValueError, match="unknown curve family tag"):
        read_fkr1(rewrite("g", lambda ls: [ls[0], "elipse:support=1.0"] + ls[2:]))


def test_fkr1_refuses_non_finite_numbers_before_using_them(tmp_path):
    lam, phi = default_axes(RADON, 3, 2)
    good = tmp_path / "good.fkr"
    write_fkr1(good, Sinogram(RADON, lam, phi, np.zeros((2, 3))))
    lines = good.read_text().splitlines()
    bad = tmp_path / "inf.fkr"
    bad.write_text("\n".join(lines[:2] + ["mphi 3 2 -inf inf full"] + lines[3:]) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(f"{bad}: non-finite number -inf in the header")):
            read_fkr1(bad)
    bad.write_text("\n".join(lines[:4] + ["0.0 nan 0.0"]) + "\n")
    with pytest.raises(ValueError, match="non-finite number nan in row 1"):
        read_fkr1(bad)


@pytest.mark.parametrize(
    "counts, field, token",
    [("5 0", "n_phi", "0"), ("-5 2", "n_lambda", "-5"), ("x 2", "n_lambda", "x"), ("3 2.0", "n_phi", "2.0")],
)
def test_fkr1_refuses_a_count_that_is_not_a_positive_integer(tmp_path, counts, field, token):
    lam, phi = default_axes(RADON, 3, 2)
    good = tmp_path / "good.fkr"
    write_fkr1(good, Sinogram(RADON, lam, phi, np.zeros((2, 3))))
    lines = good.read_text().splitlines()
    bad = tmp_path / "count.fkr"
    bad.write_text("\n".join(lines[:2] + [lines[2].replace("mphi 3 2", f"mphi {counts}")] + lines[3:]) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{bad}: {field} must be a positive integer, got {token!r}")):
        read_fkr1(bad)


def test_fkr1_bytes_match_the_per_value_repr_form(tmp_path):
    lam, phi = default_axes(RADON, 3, 2)
    data = np.array([[5e-324, -0.0, 1e308], [0.1 + 0.2, 2.2250738585072014e-308, -1.7976931348623157e308]])
    sino = Sinogram(RADON, lam, phi, data)
    p = tmp_path / "awkward.fkr"
    write_fkr1(p, sino)
    head = f"FKR1\n{descriptor(RADON)}\nmphi 3 2 {float(lam[0])!r} {float(lam[-1])!r} full\n"
    rows = "\n".join(" ".join(repr(float(v)) for v in row) for row in data)
    assert p.read_bytes() == (head + rows + "\n").encode()
    assert read_fkr1(p).data.tobytes() == data.tobytes()
