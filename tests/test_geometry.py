"""Pins and properties for the eight curve families.

Closed-form values are substituted by hand next to each assertion. Gradient
norms are checked against central finite differences of psi (funk's against
its sphere-metric gradient, written out here), the normalizer
against its quadrature definition, and the difference polynomials against
direct sampling of psi and against each family's own closed-form difference
(OWN_DIFFERENCE), so each formula is validated by an independent route.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from funkradon import FactorizationUnavailableError, GeometryDomainError, GeometryFamily, parse_geometry
from funkradon.geometry import (
    TAGS,
    arcs,
    dcoef_closed,
    descriptor,
    domain_radius_cap,
    grad_norm,
    half_angle_difference,
    lambda_harmonics,
    lambda_of,
    lambda_range,
    lambda_sign,
    psi,
    psi_branch,
    trig_difference,
    weight_m,
    weight_mu,
)
from funkradon.inversion import dcoef_quadrature
from funkradon.trigpoly import TrigPoly, all_real_simple, residue_integral

RADON = GeometryFamily("radon")
FUNK = GeometryFamily("funk", support_radius=0.8)
HGEO = GeometryFamily("hgeodesic", support_radius=0.7)
EQUI = GeometryFamily("equidistant", support_radius=0.4)
CIRCLE = GeometryFamily("ellipse", e1=1.0, e2=1.0)
ELLIPSE = GeometryFamily("ellipse", e1=1.2, e2=0.8, support_radius=0.7)
HYPER = GeometryFamily("hyperbola", eps=2.0)
PARAB = GeometryFamily("parabola")
CORMACK1 = GeometryFamily("cormack", k=1)
CORMACK2 = GeometryFamily("cormack", k=2)
CORMACK3 = GeometryFamily("cormack", k=3)
TAU = 2.0 * math.pi


def sample_points(geom, rng, n, rmin=0.05, rmax=None):
    """Random points comfortably inside the family's domain."""
    if rmax is None:
        rmax = {"hgeodesic": 0.8, "equidistant": 0.8, "ellipse": 0.6}.get(geom.tag, 1.0)
    r = rng.uniform(rmin, rmax, size=n)
    th = rng.uniform(0, 2 * math.pi, size=n)
    return np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)


# ------------------------------------------------------------ construction

def test_constructor_validation():
    with pytest.raises(ValueError, match="unknown"):
        GeometryFamily("moebius")
    with pytest.raises(ValueError, match="eps > 1"):
        GeometryFamily("hyperbola", eps=1.0)
    with pytest.raises(ValueError, match="eps > 1"):
        GeometryFamily("hyperbola")
    with pytest.raises(ValueError, match="integer"):
        GeometryFamily("cormack", k=0)
    with pytest.raises(ValueError, match="integer"):
        GeometryFamily("cormack", k=2.5)
    with pytest.raises(ValueError, match="unit disc"):
        GeometryFamily("hgeodesic", support_radius=1.0)
    with pytest.raises(ValueError, match="unit disc"):
        GeometryFamily("equidistant", support_radius=1.2)
    with pytest.raises(ValueError, match="half-axes"):
        GeometryFamily("ellipse", e1=1.0)
    with pytest.raises(ValueError, match="positive"):
        GeometryFamily("ellipse", e1=1.0, e2=-0.5)
    with pytest.raises(ValueError, match="positive"):
        GeometryFamily("radon", support_radius=0.0)
    assert GeometryFamily("cormack", k=3.0).k == 3


def test_constructor_rejects_parameters_of_another_family():
    # descriptor would drop them, so the family would not survive a file
    with pytest.raises(ValueError, match=r"\['e1'\] not valid for family 'radon'"):
        GeometryFamily("radon", e1=1.0)
    with pytest.raises(ValueError, match=r"\['eps', 'k'\] not valid for family 'ellipse'"):
        GeometryFamily("ellipse", e1=1.0, e2=1.0, eps=2.0, k=2)
    with pytest.raises(ValueError, match="not valid for family 'hyperbola'"):
        GeometryFamily("hyperbola", eps=2.0, k=2)


def test_constructor_rejects_non_finite_values():
    for support in (math.inf, math.nan):
        with pytest.raises(ValueError, match="support_radius must be positive and finite"):
            GeometryFamily("radon", support_radius=support)
    with pytest.raises(ValueError, match="e1 must be finite"):
        GeometryFamily("ellipse", e1=math.inf, e2=1.0)
    with pytest.raises(ValueError, match="eps must be finite"):
        GeometryFamily("hyperbola", eps=math.inf)
    with pytest.raises(ValueError, match="half-axes"):
        GeometryFamily("ellipse", e1=1.0, e2=math.nan)
    with pytest.raises(ValueError, match="integer"):
        GeometryFamily("cormack", k=math.inf)


def test_parse_and_descriptor_round_trip():
    g = parse_geometry("ellipse:e1=1.2,e2=0.8,support=0.7")
    assert g == ELLIPSE
    assert parse_geometry("ellipse:support=0.7,e2=0.8,e1=1.2") == g
    assert parse_geometry(descriptor(g)) == g
    for geom in (RADON, FUNK, HGEO, EQUI, ELLIPSE, HYPER, PARAB, CORMACK2):
        assert parse_geometry(descriptor(geom)) == geom
    h = parse_geometry("hyperbola:eps=2.0,support=1.5")
    assert h.eps == 2.0 and h.support_radius == 1.5
    assert parse_geometry("cormack:k=2,support=1.0") == GeometryFamily("cormack", k=2)


def test_parse_rejects_malformed():
    with pytest.raises(ValueError, match="elipse"):
        parse_geometry("elipse:e1=1,e2=1")
    with pytest.raises(ValueError, match="not valid"):
        parse_geometry("radon:e1=1")
    with pytest.raises(ValueError, match="non-numeric"):
        parse_geometry("radon:support=abc")
    with pytest.raises(ValueError, match="malformed"):
        parse_geometry("radon:support")
    with pytest.raises(ValueError, match="Radon"):
        parse_geometry("Radon")  # case-sensitive


def test_parse_rejects_repeated_keys():
    for text, key in (
        ("radon:support=0.5,support=0.7", "support"),
        ("ellipse:e1=1,e2=2,e1=3", "e1"),
        ("ellipse:e1=1,e2=2, e1=1", "e1"),
    ):
        with pytest.raises(ValueError, match=f"repeated parameter '{key}'"):
            parse_geometry(text)


def test_parse_leaves_the_integer_check_to_the_constructor():
    # parsing must not truncate 2.5 to 2 before the constructor validates it
    with pytest.raises(ValueError, match="integer"):
        parse_geometry("cormack:k=2.5")
    for text in ("cormack:k=2", "cormack:k=2.0"):
        g = parse_geometry(text)
        assert g == CORMACK2 and isinstance(g.k, int)


_SIZES = st.floats(min_value=1e-6, max_value=1e6)


@st.composite
def valid_families(draw):
    tag = draw(st.sampled_from(TAGS))
    params = {}
    if tag == "ellipse":
        params = {"e1": draw(_SIZES), "e2": draw(_SIZES)}
    elif tag == "hyperbola":
        params = {"eps": draw(st.floats(min_value=1.0, max_value=1e6, exclude_min=True))}
    elif tag == "cormack":
        params = {"k": draw(st.integers(min_value=1, max_value=64))}
    if tag in ("hgeodesic", "equidistant"):
        support = draw(st.floats(min_value=1e-6, max_value=1.0, exclude_max=True))
    elif tag == "cormack":
        # a family whose lambda range support^k overflows is refused
        support = draw(st.floats(min_value=1e-6, max_value=min(1e6, 10.0 ** (300 / params["k"]))))
    else:
        support = draw(_SIZES)
    return GeometryFamily(tag, support_radius=support, **params)


@given(valid_families())
def test_descriptor_parses_back_to_the_same_family(g):
    assert parse_geometry(descriptor(g)) == g


# -------------------------------------------------------------------- psi

def test_psi_pins():
    assert psi(RADON, (1.0, 0.0), 0.0) == pytest.approx(-1.0)
    for ph in (0.0, 1.0, 2.5):
        assert psi(CIRCLE, (0.0, 0.0), ph) == pytest.approx(1.0)
    assert psi(HYPER, (1.0, 0.0), 0.0) == pytest.approx(1.0)
    assert psi(CORMACK2, (1.0, 0.0), 0.0) == pytest.approx(-1.0)


def test_psi_broadcasts():
    pts = np.zeros((5, 2)) + (0.3, 0.1)
    ph = np.linspace(0, 2 * math.pi, 7, endpoint=False)
    out = psi(RADON, pts[:, None, :], ph)
    assert out.shape == (5, 7)
    assert_allclose(out[2], -(0.3 * np.cos(ph) + 0.1 * np.sin(ph)))


def test_psi_domain_errors():
    with pytest.raises(GeometryDomainError):
        psi(EQUI, (1.0, 0.0), 0.0)
    with pytest.raises(GeometryDomainError):
        psi(HGEO, (0.8, 0.8), 0.0)
    with pytest.raises(GeometryDomainError):
        psi(PARAB, (0.0, 0.0), 0.0)
    with pytest.raises(GeometryDomainError):
        psi(CORMACK2, (0.0, 0.0), 0.0)


@pytest.mark.parametrize(
    "fn", (lambda_of, lambda_harmonics, psi, grad_norm, dcoef_closed), ids=lambda f: f.__name__
)
@pytest.mark.parametrize(
    "geom, bad, match",
    [
        (HGEO, (1.0, 0.0), r"requires \|x\| < 1"),
        (HGEO, (0.6, -0.9), r"requires \|x\| < 1"),
        (EQUI, (0.0, -1.0), r"requires \|x\| < 1"),
        (EQUI, (1.5, 0.0), r"requires \|x\| < 1"),
        (PARAB, (0.0, 0.0), "undefined at the origin"),
        (CORMACK2, (0.0, 0.0), "undefined at the origin"),
        (CORMACK3, (0.0, 0.0), "undefined at the origin"),
    ],
)
def test_restricted_domains_refuse_a_point_in_a_batch(fn, geom, bad, match):
    # one point outside the domain among good ones, as a grid would hold it
    pts = np.array([(0.3, 0.2), bad, (-0.1, 0.4)])
    args = (geom, pts) if fn in (dcoef_closed, lambda_harmonics) else (geom, pts, 0.7)
    with pytest.raises(GeometryDomainError, match=match):
        fn(*args)


def test_parabola_branch_is_signed_square_root():
    x = (0.5, 0.0)
    assert psi_branch(PARAB, x, 0.0) == pytest.approx(-1.0)   # -sqrt(2 * 0.5)
    ph = np.linspace(0, 2 * math.pi, 17)
    assert_allclose(np.abs(psi_branch(PARAB, x, ph)), np.abs(psi(PARAB, x, ph)), atol=1e-14)
    # the fold: psi itself is the nonnegative-radicand square root
    assert psi(PARAB, x, math.pi) == pytest.approx(0.0, abs=1e-12)


# -------------------------------------------------------------- grad_norm

def test_grad_pins():
    assert grad_norm(RADON, (0.3, -0.2), 1.3) == pytest.approx(1.0)
    assert grad_norm(PARAB, (0.5, 0.0), 2.0) == pytest.approx(1.0)
    assert grad_norm(PARAB, (0.0, 0.5), 0.4) == pytest.approx(1.0)
    assert grad_norm(CORMACK2, (0.0, 1.0), 0.7) == pytest.approx(2.0)
    assert grad_norm(FUNK, (0.0, 0.0), 0.2) == pytest.approx(1.0)


def test_grad_rejects_degenerate_point():
    # on the ellipse of centers the gradient magnitude 2|x - e(phi)| vanishes
    with pytest.raises(GeometryDomainError, match="positive"):
        grad_norm(CIRCLE, (1.0, 0.0), 0.0)


def test_hyperbola_gradient_is_refused_at_the_origin():
    # the focus: the one point where the hyperbola's |grad psi| has no value
    with pytest.raises(GeometryDomainError, match="hyperbola gradient is undefined at the origin"):
        grad_norm(HYPER, (0.0, 0.0), 0.3)


@pytest.mark.parametrize("fn", (lambda_of, psi, grad_norm), ids=lambda f: f.__name__)
def test_points_need_a_trailing_axis_of_length_two(fn):
    with pytest.raises(ValueError, match="points must have a trailing axis of length 2"):
        fn(RADON, np.zeros((3, 3)), 0.7)


@pytest.mark.parametrize("geom", (CIRCLE, ELLIPSE), ids=("circle", "ellipse"))
def test_grad_rejects_the_center_at_generic_phi(geom):
    # x = e(phi) at angles where the expanded lambda0 = |x - e(phi)|^2 rounds
    # to a few ulps of either sign rather than to 0
    for ph in np.random.default_rng(7).uniform(0, 2 * math.pi, size=50):
        with pytest.raises(GeometryDomainError, match="positive"):
            grad_norm(geom, (geom.e1 * math.cos(ph), geom.e2 * math.sin(ph)), ph)


def test_grad_matches_finite_differences():
    # the oracle of grad_norm on every family but funk, whose gradient is in
    # the sphere metric (see funk_metric_gradient); hgeodesic included on
    # purpose: its split m(x) mu(lambda0) is the Euclidean gradient of psi
    rng = np.random.default_rng(5)
    fams = (RADON, EQUI, HGEO, ELLIPSE, HYPER, PARAB, CORMACK2, CORMACK3)
    for geom in fams:
        pts = sample_points(geom, rng, 100, rmin=0.2)
        for x in pts:
            ph = rng.uniform(0, 2 * math.pi)
            if geom.tag == "parabola":
                # keep clear of the branch fold where psi loses smoothness
                th = math.atan2(x[1], x[0])
                while abs(math.cos(0.5 * (ph - th))) < 0.2:
                    ph = rng.uniform(0, 2 * math.pi)
            h = 1e-6 * (1.0 + np.hypot(*x))
            g1 = (psi(geom, x + (h, 0), ph) - psi(geom, x - (h, 0), ph)) / (2 * h)
            g2 = (psi(geom, x + (0, h), ph) - psi(geom, x - (0, h), ph)) / (2 * h)
            want = math.hypot(g1, g2)
            assert grad_norm(geom, x, ph) == pytest.approx(want, rel=1e-6)


def funk_metric_gradient(x, phi):
    """|grad psi| of funk in the sphere metric, sqrt((1 + |x|^2)
    (1 + <x, e(phi)>^2)) at chart points x: the oracle for funk, whose
    gradient is not a Euclidean finite difference of psi."""
    x1, x2 = x[..., 0], x[..., 1]
    return np.sqrt((1.0 + x1 * x1 + x2 * x2) * (1.0 + (x1 * np.cos(phi) + x2 * np.sin(phi)) ** 2))


def test_grad_factorization_identity():
    # grad_norm is m(x) mu(lambda0) wherever the split exists; the finite
    # differences above certify it on the Euclidean families, the metric
    # gradient written out certifies it on funk
    rng = np.random.default_rng(6)
    pts = sample_points(FUNK, rng, 400, rmin=0.0)
    ph = rng.uniform(0, 2 * math.pi, size=400)
    assert_allclose(grad_norm(FUNK, pts, ph), funk_metric_gradient(pts, ph), rtol=1e-14)
    # the ellipse keeps 2|x - e(phi)| of its own, which the split reproduces
    # away from the ellipse of centers
    for geom in (CIRCLE, ELLIPSE):
        pts = sample_points(geom, rng, 25, rmin=0.2)
        ph = rng.uniform(0, 2 * math.pi, size=25)
        got = weight_m(geom, pts) * weight_mu(geom, lambda_of(geom, pts, ph))
        assert_allclose(got, grad_norm(geom, pts, ph), rtol=1e-12)


# ----------------------------------------------------------------- lambda

def test_lambda_sign_conventions():
    x, ph = (0.4, 0.3), 1.1
    for geom in (RADON, FUNK, HGEO, EQUI, PARAB, CORMACK2):
        assert lambda_sign(geom) == -1.0
        assert lambda_of(geom, x, ph) == pytest.approx(-psi(geom, x, ph))
    for geom in (ELLIPSE, HYPER):
        assert lambda_sign(geom) == 1.0
        assert lambda_of(geom, x, ph) == pytest.approx(psi(geom, x, ph))


# lambda0 = lambda_sign * psi as each family wrote it in its own closed form,
# before the families wrote it once as harmonics
OWN_LAMBDA0 = {
    "radon": lambda g, x1, x2, c, s: x1 * c + x2 * s,
    "funk": lambda g, x1, x2, c, s: -(x1 * c + x2 * s),
    "hgeodesic": lambda g, x1, x2, c, s: 2.0 * (x1 * c + x2 * s) / (1.0 + x1 * x1 + x2 * x2),
    "equidistant": lambda g, x1, x2, c, s: 2.0 * (x1 * c + x2 * s) / (1.0 - (x1 * x1 + x2 * x2)),
    "ellipse": lambda g, x1, x2, c, s: (x1 - g.e1 * c) ** 2 + (x2 - g.e2 * s) ** 2,
    "hyperbola": lambda g, x1, x2, c, s: g.eps * (x1 * c + x2 * s) - np.hypot(x1, x2),
    "parabola": lambda g, x1, x2, c, s: np.sqrt(np.maximum(np.hypot(x1, x2) + x1 * c + x2 * s, 0.0)),
    "cormack": lambda g, x1, x2, c, s: ((x1 + 1j * x2) ** g.k).real * c + ((x1 + 1j * x2) ** g.k).imag * s,
}


@pytest.mark.parametrize(
    "geom",
    (RADON, FUNK, HGEO, EQUI, CIRCLE, ELLIPSE, HYPER, PARAB, CORMACK2, CORMACK3),
    ids=lambda g: descriptor(g),
)
def test_lambda_harmonics_match_each_family_own_lambda0(geom):
    rng = np.random.default_rng(8)
    pts = sample_points(geom, rng, 400, rmin=0.01)
    ph = rng.uniform(-TAU, 2 * TAU, size=400)
    own = OWN_LAMBDA0[geom.tag]
    x1, x2 = pts[:, 0], pts[:, 1]
    at = lambda_harmonics(geom, pts)
    # one set of harmonics serves every angle, one per point or a scalar one
    assert np.max(np.abs(at(ph) - own(geom, x1, x2, np.cos(ph), np.sin(ph)))) <= 1e-14
    assert np.max(np.abs(lambda_of(geom, pts, ph) - own(geom, x1, x2, np.cos(ph), np.sin(ph)))) <= 1e-14
    for p in ph[:8]:
        assert np.max(np.abs(at(p) - own(geom, x1, x2, np.cos(p), np.sin(p)))) <= 1e-14
    # psi is lambda0 with the family's sign, exactly
    assert np.array_equal(psi(geom, pts, ph), lambda_sign(geom) * lambda_of(geom, pts, ph))


FORMS = (RADON, FUNK, HGEO, EQUI, CIRCLE, ELLIPSE, HYPER, PARAB, CORMACK1, CORMACK2, CORMACK3)


@pytest.mark.parametrize("geom", FORMS, ids=descriptor)
def test_family_form_of_lambda0_agrees_with_lambda0_point_by_point(geom):
    # lambda_harmonics with no points reads the family's form alone
    assert {g.tag for g in FORMS} == set(TAGS)
    rng = np.random.default_rng(27)
    pts = sample_points(geom, rng, 200, rmin=0.01)
    ph = rng.uniform(0.0, TAU, size=200)
    here, there = lambda_of(geom, pts, ph), lambda_of(geom, pts, ph + np.pi)
    form = lambda_harmonics(geom)
    assert form.odd == bool(np.all(np.abs(here + there) <= 1e-13 * (1.0 + np.abs(here))))
    assert form.root == (geom.tag == "parabola")


def test_lambda_range_pins():
    def at(geom, rho):
        return lambda_range(dataclasses.replace(geom, support_radius=rho))

    assert_allclose(at(RADON, 1.0), (-1.0, 1.0))
    assert_allclose(at(CIRCLE, 0.9), (0.01, 3.61))
    z = 0.8 / (1.0 - 0.16)
    assert_allclose(at(EQUI, 0.4), (-z, z))
    assert_allclose(at(EQUI, 0.5), (-1.0, 1.0))  # clipped
    assert_allclose(at(HYPER, 1.0), (-3.0, 1.0))
    assert_allclose(at(PARAB, 1.0), (0.0, math.sqrt(2.0)))
    assert_allclose(at(CORMACK2, 0.9), (-0.81, 0.81))
    assert_allclose(at(HGEO, 0.7), (-1.4 / 1.49, 1.4 / 1.49))
    assert_allclose(at(FUNK, 0.8), (-0.8, 0.8))
    # the family's own support radius
    assert_allclose(lambda_range(FUNK), at(FUNK, 0.8))


def test_lambda_range_covers_reachable_values():
    rng = np.random.default_rng(7)
    for geom in (RADON, FUNK, HGEO, EQUI, ELLIPSE, HYPER, PARAB, CORMACK2):
        rho = geom.support_radius
        pts = sample_points(geom, rng, 200, rmin=0.01, rmax=rho)
        ph = rng.uniform(0, 2 * math.pi, size=200)
        lam = lambda_of(geom, pts, ph)
        lo, hi = lambda_range(geom)
        assert np.all(lam >= lo - 1e-12) and np.all(lam <= hi + 1e-12)


# -------------------------------------------------------------- normalizer

def test_dcoef_pins():
    assert dcoef_closed(GeometryFamily("hyperbola", eps=math.sqrt(2.0)), (0.4, 0.1)) == pytest.approx(1.0)
    assert dcoef_closed(RADON, (0.9, -0.3)) == pytest.approx(1.0)
    assert dcoef_closed(EQUI, (0.0, 0.0)) == pytest.approx(0.25)
    assert dcoef_closed(HGEO, (0.0, 0.0)) == pytest.approx(0.25)
    assert dcoef_closed(FUNK, (0.0, 0.0)) == pytest.approx(1.0)
    assert dcoef_closed(PARAB, (0.3, 0.4)) == pytest.approx(1.0)   # 2|x| with |x|=0.5
    assert dcoef_closed(CORMACK2, (0.0, 1.0)) == pytest.approx(0.25)


def test_dcoef_circle_value_and_oracle():
    # centers on the unit circle: D = 1/(4 (1 - |x|^2)) = 1/3 at |x| = 0.5;
    # the angular-mean definition confirms the constant
    got = dcoef_closed(CIRCLE, (0.5, 0.0))
    assert got == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert got == pytest.approx(dcoef_quadrature(CIRCLE, (0.5, 0.0)), rel=1e-10)


def test_dcoef_closed_matches_quadrature_everywhere():
    rng = np.random.default_rng(8)
    fams = (RADON, FUNK, HGEO, EQUI, CIRCLE, ELLIPSE, HYPER, PARAB, CORMACK2, CORMACK3)
    for geom in fams:
        pts = sample_points(geom, rng, 20, rmin=0.15)
        closed = dcoef_closed(geom, pts)
        quads = np.array([dcoef_quadrature(geom, x) for x in pts])
        assert_allclose(closed, quads, rtol=1e-8)


def test_dcoef_ellipse_rejects_point_outside_circle_of_centers():
    with pytest.raises(GeometryDomainError):
        dcoef_closed(CIRCLE, (1.5, 0.0))


def residue_oracle(geom, x):
    """D(x) of one point: its own TrigPoly |x - e(phi)|^2 and residue sum."""
    u, v = x
    e1, e2 = geom.e1, geom.e2
    t = TrigPoly((u * u + v * v + 0.5 * (e1**2 + e2**2), -2.0 * u * e1, 0.5 * (e1**2 - e2**2)), (0.0, -2.0 * v * e2, 0.0))
    return residue_integral(TrigPoly((1.0,)), t) / (8.0 * math.pi)


@pytest.mark.parametrize("geom", (ELLIPSE, GeometryFamily("ellipse", e1=0.7, e2=1.3, support_radius=0.6)))
def test_dcoef_ellipse_stack_matches_per_point_residues(geom):
    rng = np.random.default_rng(21)
    inside = sample_points(geom, rng, 40, rmin=0.0)
    # points near the ellipse of centers, on both sides, where D(x) grows
    th = rng.uniform(0, 2 * math.pi, size=12)
    scale = 1.0 + np.repeat([-1e-2, 1e-4, -1e-6, 1e-2, -1e-4, 1e-6], 2)
    near = np.stack([geom.e1 * np.cos(th) * scale, geom.e2 * np.sin(th) * scale], axis=-1)
    pts = np.concatenate([inside, near])
    want = np.array([residue_oracle(geom, x) for x in pts])
    assert_allclose(dcoef_closed(geom, pts), want, rtol=1e-13, atol=0)
    grid = pts[:36].reshape(6, 6, 2)
    got = dcoef_closed(geom, grid)
    assert got.shape == (6, 6)
    assert_allclose(got, want[:36].reshape(6, 6), rtol=1e-13, atol=0)
    one = dcoef_closed(geom, tuple(pts[-1]))
    assert isinstance(one, float)
    assert one == pytest.approx(want[-1], rel=1e-13)


@pytest.mark.parametrize("geom", (ELLIPSE, GeometryFamily("ellipse", e1=0.7, e2=1.3)))
def test_dcoef_ellipse_rejects_a_point_on_the_ellipse_of_centers(geom):
    on = (geom.e1 * math.cos(0.3), geom.e2 * math.sin(0.3))
    with pytest.raises(GeometryDomainError, match="ellipse of centers"):
        dcoef_closed(geom, on)
    # one such point refuses the whole stack, and the message names it
    pts = np.array([(0.1, 0.2), on, (-0.3, 0.1)])
    with pytest.raises(GeometryDomainError, match=f"{on[0]:.6g}, {on[1]:.6g}"):
        dcoef_closed(geom, pts)


# ---------------------------------------------------------------- weights

def test_weight_pins():
    assert weight_m(RADON, (0.2, 0.2)) == pytest.approx(1.0)
    assert weight_mu(RADON, 0.7) == pytest.approx(1.0)
    assert weight_m(CIRCLE, (0.3, 0.1)) == pytest.approx(1.0)
    assert weight_mu(CIRCLE, 4.0) == pytest.approx(4.0)
    assert weight_m(CORMACK3, (2.0, 0.0)) == pytest.approx(12.0)
    assert weight_mu(CORMACK3, 0.3) == pytest.approx(1.0)


def test_hyperbola_does_not_factor():
    with pytest.raises(FactorizationUnavailableError):
        weight_m(HYPER, (0.5, 0.0))
    with pytest.raises(FactorizationUnavailableError):
        weight_mu(HYPER, 0.5)


# ------------------------------------------------------- trig differences

def test_trig_difference_pins():
    t = trig_difference(RADON, (0.0, 0.0), (1.0, 0.0))
    assert_allclose(t.a, (0.0, 1.0), atol=1e-15)
    assert_allclose(t.b, (0.0, 0.0), atol=1e-15)

    t = trig_difference(HYPER, (1.0, 0.0), (0.1, 0.0))
    # eps<x - y, e> - |x| + |y| with nearly antipodal pair on the axis
    want_a = (-0.9, 2.0 * 0.9)
    assert_allclose(t.a, want_a, atol=1e-15)

    # equal-axes ellipse pair: coefficients match direct sampling of psi
    x, y = (0.0, 0.0), (0.5, 0.0)
    t = trig_difference(CIRCLE, x, y)
    ph = np.arange(8) * (2 * math.pi / 8)
    assert_allclose(t.eval(ph), psi(CIRCLE, x, ph) - psi(CIRCLE, y, ph), atol=1e-12)
    assert_allclose(t.a, (-0.25, 1.0), atol=1e-15)


def test_trig_difference_matches_psi_sampling():
    rng = np.random.default_rng(9)
    ph = np.arange(16) * (2 * math.pi / 16)
    fams = (RADON, FUNK, HGEO, EQUI, CIRCLE, ELLIPSE, HYPER, CORMACK2, CORMACK3)
    for geom in fams:
        for _ in range(10):
            x, y = sample_points(geom, rng, 2, rmin=0.1)
            t = trig_difference(geom, x, y)
            assert_allclose(t.eval(ph), psi(geom, x, ph) - psi(geom, y, ph),
                            atol=1e-12, err_msg=geom.tag)


def test_trig_difference_unavailable_for_parabola():
    assert trig_difference(PARAB, (0.5, 0.0), (0.0, 0.5)) is None


def _half_harmonic(x):
    # the parabola's branch -sqrt(2 r) cos(phi / 2 - theta / 2) as p cos + q sin of phi / 2
    w = -np.sqrt(2.0 * np.hypot(x[0], x[1])) * np.exp(0.5j * np.arctan2(x[1], x[0]))
    return np.array([w.real, w.imag])


def _cormack_difference(g, x, y):
    w = (x[0] + 1j * x[1]) ** g.k - (y[0] + 1j * y[1]) ** g.k
    return 0.0, -w.real, -w.imag


# psi(x, .) - psi(y, .) as (const, cos, sin) coefficients, as each family
# wrote it in its own closed form before the differences were derived from
# the harmonics; on the parabola, the half-angle T with
# psi_branch(x, phi) - psi_branch(y, phi) = T(phi / 2)
OWN_DIFFERENCE = {
    "radon": lambda g, x, y: (0.0, *(y - x)),
    "funk": lambda g, x, y: (0.0, *(x - y)),
    "hgeodesic": lambda g, x, y: (0.0, *(-2.0 * (x / (1.0 + x @ x) - y / (1.0 + y @ y)))),
    "equidistant": lambda g, x, y: (0.0, *(-2.0 * (x / (1.0 - x @ x) - y / (1.0 - y @ y)))),
    "ellipse": lambda g, x, y: (x @ x - y @ y, *(-2.0 * (x - y) * (g.e1, g.e2))),
    "hyperbola": lambda g, x, y: (np.hypot(y[0], y[1]) - np.hypot(x[0], x[1]), *(g.eps * (x - y))),
    "parabola": lambda g, x, y: (0.0, *(_half_harmonic(x) - _half_harmonic(y))),
    "cormack": _cormack_difference,
}


@pytest.mark.parametrize(
    "geom", (RADON, FUNK, HGEO, EQUI, CIRCLE, ELLIPSE, HYPER, PARAB, CORMACK2, CORMACK3), ids=descriptor
)
def test_differences_match_each_family_own_difference(geom):
    rng = np.random.default_rng(sum(map(ord, descriptor(geom))))
    own = OWN_DIFFERENCE[geom.tag]
    for _ in range(50):
        x, y = sample_points(geom, rng, 2, rmin=0.1)
        t, other = trig_difference(geom, x, y), half_angle_difference(geom, x, y)
        if geom is PARAB:
            t, other = other, t
        assert other is None
        got = np.array([t.a[0], t.a[1], t.b[0], t.b[1]])
        c0, c1, s1 = own(geom, x, y)
        want = np.array([c0, c1, 0.0, s1])
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want), (x, y)


@pytest.mark.parametrize("geom", (RADON, FUNK, HGEO, EQUI, CIRCLE, ELLIPSE, HYPER, CORMACK2, CORMACK3), ids=descriptor)
def test_psi_branch_is_psi_off_the_parabola(geom):
    rng = np.random.default_rng(11)
    pts = sample_points(geom, rng, 200, rmin=0.01)
    ph = rng.uniform(-TAU, 2 * TAU, size=200)
    assert np.array_equal(psi_branch(geom, pts, ph), psi(geom, pts, ph))
    assert np.array_equal(psi_branch(geom, pts[0], ph), psi(geom, pts[0], ph))


def test_trig_difference_rejects_equal_points():
    with pytest.raises(ValueError, match="distinct"):
        trig_difference(RADON, (0.5, 0.5), (0.5, 0.5))


def test_ellipse_support_condition():
    assert ELLIPSE.kernel_condition_ok            # 0.7 < min(1.2, 0.8)
    assert not GeometryFamily("ellipse", e1=1.2, e2=0.8, support_radius=0.9).kernel_condition_ok
    assert RADON.kernel_condition_ok

    # inside the safe radius every pair's difference has simple real zeros
    rng = np.random.default_rng(10)
    for _ in range(50):
        x, y = sample_points(ELLIPSE, rng, 2, rmin=0.05, rmax=0.7)
        assert all_real_simple(trig_difference(ELLIPSE, x, y))

    # beyond the minor axis a nearly radial pair drives the zeros complex
    bad_x = np.array([0.0, 0.88])
    bad_y = 0.95 * bad_x
    t = trig_difference(ELLIPSE, bad_x, bad_y)
    assert not all_real_simple(t)


# ------------------------------------------------------------ arc element

def arc_element(geom, x, v):
    """Metric length of the Euclidean tangent v attached at x: the sphere
    metric pulled back through the gnomonic chart for funk, the Euclidean
    length for every other family (the metric in which their gradient and
    normalizer formulas hold)."""
    x, v = np.asarray(x, dtype=float), np.asarray(v, dtype=float)
    x1, x2, v1, v2 = x[..., 0], x[..., 1], v[..., 0], v[..., 1]
    if geom.tag != "funk":
        return np.hypot(v1, v2)
    x0sq = 1.0 / (1.0 + x1 * x1 + x2 * x2)
    dot = x1 * v1 + x2 * v2
    return np.sqrt(x0sq * np.maximum(v1 * v1 + v2 * v2 - x0sq * dot * dot, 0.0))


def test_arc_element():
    for geom in (RADON, EQUI, ELLIPSE, HYPER, PARAB, CORMACK2):
        assert arc_element(geom, (0.3, 0.4), (3.0, 4.0)) == pytest.approx(5.0)
    assert arc_element(FUNK, (0.0, 0.0), (1.0, 0.0)) == pytest.approx(1.0)
    # chart point (1,0): radial directions shrink by 1/(1+r^2), transverse
    # ones by 1/sqrt(1+r^2)
    assert arc_element(FUNK, (1.0, 0.0), (1.0, 0.0)) == pytest.approx(0.5)
    assert arc_element(FUNK, (1.0, 0.0), (0.0, 1.0)) == pytest.approx(1.0 / math.sqrt(2.0))


# ------------------------------------------------------------ arc weights

ARC_FAMILIES = (RADON, FUNK, HGEO, EQUI, CIRCLE, ELLIPSE, HYPER, PARAB, CORMACK2, CORMACK3)


def arc_oracle(geom, arc, B, act, phi, kind, h=1e-5):
    """Integrand weight from the definition on each turned copy of the arc:
    the metric length of dP/dbeta (central differences), over |grad psi| for
    mphi data."""
    P, _ = arc.mapto(B, act)
    dP = (arc.mapto(B + h, act)[0] - arc.mapto(B - h, act)[0]) / (2.0 * h)
    out = []
    for Q, dQ in zip(arc.turned(P), arc.turned(dP)):
        ds = arc_element(geom, Q, dQ)
        out.append(ds / grad_norm(geom, Q, phi) if kind == "mphi" else ds)
    return out


@pytest.mark.parametrize("kind", ("mphi", "riemann"))
@pytest.mark.parametrize("geom", ARC_FAMILIES, ids=descriptor)
def test_arc_weights_match_speed_over_gradient(geom, kind):
    # drawn rows and nodes, with lambda = 0 among the rows so that the rays
    # of the punctured families and the lines of the Poincare families appear;
    # every arc weighs ds / |grad psi| on each of its turned copies, and
    # arc-length data multiply it by m(x) mu(lambda)
    rng = np.random.default_rng(sum(map(ord, descriptor(geom) + kind)))
    lo, hi = lambda_range(geom)
    lam = np.append(lo + (hi - lo) * rng.uniform(0.1, 0.9, 6), 0.0)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    R = 1.05 * geom.support_radius
    if geom.tag == "hyperbola" and kind == "riemann":
        # no m * mu split, so arc-length data have no weight to convert from
        with pytest.raises(FactorizationUnavailableError):
            weight_mu(geom, lam)
        return
    checked = points = copies = 0
    for i, arc in enumerate(arcs(geom, lam, phi, R)):
        act = np.flatnonzero(arc.W > 0.0)
        B = arc.W[act][:, None] * rng.uniform(-0.9, 0.9, (act.size, 5))
        P, weight = arc.mapto(B, act)
        # rows whose points do not move with beta: the ellipse's lambda = 0
        # row, the radius-0 limit of shrinking circles about the centre point,
        # weighed here on a small one; it has no arc length
        still = np.all(P == P[:, :1], axis=(1, 2))
        moving = arc_oracle(geom, arc, B[~still], act[~still], phi, kind)
        if kind == "mphi" and np.any(still):
            small = arcs(geom, np.full(lam.shape, 1e-6), phi, R)[0]
            (at_rest,) = arc_oracle(geom, small, B[still], act[still], phi, kind, h=1e-4)
        for Q, want_moving in zip(arc.turned(P), moving):
            got = np.broadcast_to(weight, B.shape)
            if kind == "riemann":
                got = got * weight_m(geom, Q) * weight_mu(geom, lam[act])[:, None]
            want = np.zeros(B.shape)
            want[~still] = want_moving
            if kind == "mphi" and np.any(still):
                want[still] = at_rest
            if geom.tag == "parabola" and i > 0:
                # the lambda = 0 parabola closes onto its backward ray, which
                # the ray's weight counts twice
                want = 2.0 * want
            assert_allclose(got, want, rtol=1e-7)
            copies += 1
        points += int(np.sum(still))
        checked += act.size
    assert checked >= lam.size - 1
    assert points == (geom is CIRCLE)
    # cormack: k sheets and 2k rays; hyperbola: a branch and two rays;
    # parabola: an arc and a ray; every other family: one copy per arc
    turned = {"cormack": 3 * (geom.k or 0), "hyperbola": 3, "parabola": 2}
    assert copies == turned.get(geom.tag, i + 1)


@pytest.mark.parametrize("geom", ARC_FAMILIES, ids=descriptor)
def test_arc_points_lie_on_their_curves(geom):
    # every node of every turned copy of every arc, the arc ends and the rows
    # next to lambda = 0 included
    rng = np.random.default_rng(sum(map(ord, descriptor(geom))))
    lo, hi = lambda_range(geom)
    lam = np.append(lo + (hi - lo) * rng.uniform(0.1, 0.9, 4), (0.0, 1e-9, -1e-9))
    lam = lam[(lam >= lo) & (lam <= hi)]
    phi = rng.uniform(0.0, 2.0 * math.pi)
    e = np.array([math.cos(phi), math.sin(phi)])
    R = 1.05 * geom.support_radius
    rows = set()
    for arc in arcs(geom, lam, phi, R):
        act = np.flatnonzero(arc.W > 0.0)
        if act.size == 0:
            continue
        B = arc.W[act][:, None] * np.linspace(-1.0, 1.0, 17)
        P, _ = arc.mapto(B, act)
        want = np.broadcast_to(lam[act][:, None], B.shape)
        for Q in arc.turned(P):
            assert np.all(np.hypot(Q[..., 0], Q[..., 1]) <= R * (1.0 + 1e-12))
            if geom.tag == "parabola":
                # lambda_of is a square root, infinitely steep at lambda = 0,
                # where rounding P by 1e-17 moves it by 1e-9; its square
                # r + <x, e> is what the points fix to rounding
                off = np.hypot(Q[..., 0], Q[..., 1]) + Q @ e - want * want
                assert np.max(np.abs(off) / (1.0 + want * want)) <= 1e-12
            else:
                off = lambda_of(geom, Q, phi) - want
                assert np.max(np.abs(off) / (1.0 + np.abs(want))) <= 1e-12
        rows.update(act.tolist())
    # every row next to lambda = 0 has an arc in the disc
    near = np.flatnonzero((np.abs(lam) <= 1e-9) & (lam != 0.0))
    assert set(near.tolist()) <= rows


def test_domain_radius_cap():
    assert domain_radius_cap(HGEO) == 1.0
    assert domain_radius_cap(EQUI) == 1.0
    assert math.isinf(domain_radius_cap(RADON))
    assert math.isinf(domain_radius_cap(PARAB))
