"""Analytic phantom components, their supports, and the descriptor parser."""

import math
import string

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from funkradon import Grid, Phantom, parse_phantom
from funkradon.phantom import Disc, Gaussian


def test_gaussian_profile():
    g = Gaussian((0.2, -0.1), 0.15, 2.0)
    assert g.eval((0.2, -0.1)) == pytest.approx(2.0)
    assert g.eval((0.2 + 0.15, -0.1)) == pytest.approx(2.0 * math.exp(-0.5))
    assert g.support_radius == pytest.approx(math.hypot(0.2, 0.1) + 0.9)
    with pytest.raises(ValueError):
        Gaussian((0, 0), 0.0)


def test_sharp_disc_is_indicator():
    d = Disc((0.0, 0.0), 0.5, 3.0)
    assert d.eval((0.1, 0.2)) == pytest.approx(3.0)
    assert d.eval((0.5, 0.0)) == 0.0
    assert d.eval((0.7, 0.0)) == 0.0
    assert d.support_radius == pytest.approx(0.5)


def test_smooth_disc_rolloff():
    d = Disc((0.0, 0.0), 0.5, 2.0, width=0.2)
    assert d.eval((0.0, 0.0)) == pytest.approx(2.0)       # flat top
    assert d.eval((0.3, 0.0)) == pytest.approx(2.0)       # inner edge of band
    assert d.eval((0.4, 0.0)) == pytest.approx(1.0)       # smoothstep midpoint
    assert d.eval((0.5, 0.0)) == 0.0                      # exactly zero at rim
    r = np.linspace(0.3, 0.5, 21)
    vals = d.eval(np.stack([r, np.zeros_like(r)], axis=-1))
    assert np.all(np.diff(vals) <= 1e-12)                 # monotone roll-off
    with pytest.raises(ValueError):
        Disc((0, 0), 0.5, 1.0, width=-0.1)


@pytest.mark.parametrize("radius", (0.0, -0.5))
def test_disc_refuses_a_radius_that_is_not_positive(radius):
    with pytest.raises(ValueError, match="disc radius must be positive"):
        Disc((0.0, 0.0), radius, 1.0)


def test_phantom_sums_components():
    p = Phantom((Gaussian((0.0, 0.0), 0.1), Disc((0.5, 0.0), 0.2, 1.5)))
    assert p.eval((0.5, 0.0)) == pytest.approx(1.5 + math.exp(-0.5 * 25))
    assert p.support_radius == pytest.approx(0.7)
    assert Phantom(()).support_radius == 0.0
    assert Phantom(()).eval((1.0, 2.0)) == 0.0


@pytest.mark.parametrize(
    "comp",
    (Gaussian((0.3, -0.2), 0.1, 2.0), Disc((-0.25, 0.1), 0.3, 1.5, width=0.05)),
    ids=("gaussian", "mollified disc"),
)
def test_a_turned_phantom_is_the_phantom_at_turned_points(comp):
    # turning the centre by -turn stands in for turning every point by turn;
    # the two differ by the rounding of a distance times the steepest slope,
    # amplitude / sigma for a Gaussian and 1.5 amplitude / width on a rim
    rng = np.random.default_rng(4)
    P = rng.uniform(-0.6, 0.6, size=(4000, 2))
    ph = Phantom((comp, Gaussian((0.1, 0.2), 0.2, -0.5)))
    bound = 4.0 * np.finfo(float).eps * comp.amplitude / comp.feature_scale
    for turn in (0.0, 1e-3, 0.7, -2.1, math.pi, 5.0):
        c, s = math.cos(turn), math.sin(turn)
        turned = np.stack([c * P[:, 0] - s * P[:, 1], s * P[:, 0] + c * P[:, 1]], axis=-1)
        assert np.max(np.abs(comp.eval(P, turn) - comp.eval(turned))) <= bound
        assert np.max(np.abs(ph.eval(P, turn) - ph.eval(turned))) <= bound


COMPONENTS = (
    Gaussian((0.3, -0.2), 0.1),
    Gaussian((-0.25, 0.15), 0.13, -2.5),
    Disc((-0.25, 0.1), 0.3, 1.5, width=0.05),
    Disc((0.1, 0.2), 0.4, -0.7),
)
COMPONENT_IDS = ("gaussian", "gaussian with amplitude", "mollified disc", "sharp disc")


def closed_form(comp, x, turn):
    """The component's profile written out, at the points x turned by turn."""
    c, s = math.cos(turn), math.sin(turn)
    cx, cy = comp.center
    if turn:
        cx, cy = c * cx + s * cy, c * cy - s * cx
    dx, dy = x[..., 0] - cx, x[..., 1] - cy
    if isinstance(comp, Gaussian):
        return comp.amplitude * np.exp(-0.5 * (dx**2 + dy**2) / comp.sigma**2)
    d = np.hypot(dx, dy)
    if comp.width == 0.0:
        return comp.amplitude * (d < comp.radius)
    u = np.clip((comp.radius - d) / comp.width, 0.0, 1.0)
    return comp.amplitude * u * u * (3.0 - 2.0 * u)


@pytest.mark.parametrize("turn", (0.0, 0.7))
@pytest.mark.parametrize("comp", COMPONENTS, ids=COMPONENT_IDS)
def test_component_eval_is_its_closed_form_and_leaves_the_points_alone(comp, turn):
    # the components work in place on their offsets from the centre: the
    # values must still be the closed form bit for bit, the input points
    # untouched, and every call's array its own
    rng = np.random.default_rng(7)
    x = rng.uniform(-0.7, 0.7, size=(40, 30, 2))
    x[0, :2] = comp.center  # on the centre, and on the disc rim
    x[1, 0] = (comp.center[0] + getattr(comp, "radius", comp.feature_scale), comp.center[1])
    kept = x.copy()
    got = comp.eval(x, turn)
    assert np.array_equal(x, kept)
    assert got.dtype == float and got.shape == x.shape[:-1]
    assert np.array_equal(got, closed_form(comp, x, turn))
    again = comp.eval(x, turn)
    assert again is not got and np.array_equal(again, got)
    both = Phantom((comp, COMPONENTS[0]))
    total = both.eval(x, turn)
    assert np.array_equal(x, kept)
    assert np.array_equal(total, got + COMPONENTS[0].eval(x, turn))
    assert both.eval(x, turn) is not total


@pytest.mark.parametrize("turn", (0.0, 0.7))
@pytest.mark.parametrize("comp", COMPONENTS, ids=COMPONENT_IDS)
def test_component_eval_at_a_single_point_is_a_float(comp, turn):
    for point in (np.zeros(2), np.array(comp.center), (0.05, -0.1), [0.3, 0.3]):
        kept = np.array(point, dtype=float)
        got = comp.eval(point, turn)
        assert type(got) is float
        assert got == closed_form(comp, kept[None], turn)[0]
        assert np.array_equal(np.asarray(point, dtype=float), kept)
    # the forward's divergent-row check evaluates the phantom at the origin
    at_origin = Phantom((comp, COMPONENTS[0])).eval(np.zeros(2))
    assert type(at_origin) is float
    assert at_origin == comp.eval(np.zeros(2)) + COMPONENTS[0].eval(np.zeros(2))
    assert type(Phantom((comp,)).eval(np.zeros(2), turn)) is float


@pytest.mark.parametrize(
    "ph",
    (Phantom(COMPONENTS[:1]), Phantom(COMPONENTS[2:3]), Phantom(COMPONENTS[3:]), Phantom(COMPONENTS)),
    ids=("gaussian", "mollified disc", "sharp disc", "mixed"),
)
def test_eval_of_a_sequence_of_turns_is_each_turn_alone_bit_for_bit(ph):
    # the forward transform evaluates all the columns that share a block of
    # points in one call; each column's values must be its own call's
    rng = np.random.default_rng(11)
    x = rng.uniform(-0.7, 0.7, size=(23, 17, 2))
    turns = (0.0, 0.7, -2.1, np.float64(math.pi), 5.0, 1e-3)
    kept = x.copy()
    got = ph.eval(x, turns)
    assert np.array_equal(x, kept)
    assert got.shape == (len(turns),) + x.shape[:-1]
    for turn, values in zip(turns, got):
        assert values.tobytes() == ph.eval(x, turn).tobytes()
    # a list, an array and a single point; no turns at all is no values
    assert ph.eval(x, np.array(turns)).tobytes() == got.tobytes()
    at_point = ph.eval(x[3, 4], list(turns))
    assert at_point.shape == (len(turns),)
    assert all(v == ph.eval(x[3, 4], t) for t, v in zip(turns, at_point))
    assert ph.eval(x, []).shape == (0,) + x.shape[:-1]
    assert Phantom(()).eval(x, turns).shape == got.shape


def test_feature_scale_is_the_smallest_component_scale():
    # sigma for a Gaussian, the rim band for a disc
    g = Gaussian((0.0, 0.0), 0.1)
    d = Disc((0.5, 0.0), 0.2, 1.5, width=0.03)
    assert g.feature_scale == 0.1 and d.feature_scale == 0.03
    assert Phantom((g, d)).feature_scale == 0.03
    assert Phantom(()).feature_scale == math.inf

    class Unscaled:
        support_radius = 0.3

        def eval(self, x):
            return np.zeros(np.shape(x)[:-1])

    # a component that names no scale makes the quadrature refine fully
    assert Phantom((g, Unscaled())).feature_scale == 0.0


def test_rasterize_matches_eval():
    p = Phantom((Gaussian((0.06, 0.04), 0.15),))
    g = Grid.centered(17, 0.64)
    f = p.rasterize(g)
    assert f.grid == g
    assert_allclose(f.values, p.eval(g.points()), rtol=0, atol=0)


def test_parse_phantom():
    p = parse_phantom("gauss:0.06,0.04,0.15,1")
    assert p.components == (Gaussian((0.06, 0.04), 0.15, 1.0),)
    p = parse_phantom("disc:0,0,0.5,2,0.1; gauss:0.1,0,0.2,1")
    assert p.components == (
        Disc((0.0, 0.0), 0.5, 2.0, 0.1),
        Gaussian((0.1, 0.0), 0.2, 1.0),
    )
    assert parse_phantom("disc:0,0,0.5,2").components[0].width == 0.0


def test_parse_phantom_rejects_malformed():
    with pytest.raises(ValueError, match="unknown phantom shape"):
        parse_phantom("blob:0,0,1,1")
    with pytest.raises(ValueError, match="gauss needs"):
        parse_phantom("gauss:0,0,1")
    with pytest.raises(ValueError, match="disc needs"):
        parse_phantom("disc:0,0,1,1,0.1,9")
    with pytest.raises(ValueError, match="non-numeric"):
        parse_phantom("gauss:0,0,sigma,1")


_COORD = st.floats(min_value=-10.0, max_value=10.0)
_SIZE = st.floats(min_value=1e-6, max_value=10.0)


def _term(shape, *nums):
    return f"{shape}:" + ",".join(map(repr, nums))


@st.composite
def phantom_terms(draw):
    """A component together with its descriptor term in repr floats."""
    cx, cy, size, amp = draw(_COORD), draw(_COORD), draw(_SIZE), draw(_COORD)
    shape = draw(st.sampled_from(("gauss", "disc", "disc+width")))
    if shape == "gauss":
        return Gaussian((cx, cy), size, amp), _term(shape, cx, cy, size, amp)
    if shape == "disc":
        return Disc((cx, cy), size, amp), _term(shape, cx, cy, size, amp)
    w = draw(st.floats(min_value=0.0, max_value=10.0))
    return Disc((cx, cy), size, amp, w), _term("disc", cx, cy, size, amp, w)


@given(st.lists(phantom_terms(), min_size=1, max_size=4))
def test_parse_phantom_round_trips_formatted_terms(terms):
    comps, texts = zip(*terms)
    assert parse_phantom(";".join(texts)).components == comps


@st.composite
def malformed_terms(draw):
    shape = draw(st.sampled_from(("gauss", "disc")))
    arities = (4,) if shape == "gauss" else (4, 5)
    flaw = draw(st.sampled_from(("arity", "shape", "non-numeric", "non-finite")))
    if flaw == "arity":
        arity = draw(st.integers(0, 7).filter(lambda k: k not in arities))
    else:
        arity = draw(st.sampled_from(arities))
    nums = [repr(draw(_SIZE)) for _ in range(arity)]
    if flaw == "shape":
        shape = draw(st.text(string.ascii_lowercase, max_size=8).filter(lambda s: s not in ("gauss", "disc")))
    elif flaw == "non-numeric":
        nums[draw(st.integers(0, arity - 1))] = draw(st.sampled_from(("", "x", "1.0.0", "0x10", "1e", "--1")))
    elif flaw == "non-finite":
        nums[draw(st.integers(0, arity - 1))] = draw(st.sampled_from(("nan", "inf", "-inf", "NaN", "Infinity")))
    return f"{shape}:{','.join(nums)}"


@given(st.lists(phantom_terms(), max_size=2), malformed_terms())
def test_parse_phantom_refuses_malformed_terms(valid, bad):
    texts = [text for _, text in valid] + [bad]
    with pytest.raises(ValueError):
        parse_phantom(";".join(texts))


def test_module_level_metrics():
    g = Grid(2, 2, 0.0, 0.0, 1.0)
    a = Phantom((Gaussian((0.0, 0.0), 1.0),)).rasterize(g)
    b = Phantom((Gaussian((0.0, 0.0), 1.0, 2.0),)).rasterize(g)
    assert a.rel_l2(b) == pytest.approx(0.5)
    assert b.linf(a) == pytest.approx(1.0)
