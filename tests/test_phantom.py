"""Analytic phantom components, their supports, and the descriptor parser."""

import math

import numpy as np
import pytest
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


def test_phantom_sums_components():
    p = Phantom((Gaussian((0.0, 0.0), 0.1), Disc((0.5, 0.0), 0.2, 1.5)))
    assert p.eval((0.5, 0.0)) == pytest.approx(1.5 + math.exp(-0.5 * 25))
    assert p.support_radius == pytest.approx(0.7)
    assert Phantom(()).support_radius == 0.0
    assert Phantom(()).eval((1.0, 2.0)) == 0.0


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


def test_module_level_metrics():
    g = Grid(2, 2, 0.0, 0.0, 1.0)
    a = Phantom((Gaussian((0.0, 0.0), 1.0),)).rasterize(g)
    b = Phantom((Gaussian((0.0, 0.0), 1.0, 2.0),)).rasterize(g)
    assert a.rel_l2(b) == pytest.approx(0.5)
    assert b.linf(a) == pytest.approx(1.0)
