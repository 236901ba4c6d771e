"""Oracles for trig-polynomial roots and the singular circle integrals.

Every expected value below is computed inline from a closed form (explicit
root locations, Poisson-type integrals) or from a quadrature oracle that does
not share code with the implementation; the finite part of 1/t^2 is checked
against its regularized definition, an eps ladder extrapolated to eps = 0.
Nothing is a snapshot of the module under test.
"""

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from funkradon import GeometryFamily, TrigPoly, nucleus_check, pv_inverse_square, residue_integral
from funkradon import trigpoly
from funkradon.geometry import half_angle_difference, parse_geometry, psi_branch
from funkradon.trigpoly import all_real_simple, kernel_scale, roots

TAU = 2 * math.pi


def poly(a, b=()):
    return TrigPoly(tuple(a), tuple(b))


COS = poly((0.0, 1.0))                 # cos phi
SIN = poly((0.0, 0.0), (0.0, 1.0))     # sin phi


# ---------------------------------------------------------------- TrigPoly

def test_normalization_trims_and_pads():
    t = poly((1.0, 2.0, 0.0), (0.0, 3.0, 0.0))
    assert t.order == 1
    assert t.a == (1.0, 2.0)
    assert t.b == (0.0, 3.0)
    # b longer than a pads a; b[0] is pinned to zero
    u = TrigPoly((1.0,), (9.0, 0.5))
    assert u.order == 1
    assert u.a == (1.0, 0.0)
    assert u.b == (0.0, 0.5)
    zero = poly((0.0, 0.0))
    assert zero.order == 0 and zero.coeff_scale() == 0.0


def test_eval_examples():
    assert COS.eval(0.0) == pytest.approx(1.0)
    assert COS.eval(1j) == pytest.approx(math.cosh(1.0))
    assert poly((1.0, 0.5)).eval(math.pi) == pytest.approx(0.5)


def test_eval_periodic_and_vectorized():
    rng = np.random.default_rng(7)
    t = poly((0.3, -1.2, 0.7), (0.0, 0.4, -0.9))
    ph = rng.uniform(-4, 4, size=11)
    assert_allclose(t.eval(ph + TAU), t.eval(ph), rtol=0, atol=1e-12)
    z = ph + 1j * rng.uniform(-1, 1, size=11)
    direct = sum(
        t.a[m] * np.cos(m * z) + t.b[m] * np.sin(m * z) for m in range(len(t.a))
    )
    assert_allclose(t.eval(z), direct, rtol=1e-13)


def _eval_loop(t, phi):
    """The per-harmonic loop TrigPoly.eval ran on its own before it became
    the one-row case of the stack evaluator."""
    phi = np.asarray(phi)
    out = np.zeros(phi.shape, dtype=np.result_type(phi, float)) + t.a[0]
    for m in range(1, len(t.a)):
        mphi = m * phi
        out = out + t.a[m] * np.cos(mphi) + t.b[m] * np.sin(mphi)
    return out.real if np.isrealobj(phi) else out


@pytest.mark.parametrize("shape", ((), (13,), (3, 5)))
def test_eval_is_bit_identical_to_the_harmonic_loop(shape):
    rng = np.random.default_rng(19)
    t = poly(rng.standard_normal(5), np.concatenate([[0.0], rng.standard_normal(4)]))
    ph = rng.uniform(-7, 7, size=shape)
    z = ph + 1j * rng.uniform(-2, 2, size=shape)
    for p in (ph, z):
        got = np.asarray(t.eval(p))
        want = _eval_loop(t, p)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    assert isinstance(t.eval(0.5), float) and isinstance(t.eval(0.5 + 0.1j), complex)
    # the order-zero constant, at an array of angles
    assert np.asarray(poly((2.5,)).eval(ph)).tobytes() == _eval_loop(poly((2.5,)), ph).tobytes()


def test_derivative_coefficients_are_m_b_and_minus_m_a():
    t = poly((1.0, 0.5, 0.0, -0.8), (0.0, -0.3, 2.0, 0.1))
    d = t.derivative()
    assert d.a == (0.0, -0.3, 4.0, 0.30000000000000004)
    assert d.b == (0.0, -0.5, -0.0, 2.4000000000000004)
    assert poly((3.0,)).derivative().order == 0


def test_derivative_matches_finite_differences():
    t = poly((1.0, 0.5, 0.0, -0.8), (0.0, -0.3, 2.0, 0.1))
    ph = np.linspace(0.1, 6.0, 9)
    h = 1e-6
    fd = (t.eval(ph + h) - t.eval(ph - h)) / (2 * h)
    assert_allclose(t.derivative().eval(ph), fd, rtol=0, atol=1e-7)


def test_product_identities():
    sq = COS * COS
    assert_allclose(sq.a, (0.5, 0.0, 0.5), atol=1e-15)
    cs = COS * SIN
    assert_allclose(cs.a, (0.0, 0.0, 0.0), atol=1e-15)
    assert_allclose(cs.b, (0.0, 0.0, 0.5), atol=1e-15)


def test_arithmetic_agrees_with_pointwise():
    rng = np.random.default_rng(3)
    s = poly((0.2, 1.0, -0.5), (0.0, 0.3, 0.8))
    t = poly((-1.0, 0.0, 0.4, 0.9), (0.0, -0.2, 0.0, 0.1))
    ph = rng.uniform(0, TAU, size=7) + 1j * rng.uniform(-0.5, 0.5, size=7)
    assert_allclose((s + t).eval(ph), s.eval(ph) + t.eval(ph), rtol=1e-13)
    assert_allclose((s - t).eval(ph), s.eval(ph) - t.eval(ph), rtol=1e-13)
    assert_allclose((s * t).eval(ph), s.eval(ph) * t.eval(ph), rtol=1e-12)
    assert_allclose((2.5 * t).eval(ph), 2.5 * t.eval(ph), rtol=1e-13)


# ------------------------------------------------------------------ roots

def test_roots_of_cos():
    assert_allclose(roots(COS), [math.pi / 2, 3 * math.pi / 2], atol=1e-12)


def test_roots_shifted_cos():
    # 1 + 0.5 cos phi = 0 forces cos phi = -2, i.e. phi = pi +- i arccosh 2
    r = roots(poly((1.0, 0.5)))
    tau0 = math.acosh(2.0)
    want = np.array([math.pi - 1j * tau0, math.pi + 1j * tau0])
    assert_allclose(r[np.argsort(r.imag)], want, atol=1e-10)


def test_roots_two_real():
    assert_allclose(roots(poly((-1.0, 2.0))), [math.pi / 3, 5 * math.pi / 3], atol=1e-12)


def test_roots_double_root_counted_twice():
    r = roots(poly((1.0, 1.0)))  # (1 + cos) has a double zero at pi
    assert r.shape == (2,)
    assert_allclose(r.real, [math.pi, math.pi], atol=1e-6)


def test_roots_properties_random():
    rng = np.random.default_rng(42)
    for _ in range(20):
        k = int(rng.integers(1, 4))
        a = rng.normal(size=k + 1)
        b = np.concatenate(([0.0], rng.normal(size=k)))
        t = poly(a, b)
        r = roots(t)
        assert r.shape == (2 * t.order,)
        scale = t.coeff_scale()
        assert np.max(np.abs(t.eval(r))) <= 1e-9 * scale
        # real coefficients: the root set is closed under conjugation
        conj = np.conj(r)
        conj = np.where(conj.real < 0, conj + TAU, conj)
        for c in conj:
            d = np.abs(r - c)
            d = np.minimum(d, np.abs(r - c - TAU))
            d = np.minimum(d, np.abs(r - c + TAU))
            assert np.min(d) < 1e-7
    assert roots(poly((5.0,))).shape == (0,)


def eigvals_roots(a, b):
    """Zeros of a stack of order-one rows from np.linalg.eigvals of each
    row's 2 x 2 companion matrix for c2 z^2 + c1 z + c0, as phi in
    [0, 2pi) + i tau."""
    c0, c2 = 0.5 * (a[:, 1] + 1j * b[:, 1]), 0.5 * (a[:, 1] - 1j * b[:, 1])
    comp = np.zeros((a.shape[0], 2, 2), dtype=complex)
    comp[:, 1, 0] = 1.0
    comp[:, 0, 1] = -c0 / c2
    comp[:, 1, 1] = -a[:, 0] / c2
    z = np.linalg.eigvals(comp)
    phi = np.angle(z) - 1j * np.log(np.abs(z))
    return np.where(phi.real < 0, phi + TAU, phi)


def refuses_repeated(t, rts):
    """Whether pv_inverse_square's rules refuse t, given its zeros rts."""
    a, b = trigpoly._coeff_stack(t)
    real_mask = trigpoly._real_mask(a, b, rts[None, :])[0]
    real = rts.real[real_mask]
    try:
        trigpoly._simple_zeros(t, real, np.abs(t.derivative().eval(real)), rts[~real_mask])
    except ValueError:
        return True
    return False


def test_order_one_closed_form_zeros_match_the_companion_eigenvalues():
    # random rows, complex pairs (|a0| > R = |a1 + i b1|), rows a hair either
    # side of a double zero (|a0| = R (1 +- 1e-12): zeros ~1.4e-6 apart, real
    # or complex) and exact double zeros R (1 + cos(phi - u)), which the
    # eigenvalue call splits by roundoff
    rng = np.random.default_rng(23)
    n = 60
    a, b = rng.normal(size=(4 * n, 2)), rng.normal(size=(4 * n, 2))
    b[:, 0] = 0.0
    R = np.hypot(a[:, 1], b[:, 1])
    sign = np.where(rng.uniform(size=4 * n) < 0.5, -1.0, 1.0)
    a[n : 2 * n, 0] = sign[n : 2 * n] * R[n : 2 * n] * rng.uniform(1.1, 3.0, n)
    a[2 * n : 3 * n, 0] = sign[2 * n : 3 * n] * R[2 * n : 3 * n] * (1.0 + np.resize([1e-12, -1e-12], n))
    u = rng.uniform(0.0, TAU, n)
    a[3 * n :] = np.stack([np.ones(n), np.cos(u)], axis=1) * R[3 * n :, None]
    b[3 * n :, 1] = R[3 * n :] * np.sin(u)
    a = np.concatenate([a, [[1.0, 1.0], [1.0, -1.0]]])  # 1 + cos and 1 - cos
    b = np.concatenate([b, np.zeros((2, 2))])

    got = trigpoly._stacked_roots(a, b)
    want = eigvals_roots(a, b)
    assert got.shape == want.shape == (a.shape[0], 2)
    assert np.all((0.0 <= got.real) & (got.real < TAU))
    assert np.all(np.lexsort((got.imag, got.real), axis=-1) == [0, 1])
    # the same zeros, matched on the unit circle of z = exp(i phi)
    zg, zw = np.exp(1j * got), np.exp(1j * want)
    gap = np.minimum(
        np.max(np.abs(zg - zw), axis=1), np.max(np.abs(zg - zw[:, ::-1]), axis=1)
    )
    double = np.zeros(a.shape[0], dtype=bool)
    double[3 * n :] = True
    assert np.max(gap[: 2 * n]) <= 1e-13
    assert np.max(gap[2 * n : 3 * n]) <= 1e-9
    assert np.max(gap[double]) <= 1e-6
    # the same real/complex split and the same refusals
    split_got = trigpoly._real_mask(a, b, got).sum(axis=1)
    split_want = trigpoly._real_mask(a, b, want).sum(axis=1)
    assert split_got.tolist() == split_want.tolist()
    assert set(split_got[n : 2 * n]) == {0} and set(split_got[double]) == {2}
    assert set(split_got[2 * n : 3 * n]) == {0, 2}
    for i in range(a.shape[0]):
        t = poly(a[i], b[i])
        assert refuses_repeated(t, got[i]) == refuses_repeated(t, want[i]) == double[i], i
    # far complex pairs, where the other sign of the square root would
    # cancel: a0 + R cos(phi - u) vanishes at u + pi (u for a0 < 0) plus or
    # minus i acosh(|a0| / R)
    R, u = 0.7, 2.0
    for ratio in (1e2, 1e4, 1e6, -1e2, -1e4, -1e6):
        got = trigpoly._stacked_roots(np.array([[ratio * R, R * math.cos(u)]]), np.array([[0.0, R * math.sin(u)]]))[0]
        tau = math.acosh(abs(ratio))
        assert_allclose(got.real, u + math.pi * (ratio > 0), rtol=0, atol=1e-13)
        assert_allclose(got.imag, [-tau, tau], rtol=1e-14)
    for k in (1, 2):
        with pytest.raises(ValueError, match="nonzero leading harmonic"):
            trigpoly._stacked_roots(np.array([[1.0] + [0.5] * (k - 1) + [0.0]]), np.zeros((1, k + 1)))


# ------------------------------------------------------------ real/simple

def test_all_real_simple_examples():
    assert all_real_simple(COS) is True
    assert all_real_simple(poly((1.0, 0.5))) is False
    assert all_real_simple(poly((-1.0, 2.0))) is True
    # double zero at pi, refused as repeated
    assert all_real_simple(poly((1.0, 1.0))) is False
    assert all_real_simple(poly((2.0,))) is True       # nonvanishing constant
    assert all_real_simple(poly((0.0,))) is False


# ------------------------------------------------------------ pv of 1 / t^2

def test_pv_vanishes_for_real_simple_zeros():
    assert abs(pv_inverse_square(COS)) <= 1e-6
    assert abs(pv_inverse_square(poly((-1.0, 2.0)))) <= 1e-6


def test_pv_no_real_zeros_closed_form():
    # d/da of the Poisson integral 2pi/sqrt(a^2-b^2) gives
    # int dphi/(a + b cos)^2 = 2 pi a (a^2-b^2)^{-3/2}; positive integrand.
    a, b = 1.0, 0.5
    want = TAU * a * (a * a - b * b) ** -1.5
    got = pv_inverse_square(poly((a, b)))
    assert got == pytest.approx(want, abs=1e-5)
    # cross-check the closed form itself by direct regularization-free quadrature
    ph = (np.arange(4096) + 0.5) * (TAU / 4096)
    direct = np.mean(1.0 / (a + b * np.cos(ph)) ** 2) * TAU
    assert direct == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("gap", [1e-2, 1e-4, 1e-6])
def test_pv_near_real_complex_pair_closed_form(gap):
    # a + cos phi with a = 1 + gap has its complex pair at Im ~ sqrt(2 gap)
    # and min |t| = gap on the circle; same closed form as above with b = 1
    a = 1.0 + gap
    want = TAU * a * ((a - 1.0) * (a + 1.0)) ** -1.5
    assert pv_inverse_square(poly((a, 1.0))) == pytest.approx(want, rel=1e-8)


def random_real_zero_poly(rng, order):
    """A product of ``order`` factors amp (cos(phi - u) - cos(delta)), each
    with the simple real zeros u +- delta, so every zero is real."""
    t = poly((rng.uniform(0.7, 1.5),))
    for _ in range(order):
        u = rng.uniform(0, TAU)
        delta = rng.uniform(0.4, math.pi - 0.4)
        amp = rng.uniform(0.7, 1.5)
        t = t * poly((-amp * math.cos(delta), amp * math.cos(u)), (0.0, amp * math.sin(u)))
    return t


def zeros_apart(t, gap=0.5):
    # separation keeps the local slopes honest so an eps ladder extrapolates
    r = roots(t).real
    gaps = np.abs(np.subtract.outer(r, r))
    gaps = np.minimum(gaps, TAU - gaps)
    return bool(np.min(gaps + np.eye(len(r)) * 10) >= gap)


def test_pv_vanishing_property_random_products():
    # products of order-1 factors with prescribed, well-separated real zeros
    rng = np.random.default_rng(2024)
    built = 0
    while built < 10:
        t = random_real_zero_poly(rng, int(rng.integers(1, 4)))
        if not zeros_apart(t):
            continue
        built += 1
        assert all_real_simple(t)
        scale = np.max(np.abs(t.derivative().eval(roots(t).real)))
        assert abs(pv_inverse_square(t)) <= 1e-5 * scale**2


def test_pv_rejections():
    with pytest.raises(ValueError, match="repeated"):
        pv_inverse_square(poly((1.0, 1.0)))
    with pytest.raises(ValueError, match="zero"):
        pv_inverse_square(poly((0.0,)))


@pytest.mark.parametrize(
    "t",
    [
        poly((1.0, -1.0)),
        1e3 * poly((1.0, 1.0)),
        1e-3 * poly((1.0, 1.0)),
        poly((1.0, 1.0)) * poly((0.3, 1.0)),
        poly((1.0, 1.0)) * poly((1.0, 1.0)),
    ],
    ids=["1-cos", "1e3(1+cos)", "1e-3(1+cos)", "(1+cos)(0.3+cos)", "(1+cos)^2"],
)
def test_pv_rejects_repeated_real_zeros(t, monkeypatch):
    # the root finder splits a zero of multiplicity m by about eps**(1/m) in a
    # direction roundoff picks; each split zero must still be refused, and
    # before any grid value of t is made: the line integral would return a
    # finite number (0 for (1 + cos)^2) where the limit does not exist
    def no_quadrature(*args):
        raise AssertionError("quadrature ran on a repeated zero")

    monkeypatch.setattr(trigpoly, "_midpoint_values", no_quadrature)
    with pytest.raises(ValueError, match="repeated"):
        pv_inverse_square(t)


@pytest.mark.parametrize("delta", [1e-2, 1e-4, 1e-6])
def test_pv_mixed_zeros_closed_form(delta):
    # cos phi (c + cos phi): simple real zeros at pi/2 and 3pi/2 and a complex
    # pair at Im ~ sqrt(2 delta) over pi. The limit is the residue sum over
    # the pair, which partial fractions in cos phi turn into Poisson
    # integrals.
    c = 1.0 + delta
    want = 2 * TAU / (c**3 * math.sqrt(c * c - 1.0)) + TAU / (c * (c * c - 1.0) ** 1.5)
    assert pv_inverse_square(COS * poly((c, 1.0))) == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("gap", [0.0, 1e-9, 1e-3])
def test_pv_repeated_complex_zeros(gap):
    # (2 + cos)(2 + gap + cos) has a double (gap 0) or nearly double complex
    # pair, where the residues of 1/t^2 at the two upper zeros grow like
    # 1/gap^3 and cancel. Without real zeros the integrand is positive:
    # at gap 0, int (2 + cos)^-4 = pi (2 a^3 + 3 a) / (a^2 - 1)^(7/2), a = 2,
    # and a plain midpoint sum checks the others. With a real zero factor,
    # the limit is Re int 1/t^2 along any line 0 < Im phi < min Im of the
    # complex zeros; one at Im 0.3, evaluated in complex doubles.
    t = poly((2.0, 1.0)) * poly((2.0 + gap, 1.0))
    ph = (np.arange(4096) + 0.5) * (TAU / 4096)
    want = math.pi * 22.0 / 3.0**3.5 if gap == 0.0 else TAU * np.mean(1.0 / t.eval(ph) ** 2)
    assert pv_inverse_square(t) == pytest.approx(want, rel=1e-12)
    mixed = COS * t
    want = TAU * np.mean(np.real(1.0 / mixed.eval(ph + 0.3j) ** 2))
    assert pv_inverse_square(mixed) == pytest.approx(want, rel=1e-12)


def test_pv_limit_off_the_axis_is_held_to_the_grid_cap(monkeypatch):
    # cos phi (c + cos phi), c = 1 + 1e-12: the complex pair sits ~1.4e-6 off
    # the axis, so the line between it and the real zeros needs ~6e7 nodes
    def no_quadrature(*args):
        raise AssertionError("quadrature ran past the grid cap")

    monkeypatch.setattr(trigpoly, "_midpoint_values", no_quadrature)
    with pytest.raises(ValueError, match=r"limit off the real axis needs a \d+-node grid, above the cap"):
        pv_inverse_square(COS * poly((1.0 + 1e-12, 1.0)))


LD_EPS = float(np.finfo(np.longdouble).eps)


# every n here but 1 and 2 ends on a partial anchor row, and 65537 and 300007
# also on a partial block of rows
@pytest.mark.parametrize("n", [1, 2, 7, 128, 4099, 65537, 300007])
def test_midpoint_values_match_per_node_evaluation(n):
    # the angle-addition grid against each row summed node by node in
    # extended precision at phi_k = (k + 1/2) 2pi/n; two rows per stack, as
    # the line integral sends u and v
    rng = np.random.default_rng(n)
    ph = (np.arange(n) + np.longdouble(0.5)) * (np.longdouble(TAU) / n)
    for order in (1, 2, 3):
        a, b = rng.normal(size=(2, order + 1)), rng.normal(size=(2, order + 1))
        blocks = list(trigpoly._midpoint_values(a, b, n))
        assert all(bl.dtype == np.longdouble and bl.shape[0] == 2 and 0 < bl.shape[1] <= 1 << 16 for bl in blocks)
        grid = np.concatenate(blocks, axis=1)
        assert grid.shape == (2, n)
        for row in range(2):
            direct = np.full(n, np.longdouble(a[row, 0]))
            for m in range(1, order + 1):
                direct += a[row, m] * np.cos(m * ph) + b[row, m] * np.sin(m * ph)
            bound = 32 * LD_EPS * (np.abs(a[row]).sum() + np.abs(b[row, 1:]).sum())
            assert float(np.max(np.abs(grid[row] - direct))) <= bound


def separated_real_zero_poly(rng, order):
    t = random_real_zero_poly(rng, order)
    while not zeros_apart(t):
        t = random_real_zero_poly(rng, order)
    return t


def ld_eval(t, ph):
    """t summed node by node in extended precision."""
    out = np.full(ph.shape, np.longdouble(t.a[0]))
    for m in range(1, t.order + 1):
        out += t.a[m] * np.cos(m * ph) + t.b[m] * np.sin(m * ph)
    return out


def ladder_limit(t, real, max_nodes=1_000_000, steps=(4e-2, 2e-2, 1e-2, 5e-3)):
    """The finite part of int 1/t^2 by its definition: Re int dphi /
    (t + i eps)^2 at four eps levels, each a midpoint sum in extended
    precision, extrapolated to eps = 0 by the cubic through the levels.

    The levels expand in eps |t''| / t'^2 around each real zero, so eps is
    scaled by the smallest t'^2 / |t''| there. The poles of a level sit about
    eps / |t'| off the axis, and its grid resolves them at the steepest zero.
    None when the finest level would need more than ``max_nodes`` nodes.
    """
    slopes = np.abs(t.derivative().eval(real))
    curv = np.abs(t.derivative().derivative().eval(real))
    eps = np.asarray(steps) * min(t.coeff_scale(), 0.2 * float(np.min(slopes**2 / curv)))
    sizes = [int(32 * np.max(slopes) / e) + 128 for e in eps]
    if sizes[-1] > max_nodes:
        return None
    levels = []
    for e, n in zip(eps, sizes):
        ph = (np.arange(n) + np.longdouble(0.5)) * (np.longdouble(TAU) / n)
        t2, e2 = ld_eval(t, ph) ** 2, np.longdouble(e) ** 2
        levels.append(float(np.sum((t2 - e2) / (t2 + e2) ** 2) * (np.longdouble(TAU) / n)))
    return float(np.linalg.solve(np.vander(eps / eps[0], len(eps), increasing=True), levels)[0])


@pytest.mark.parametrize(
    "order, pair",
    [(1, False), (2, False), (3, False), (1, True), (2, True)],
    ids=["real1", "real2", "real3", "mixed2", "mixed3"],
)
def test_pv_matches_the_eps_ladder_on_random_t(order, pair):
    # t: a product of ``order`` factors with separated simple real zeros,
    # times, for ``pair``, amp (c + cos(phi - u)) with c in [1.2, 2], whose
    # complex pair sits acosh(c) >= 0.62 off the axis. All-real t have limit
    # 0; the pair gives t a nonzero one. The ladder's extrapolation error is
    # below 3e-7 t'^2 on these. A draw whose ladder would need more than a
    # million nodes (a real zero with small t'^2 / |t''|) is drawn again, to
    # bound the oracle's cost.
    rng = np.random.default_rng(60 + 10 * order + pair)
    checked = 0
    while checked < 2:
        t = separated_real_zero_poly(rng, order)
        if pair:
            c, u, amp = rng.uniform(1.2, 2.0), rng.uniform(0, TAU), rng.uniform(0.7, 1.5)
            t = t * poly((amp * c, amp * math.cos(u)), (0.0, amp * math.sin(u)))
        rts = roots(t)
        real = rts.real[np.abs(rts.imag) < 1e-8]
        assert real.size == 2 * order
        want = ladder_limit(t, real)
        if want is None:
            continue
        checked += 1
        got = pv_inverse_square(t)
        slope2 = float(np.max(np.abs(t.derivative().eval(real)))) ** 2
        assert abs(got - want) <= 1e-6 * max(slope2, abs(want))
        if not pair:
            assert abs(got) <= 1e-12 * slope2


@pytest.mark.parametrize("order", [1, 2, 3])
def test_pv_runs_one_short_line_when_every_zero_is_real(order, monkeypatch):
    # with no complex zero the line sits at Im phi = 1/2, half a unit above
    # the real poles, and 44 / (1/2) + 128 = 216 midpoint nodes resolve it
    passes = []

    def counted(a, b, n):
        passes.append((a.shape[0], n))
        return real_values(a, b, n)

    real_values = trigpoly._midpoint_values
    monkeypatch.setattr(trigpoly, "_midpoint_values", counted)
    t = separated_real_zero_poly(np.random.default_rng(70 + order), order)
    pv_inverse_square(t)
    assert passes == [(2, 216)]  # one pass carrying u and v, the real and imaginary parts of t on the line


# --------------------------------------------------- residues of s / t

def test_residue_poisson():
    want = TAU / math.sqrt(1.0 - 0.25)
    assert residue_integral(poly((1.0,)), poly((1.0, 0.5))) == pytest.approx(want, rel=1e-12)


def test_residue_order_two():
    # 1 + cos^2 phi written as 1.5 + 0.5 cos 2 phi; value 2 pi / sqrt 2
    got = residue_integral(poly((1.0,)), poly((1.5, 0.0, 0.5)))
    assert got == pytest.approx(TAU / math.sqrt(2.0), rel=1e-12)


def test_residue_equal_orders():
    # quadrature oracle fixes the value; closed form is 2 pi (1 - 2/sqrt(3))
    oracle, err = quad(lambda p: math.cos(p) / (2.0 + math.cos(p)), 0.0, TAU,
                       epsabs=1e-13, epsrel=1e-13, limit=200)
    assert err < 1e-10
    assert oracle == pytest.approx(TAU * (1.0 - 2.0 / math.sqrt(3.0)), rel=1e-11)
    assert residue_integral(COS, poly((2.0, 1.0))) == pytest.approx(oracle, rel=1e-10)


def test_residue_constant_over_constant():
    assert residue_integral(poly((3.0,)), poly((2.0,))) == pytest.approx(3 * math.pi)


def test_residue_matches_quadrature_random():
    rng = np.random.default_rng(11)
    ph_probe = np.linspace(0, TAU, 720, endpoint=False)
    for _ in range(50):
        k = int(rng.integers(1, 4))
        a = rng.normal(size=k + 1)
        b = np.concatenate(([0.0], rng.normal(size=k)))
        t = poly(a, b)
        lift = 1.2 * np.max(np.abs(t.eval(ph_probe))) + 0.1
        t = t + poly((lift,))
        j = int(rng.integers(0, t.order + 1))
        s = poly(rng.normal(size=j + 1), np.concatenate(([0.0], rng.normal(size=j))))
        oracle, err = quad(lambda p: s.eval(p) / t.eval(p), 0.0, TAU,
                           epsabs=1e-13, epsrel=1e-13, limit=400)
        assert err < 1e-9
        got = residue_integral(s, t)
        assert abs(got - oracle) <= 1e-10 * max(1.0, abs(oracle))


def test_residue_rejections():
    with pytest.raises(ValueError, match="exceed"):
        residue_integral(poly((0.0, 0.0, 1.0)), poly((2.0, 1.0)))
    with pytest.raises(ValueError, match="real zero"):
        residue_integral(poly((1.0,)), COS)
    with pytest.raises(ValueError, match="real zero"):
        residue_integral(poly((1.0,)), poly((-1.0, 2.0)))
    with pytest.raises(ValueError, match="real zero"):
        residue_integral(poly((1.0,)), poly((1.0, 1.0)))  # double zero at pi
    with pytest.raises(ValueError, match="zero"):
        residue_integral(poly((1.0,)), poly((0.0,)))


def random_stack(rng, n, k):
    """n random order-k polynomials lifted clear of zero on the circle."""
    a = rng.normal(size=(n, k + 1))
    b = rng.normal(size=(n, k + 1))
    b[:, 0] = 0.0
    a[:, 0] = 1.2 * (np.abs(a[:, 1:]).sum(axis=1) + np.abs(b).sum(axis=1)) + 0.1
    return a, b


@pytest.mark.parametrize("k", (1, 2, 3))
def test_residue_stack_matches_rows_one_by_one(k):
    rng = np.random.default_rng(30 + k)
    ta, tb = random_stack(rng, 25, k)
    rows = [poly(a, b) for a, b in zip(ta, tb)]
    s = poly((0.4, -1.1), (0.0, 0.7))
    got = residue_integral(s, (ta, tb))
    assert got.shape == (25,)
    want = [residue_integral(s, t) for t in rows]
    assert_allclose(got, want, rtol=1e-13, atol=1e-15)
    # a stacked numerator of the same order adds the top-edge constant per row
    sa, sb = random_stack(rng, 25, k)
    got = residue_integral((sa, sb), (ta, tb))
    want = [residue_integral(poly(a, b), t) for a, b, t in zip(sa, sb, rows)]
    assert_allclose(got, want, rtol=1e-13, atol=1e-15)


def test_residue_stack_names_the_rows_with_real_zeros():
    rng = np.random.default_rng(40)
    ta, tb = random_stack(rng, 6, 2)
    ta[1] = (1.5, 2.0, 0.5)   # (1 + cos phi)^2, a repeated zero at pi
    tb[1] = 0.0
    ta[4] = (-1.0, 2.0, 0.3)  # two simple real zeros
    tb[4] = 0.0
    with pytest.raises(trigpoly.RealZeroError, match="real zero") as err:
        residue_integral(poly((1.0,)), (ta, tb))
    assert err.value.rows.tolist() == [1, 4]
    with pytest.raises(ValueError, match="leading harmonic"):
        residue_integral(poly((1.0,)), (np.array([[2.0, 1.0, 0.0]]), np.zeros((1, 3))))


def test_roots_is_the_one_row_case_of_the_stack():
    rng = np.random.default_rng(41)
    ta, tb = random_stack(rng, 30, 3)
    ta[:10, 0] = 0.0  # some rows with real zeros as well
    stacked = trigpoly._stacked_roots(ta, tb)
    for i, (a, b) in enumerate(zip(ta, tb)):
        assert stacked[i].tobytes() == roots(poly(a, b)).tobytes()


def test_residue_near_real_pair():
    # 1 + 1e-10 + cos phi never vanishes on the circle (t(pi) = 1e-10), so it
    # stays on the residue path. Its pair sits where a = cosh(Im phi), which
    # fixes Im phi^2 only to about eps / (a - 1) relative: hence rel 2e-6.
    a = 1.0 + 1e-10
    want = TAU / math.sqrt((a - 1.0) * (a + 1.0))
    assert residue_integral(poly((1.0,)), poly((a, 1.0))) == pytest.approx(want, rel=2e-6)


# ------------------------------------------------------------- nucleus

def nucleus_tol(geom, x, y):
    return 1e-4 * max(1.0, kernel_scale(geom, x, y) ** 2)


def test_nucleus_radon_pair():
    g = GeometryFamily("radon")
    x, y = (0.0, 0.0), (1.0, 0.0)
    assert abs(nucleus_check(g, x, y)) <= nucleus_tol(g, x, y)


def test_nucleus_cormack_pair():
    g = GeometryFamily("cormack", k=2)
    x, y = (1.0, 0.0), (0.0, 1.0)
    assert abs(nucleus_check(g, x, y)) <= nucleus_tol(g, x, y)


def test_nucleus_ellipse_pair():
    g = GeometryFamily("ellipse", e1=1.0, e2=1.0)
    x, y = (0.3, 0.0), (0.0, 0.2)
    assert abs(nucleus_check(g, x, y)) <= nucleus_tol(g, x, y)


def test_nucleus_parabola_pair():
    g = GeometryFamily("parabola")
    x, y = (0.5, 0.1), (-0.3, 0.4)
    assert abs(nucleus_check(g, x, y)) <= nucleus_tol(g, x, y)


PARAB = GeometryFamily("parabola")


def parabola_pairs(rng, n):
    """n random pairs in the punctured disc of radius 0.95, and n pairs on
    either side of the negative x-axis, where atan2 jumps from pi to -pi."""
    r = np.sqrt(rng.uniform(0.05**2, 0.95**2, (n, 2)))
    th = rng.uniform(-math.pi, math.pi, (n, 2))
    r_cut = rng.uniform(0.05, 0.95, (n, 2))
    th_cut = np.stack([math.pi - rng.uniform(0, 0.1, n), -math.pi + rng.uniform(0, 0.1, n)], axis=1)
    r, th = np.concatenate([r, r_cut]), np.concatenate([th, th_cut])
    pts = np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)
    return pts[:, 0], pts[:, 1]


def test_parabola_difference_is_a_half_angle_polynomial():
    # psi_branch(x, phi) - psi_branch(y, phi) = T(phi / 2), T of order one
    rng = np.random.default_rng(12)
    ph = np.linspace(-TAU, 2 * TAU, 301)
    xs, ys = parabola_pairs(rng, 20)
    assert np.any(xs[:, 1] * ys[:, 1] < 0)
    for x, y in zip(xs, ys):
        t = half_angle_difference(PARAB, x, y)
        assert t.order == 1 and t.a[0] == 0.0
        want = psi_branch(PARAB, x, ph) - psi_branch(PARAB, y, ph)
        assert_allclose(t.eval(ph / 2), want, rtol=0, atol=1e-14)
    assert half_angle_difference(GeometryFamily("radon"), (0.5, 0.0), (0.0, 0.5)) is None


def test_parabola_nucleus_at_the_close_pair_that_sampling_barely_passed():
    # the sampled eps ladder gave |N| / tol = 0.954 here
    x, y = (-0.51034003, 0.44736446), (-0.52268866, 0.43917458)
    assert abs(nucleus_check(PARAB, x, y)) / nucleus_tol(PARAB, x, y) < 1e-6


def test_parabola_kernel_scale_matches_the_sampled_max_slope():
    # t(phi) = T(phi / 2) peaks in slope at its zeros (T^2 + T'^2 is constant
    # for T = a cos + b sin), where t' = T'(phi / 2) / 2; an 8192-sample finite
    # difference of the branches sees the same slope to O(h^2)
    rng = np.random.default_rng(13)
    n = 8192
    ph = (np.arange(n) + 0.5) * (TAU / n)
    for x, y in zip(*parabola_pairs(rng, 10)):
        d = psi_branch(PARAB, x, ph) - psi_branch(PARAB, y, ph)
        sampled = float(np.max(np.abs(np.diff(d)))) / (TAU / n)
        assert kernel_scale(PARAB, x, y) == pytest.approx(sampled, rel=1e-6)


def test_nucleus_rejects_coincident_points():
    g = GeometryFamily("radon")
    with pytest.raises(ValueError, match="distinct"):
        nucleus_check(g, (0.5, 0.5), (0.5, 0.5))


def test_nucleus_rejects_rotation_equivalent_cormack_pair():
    # (x1, x2) and its half-turn image generate the identical curve family
    g = GeometryFamily("cormack", k=2)
    with pytest.raises(ValueError, match="zero"):
        nucleus_check(g, (0.5, 0.0), (-0.5, 0.0))


# ------------------------------------------- one analysis per point pair

# The nine kernel-check geometries of CI and the circle.
PAIR_GEOMETRIES = (
    "radon",
    "funk:support=0.8",
    "hgeodesic:support=0.7",
    "equidistant:support=0.4",
    "ellipse:e1=1.2,e2=0.8,support=0.7",
    "hyperbola:eps=2",
    "parabola",
    "cormack:k=2",
    "cormack:k=3",
    "ellipse:e1=1,e2=1,support=0.7",
)
NUCLEUS_FUNCTIONS = (trigpoly.nucleus_check, trigpoly.nucleus_zeros, trigpoly.kernel_scale)


def forget_pair(monkeypatch):
    monkeypatch.setattr(trigpoly, "_last_pair", None)


def count_roots(monkeypatch):
    calls = []
    real_roots = trigpoly.roots

    def counted(t):
        calls.append(t)
        return real_roots(t)

    monkeypatch.setattr(trigpoly, "roots", counted)
    return calls


@pytest.mark.parametrize("spec", PAIR_GEOMETRIES)
def test_nucleus_functions_refuse_a_non_finite_point(spec):
    g = parse_geometry(spec)
    base = ((0.2, 0.1), (-0.1, 0.25))
    cases = [((math.inf, 0.0), (math.inf, 0.0))]
    for bad in (math.nan, math.inf, -math.inf):
        for slot in range(2):
            for coord in range(2):
                pts = [list(p) for p in base]
                pts[slot][coord] = bad
                cases.append(tuple(map(tuple, pts)))
    for x, y in cases:
        for fn in NUCLEUS_FUNCTIONS:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(ValueError, match="finite"):
                    fn(g, x, y)


def test_trigpoly_refuses_non_finite_coefficients():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for a, b in (((math.nan, 1.0), ()), ((1.0,), (0.0, math.inf)), ((1.0, -math.inf), (0.0, 1.0))):
            with pytest.raises(ValueError, match="finite"):
                pv_inverse_square(poly(a, b))
            with pytest.raises(ValueError, match="finite"):
                residue_integral(poly((1.0,)), poly(a, b))
        ta, tb = np.ones((4, 2)), np.zeros((4, 2))
        ta[:, 0] = 3.0
        ta[2, 1] = math.nan
        with pytest.raises(ValueError, match="row 2 .*non-finite"):
            residue_integral(poly((1.0,)), (ta, tb))
        ta[2, 1], tb[3, 1] = 1.0, math.inf
        with pytest.raises(ValueError, match="row 3 .*non-finite"):
            residue_integral((np.ones((4, 1)), np.zeros((4, 1))), (ta, tb))
        sa, sb = np.ones((4, 2)), np.zeros((4, 2))
        sa[1, 0], tb[3, 1] = math.nan, 0.0
        with pytest.raises(ValueError, match="row 1 .*non-finite"):
            residue_integral((sa, sb), (ta, tb))


def test_one_pair_is_solved_once(monkeypatch):
    forget_pair(monkeypatch)
    calls = count_roots(monkeypatch)
    g, x, y = parse_geometry("cormack:k=2"), (0.3, 0.1), (-0.2, 0.4)
    for fn in NUCLEUS_FUNCTIONS:
        fn(g, x, y)
    assert len(calls) == 1
    assert not trigpoly._pair(g, x, y).real.flags.writeable


def test_the_memo_holds_one_pair(monkeypatch):
    forget_pair(monkeypatch)
    calls = count_roots(monkeypatch)
    g, a, b = GeometryFamily("radon"), ((0.3, 0.1), (-0.2, 0.4)), ((0.1, 0.1), (0.5, -0.2))
    for x, y in (a, b, a):
        trigpoly.nucleus_check(g, x, y)
        trigpoly.kernel_scale(g, x, y)
    assert len(calls) == 3


def test_the_memo_is_keyed_by_values_not_by_the_array(monkeypatch):
    g = parse_geometry("hyperbola:eps=2")
    x, y = np.array([0.3, 0.1]), np.array([-0.2, 0.4])
    first = trigpoly.kernel_scale(g, x, y)
    x[0] = 0.6
    second = trigpoly.kernel_scale(g, x, y)
    forget_pair(monkeypatch)
    assert second == trigpoly.kernel_scale(g, (0.6, 0.1), (-0.2, 0.4)) != first


def outcomes(g, x, y, before=lambda: None):
    """Each nucleus function's answer on the pair, floats by their bits, or
    the refusal it raised."""
    out = []
    for fn in NUCLEUS_FUNCTIONS:
        before()
        try:
            v = fn(g, x, y)
        except ValueError as exc:
            v = str(exc)
        out.append(v.hex() if isinstance(v, float) else v)
    return out


def drawn_pairs(seed, count=30):
    """(geometry, x, y): ``count`` point pairs per geometry of
    PAIR_GEOMETRIES, drawn uniformly on the disc 0.05 < |x| < min(support,
    0.95)."""
    rng = np.random.default_rng(seed)
    for spec in PAIR_GEOMETRIES:
        g = parse_geometry(spec)
        rmax = min(g.support_radius, 0.95)
        r = np.sqrt(rng.uniform(0.05**2, rmax**2, (count, 2)))
        th = rng.uniform(0.0, TAU, (count, 2))
        for x, y in np.stack([r * np.cos(th), r * np.sin(th)], axis=-1):
            yield g, x, y


def test_shared_pair_answers_equal_fresh_ones_bit_for_bit(monkeypatch):
    for g, x, y in drawn_pairs(22):
        forget_pair(monkeypatch)
        shared = outcomes(g, x, y)
        fresh = outcomes(g, x, y, before=lambda: forget_pair(monkeypatch))
        assert shared == fresh, (g, x, y)


def one_row_grid(a, b, n):
    """One trig polynomial (a, b) on the midpoint grid of n nodes, alone, in
    the extended-precision anchor-and-offset arithmetic of _midpoint_values
    and its blocks of at most 2**16 nodes."""
    step = np.longdouble(2 * np.pi) / n
    width = max(1, math.isqrt(n))
    off = (np.arange(width) + np.longdouble(0.5)) * step
    n_rows = -(-n // width)
    block = max(1, (1 << 16) // width)
    for i0 in range(0, n_rows, block):
        anchor = np.arange(i0, min(i0 + block, n_rows)) * (width * step)
        tv = np.full((anchor.size, width), np.longdouble(a[0]))
        for m in range(1, a.size):
            ca, sa = np.cos(m * anchor), np.sin(m * anchor)
            tv += np.outer(a[m] * ca + b[m] * sa, np.cos(m * off)) + np.outer(b[m] * ca - a[m] * sa, np.sin(m * off))
        yield tv.ravel()[: n - i0 * width]


def two_pass_limit(t, real, cplx):
    """pv_inverse_square's line integral with u and v each on a grid pass of
    its own: the line and grid of _inverse_square_off_axis, summed block by
    block in extended precision."""
    d = float(np.min(np.abs(cplx.imag))) if cplx.size else 1.0
    h = d / 2 if real.size else 0.0
    n = int(44.0 / min(max(d - h, 1e-9), 1.0)) + 128
    a, b = np.array(t.a), np.array(t.b)
    m = np.arange(a.size)
    ch, sh = np.cosh(m * h), np.sinh(m * h)
    total = np.longdouble(0.0)
    for u, v in zip(one_row_grid(a * ch, b * ch, n), one_row_grid(b * sh, -(a * sh), n)):
        u2, v2 = u * u, v * v
        total += np.sum((u2 - v2) / ((u2 + v2) * (u2 + v2)))
    return float(total / n * (2 * np.pi))


def test_one_pass_nucleus_equals_two_passes_bit_for_bit():
    # every pair's t, with its real zeros or its complex pair, and products
    # of orders 2 to 4 whose grids run to several blocks
    checked = 0
    for g, x, y in drawn_pairs(23):
        p = trigpoly._pair(g, x, y)
        want = two_pass_limit(p.t, *trigpoly._simple_zeros(p.t, p.real, p.slopes, p.cplx))
        assert nucleus_check(g, x, y).hex() == want.hex(), (g, x, y)
        checked += 1
    assert checked == 300
    for t in (
        COS * poly((1.0 + 1e-7, 1.0)),
        poly((2.0, 1.0)) * poly((2.0 + 1e-3, 1.0)),
        COS * poly((0.3, 1.0), (0.0, 0.4)) * poly((1.5, 0.2, -0.7), (0.0, 0.5, 0.1)),
    ):
        assert pv_inverse_square(t).hex() == two_pass_limit(t, *trigpoly._real_root_slopes(t)[::2]).hex()


def test_distinct_points_agrees_with_allclose_at_the_tolerance_edge():
    for y in (0.0, 1e-9, 0.37, -0.81, 3.5, -1234.5):
        edge = 1e-8 + 1e-5 * abs(y)
        for d in (math.nextafter(edge, 0.0), edge, math.nextafter(edge, 1.0)):
            for sign in (1.0, -1.0):
                x = y + sign * d
                for px, py in (((x, 0.2), (y, 0.2)), ((0.2, x), (0.2, y))):
                    want = not np.allclose(px, py)
                    assert trigpoly.distinct_points(px, py) is want, (px, py)
                    assert trigpoly.distinct_points(np.array(px), np.array(py)) == want
                    if want:
                        continue
                    with pytest.raises(ValueError, match="distinct"):
                        nucleus_check(GeometryFamily("radon"), px, py)
