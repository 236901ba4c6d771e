"""Real trigonometric polynomials and the singular circle integrals built on them.

Three ingredients of the reconstruction kernel live here: root location for
t(phi) = sum a_m cos(m phi) + b_m sin(m phi) on the complex cylinder, the
finite part of the integral of 1/t^2 across real zeros (which vanishes
exactly when all zeros are real and simple), and residue summation for
integrals of s/t when t never vanishes on the real circle.

Root finding and residue sums work on stacks: n polynomials of one order k
given as (a, b) coefficient arrays of shape (n, k + 1). A stack of order 1 is
solved in closed form by the quadratic formula; the companion matrices of a
higher order go to a single batched eigenvalue call. The root finder and the
residue sum of a single TrigPoly are the one-row case of the stacked ones.

The nucleus functions (nucleus_check, nucleus_zeros, kernel_scale) ask
about one point pair: the difference t of the pair's psi branches and the
zeros of t. Each pair is analysed once, by _pair, whose record the nucleus
N, the zero classes and the tolerance scale share; only the last pair is
held. Non-finite points and coefficients are refused with ValueError before
any root is sought.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "TrigPoly",
    "roots",
    "all_real_simple",
    "pv_inverse_square",
    "residue_integral",
    "RealZeroError",
    "distinct_points",
    "nucleus_check",
    "nucleus_zeros",
    "kernel_scale",
]

# A zero counts as real when it lies within _REAL_ROOT_IM_TOL of the real
# axis, or when t vanishes at its real part to roundoff: |t(Re phi)| at most
# _REAL_ROOT_RESIDUAL_ULPS units of roundoff in sum(|a_m| + |b_m|). The Im
# test alone is not enough, because the root finder splits a zero of
# multiplicity m by about eps**(1/m) in a direction set by roundoff; a double
# zero can land at Im 3e-8, and no fixed Im tolerance near sqrt(eps) is safe.
# t at the real part of such a split zero stays at roundoff, while a
# genuinely complex pair leaves t(Re phi) well clear of it.
_REAL_ROOT_IM_TOL = 1e-8
_REAL_ROOT_RESIDUAL_ULPS = 64
_EPS = float(np.finfo(float).eps)

# Largest midpoint grid of the line integral behind pv_inverse_square.
_PV_GRID_CAP = 6_000_000


def _as_coeff_tuple(c):
    arr = np.atleast_1d(np.asarray(c, dtype=float))
    if arr.ndim != 1:
        raise ValueError("coefficient arrays must be one-dimensional")
    coeffs = arr.tolist()
    if not all(map(math.isfinite, coeffs)):
        raise ValueError(f"trig polynomial coefficients must be finite, got {coeffs}")
    return tuple(coeffs)


@dataclass(frozen=True)
class TrigPoly:
    """t(phi) = a[0] + sum_{m>=1} a[m] cos(m phi) + b[m] sin(m phi).

    Non-finite coefficients are refused with ValueError. Trailing harmonics
    with a[m] == b[m] == 0 are trimmed on construction, so ``order`` always
    names the true leading harmonic. b[0] is meaningless and pinned to zero.
    """

    a: tuple = (0.0,)
    b: tuple = ()

    def __post_init__(self):
        a = _as_coeff_tuple(self.a) if len(self.a) else (0.0,)
        b = _as_coeff_tuple(self.b) if len(self.b) else ()
        if len(b) < len(a):
            b = b + (0.0,) * (len(a) - len(b))
        elif len(b) > len(a):
            a = a + (0.0,) * (len(b) - len(a))
        b = (0.0,) + b[1:]
        k = len(a) - 1
        while k >= 1 and a[k] == 0.0 and b[k] == 0.0:
            k -= 1
        object.__setattr__(self, "a", a[: k + 1])
        object.__setattr__(self, "b", b[: k + 1])

    @property
    def order(self) -> int:
        return len(self.a) - 1

    def coeff_scale(self) -> float:
        """Largest coefficient magnitude, the natural size of t."""
        return max(max(abs(v) for v in self.a), max(abs(v) for v in self.b))

    def eval(self, phi):
        """Value of t at real or complex phi (arrays welcome); 2pi-periodic."""
        phi = np.asarray(phi)
        out = _eval_rows(*_coeff_stack(self), phi.reshape(1, -1)).reshape(phi.shape)
        if np.isrealobj(phi):
            return out.real if out.shape else float(out.real)
        return out if out.shape else complex(out)

    __call__ = eval

    def derivative(self) -> "TrigPoly":
        da, db = _derivative_rows(*_coeff_stack(self))
        return TrigPoly(da[0], db[0])

    def _complex_coeffs(self):
        return _exp_coeffs(*_coeff_stack(self))[0]

    def __add__(self, other):
        if not isinstance(other, TrigPoly):
            return NotImplemented
        n = max(len(self.a), len(other.a))
        a = np.zeros(n)
        b = np.zeros(n)
        a[: len(self.a)] += self.a
        b[: len(self.b)] += self.b
        a[: len(other.a)] += other.a
        b[: len(other.b)] += other.b
        return TrigPoly(tuple(a), tuple(b))

    def __neg__(self):
        return TrigPoly(tuple(-v for v in self.a), tuple(-v for v in self.b))

    def __sub__(self, other):
        if not isinstance(other, TrigPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return TrigPoly(tuple(other * v for v in self.a), tuple(other * v for v in self.b))
        if not isinstance(other, TrigPoly):
            return NotImplemented
        # convolve exponential coefficients, then fold back to cos/sin form
        ka, kb = self.order, other.order
        ca, cb = self._complex_coeffs(), other._complex_coeffs()
        cc = np.convolve(ca, cb)
        k = ka + kb
        a = [cc[k].real]
        b = [0.0]
        for m in range(1, k + 1):
            a.append((cc[k + m] + cc[k - m]).real)
            b.append((1j * (cc[k + m] - cc[k - m])).real)
        return TrigPoly(tuple(a), tuple(b))

    __rmul__ = __mul__


class RealZeroError(ValueError):
    """t vanishes on the real circle, where the residue sum does not apply.

    ``rows`` lists the offending rows of a stack (row 0 for a single
    polynomial).
    """

    def __init__(self, message, rows):
        super().__init__(message)
        self.rows = rows


def _coeff_stack(p):
    """(a, b) coefficient arrays of shape (n, k + 1) for a TrigPoly (n = 1)
    or for a stack given as an (a, b) pair; b[:, 0] is taken as zero. A row
    of a stack with a non-finite entry is refused."""
    if isinstance(p, TrigPoly):
        return np.array([p.a]), np.array([p.b])
    a, b = (np.asarray(c, dtype=float) for c in p)
    if a.ndim != 2 or a.shape != b.shape or a.shape[1] == 0:
        raise ValueError("a stack of trig polynomials is an (a, b) pair of equal (n, k + 1) arrays")
    bad = np.flatnonzero(~(np.isfinite(a).all(axis=1) & np.isfinite(b).all(axis=1)))
    if bad.size:
        raise ValueError(f"row {bad[0]} of the stack has a non-finite coefficient")
    b = b.copy()
    b[:, 0] = 0.0
    return a, b


def _exp_coeffs(a, b):
    # c[:, m + k] multiplies z^(m+k) in z^k * t(phi), z = exp(i phi)
    k = a.shape[1] - 1
    c = np.zeros((a.shape[0], 2 * k + 1), dtype=complex)
    c[:, k] = a[:, 0]
    c[:, k + 1 :] = 0.5 * (a[:, 1:] - 1j * b[:, 1:])
    c[:, :k][:, ::-1] = 0.5 * (a[:, 1:] + 1j * b[:, 1:])
    return c


def _derivative_rows(a, b):
    """Coefficients (m b_m, -m a_m) of t' for every row t of the stack."""
    m = np.arange(a.shape[1])
    return m * b, -m * a


def _eval_rows(a, b, phi):
    """Row i of the stack at the points phi[i, :] (real or complex)."""
    out = np.zeros(phi.shape, dtype=np.result_type(phi, float)) + a[:, :1]
    for m in range(1, a.shape[1]):
        mphi = m * phi
        out = out + a[:, m : m + 1] * np.cos(mphi) + b[:, m : m + 1] * np.sin(mphi)
    return out


# Companion matrices per eigenvalue call: 2**12 quartics are 1 MB.
_EIG_BLOCK = 1 << 12


def _order_one_zeros(c) -> np.ndarray:
    """Both zeros z of c2 z^2 + c1 z + c0 per row of c = (c0, c1, c2), by the
    cancellation-free quadratic formula: with the sign that adds the two
    terms, q = -(c1 + sgn sqrt(c1^2 - 4 c2 c0)) / 2, then z = q / c2 and
    c0 / q. For a real t, c0 = conj(c2), so c2 c0 = |c2|^2 > 0; q = 0 would
    need c1 = 0 and c1^2 = 4 c2 c0 at once, so neither division fails."""
    c0, c1, c2 = c[:, 0], c[:, 1], c[:, 2]
    disc = np.sqrt(c1 * c1 - 4.0 * c2 * c0)
    sgn = np.where((c1.real * disc.real + c1.imag * disc.imag) < 0.0, -1.0, 1.0)
    q = -0.5 * (c1 + sgn * disc)
    z = np.empty((c.shape[0], 2), dtype=complex)
    np.divide(q, c2, out=z[:, 0])
    np.divide(c0, q, out=z[:, 1])
    return z


def _stacked_roots(a, b) -> np.ndarray:
    """All 2k zeros of every row of a stack of order k >= 1, shape (n, 2k),
    as phi in [0, 2pi) + i tau, each row sorted by real then imaginary part.

    Substituting z = exp(i phi) turns z^k t into an algebraic polynomial of
    degree 2k; its roots map back through phi = -i log z, so |z| < 1
    corresponds to the upper half of the cylinder. A stack of order 1 is a
    stack of quadratics, solved in closed form (_order_one_zeros). Higher
    orders build each row's companion matrix as numpy's polyroots does and
    send all of them to one batched eigenvalue call per block of rows.
    """
    c = _exp_coeffs(a, b)
    n, deg = c.shape[0], c.shape[1] - 1
    lead = c[:, -1:]
    if np.any(lead == 0):
        raise ValueError("every row of a stack needs a nonzero leading harmonic")
    if deg == 2:
        z = _order_one_zeros(c)
    else:
        z = np.empty((n, deg), dtype=complex)
        for i0 in range(0, n, _EIG_BLOCK):
            rows = slice(i0, i0 + _EIG_BLOCK)
            comp = np.zeros((c[rows].shape[0], deg, deg), dtype=complex)
            comp[:, np.arange(1, deg), np.arange(deg - 1)] = 1.0
            comp[:, :, -1] -= c[rows, :-1] / lead[rows]
            z[rows] = np.sort(np.linalg.eigvals(comp), axis=-1)
    phi = np.angle(z) - 1j * np.log(np.abs(z))
    phi = np.where(phi.real < 0, phi + 2 * np.pi, phi)
    order = np.lexsort((phi.imag, phi.real), axis=-1)
    return np.take_along_axis(phi, order, axis=-1)


def roots(t: TrigPoly) -> np.ndarray:
    """All 2k zeros of t on the cylinder, as phi in [0, 2pi) + i tau, sorted
    by real part (then imaginary part) for reproducibility; the one-row case
    of the stacked root finder."""
    if t.order == 0:
        return np.zeros(0, dtype=complex)
    return _stacked_roots(*_coeff_stack(t))[0]


def all_real_simple(t: TrigPoly) -> bool:
    """True when every zero of t lies on the real circle and is simple, by
    the rules pv_inverse_square applies; False where it refuses t."""
    try:
        return not _simple_zeros(t, *_real_root_slopes(t))[1].size
    except ValueError:
        return False


def _real_mask(a, b, rts: np.ndarray) -> np.ndarray:
    """Which of the zeros ``rts`` (n, 2k) of the stack rows count as real,
    by the rule above, each row against its own coefficient sum."""
    resid_tol = _REAL_ROOT_RESIDUAL_ULPS * _EPS * (np.abs(a).sum(axis=1) + np.abs(b).sum(axis=1))
    resid = np.abs(_eval_rows(a, b, rts.real))
    return (np.abs(rts.imag) < _REAL_ROOT_IM_TOL) | (resid <= resid_tol[:, None])


def _real_root_slopes(t: TrigPoly):
    """(real roots, |t'| there, complex roots) of t."""
    rts = roots(t)
    a, b = _coeff_stack(t)
    real_mask = _real_mask(a, b, rts[None, :])[0]
    real = rts.real[real_mask]
    return real, np.abs(_eval_rows(*_derivative_rows(a, b), real[None, :])[0]), rts[~real_mask]


def _regularized_terms(u2, v2):
    # Re 1/(u + i v)^2 written out from u^2 and v^2; even in u, bounded by
    # 1/v^2. Two work arrays, updated in place.
    denom = u2 + v2
    terms = u2 - v2
    denom *= denom
    terms /= denom
    return terms


def _midpoint_values(a, b, n: int):
    # Every row of the stack (a, b), shape (r, k + 1), at the nodes
    # phi_k = (k + 1/2) 2pi/n, k = 0..n-1, in extended precision, yielded as
    # (r, nodes) arrays of consecutive blocks of at most 2**16 nodes so
    # memory stays flat. With B = isqrt(n), node k = i B + j sits at anchor
    # A_i = i B step plus offset O_j = (j + 1/2) step, and each harmonic
    # follows from the addition formula
    #   a cos m(A+O) + b sin m(A+O) = p_i cos mO_j + q_i sin mO_j,
    #   p_i = a cos mA_i + b sin mA_i,  q_i = b cos mA_i - a sin mA_i,
    # so a grid costs about 2 sqrt(n) extended-precision cos/sin per
    # harmonic, shared by all rows, instead of n of each per row.
    step = np.longdouble(2 * np.pi) / n
    width = max(1, math.isqrt(n))
    off = (np.arange(width) + np.longdouble(0.5)) * step
    harmonics = [(m, a[:, m, None], b[:, m, None], np.cos(m * off), np.sin(m * off)) for m in range(1, a.shape[1])]
    n_rows = -(-n // width)
    block = max(1, (1 << 16) // width)
    for i0 in range(0, n_rows, block):
        anchor = np.arange(i0, min(i0 + block, n_rows)) * (width * step)
        tv = np.empty((a.shape[0], anchor.size, width), dtype=np.longdouble)
        tv[...] = a[:, 0, None, None]
        for m, am, bm, cos_off, sin_off in harmonics:
            ca, sa = np.cos(m * anchor), np.sin(m * anchor)
            tv += (am * ca + bm * sa)[..., None] * cos_off + (bm * ca - am * sa)[..., None] * sin_off
        yield tv.reshape(a.shape[0], -1)[:, : n - i0 * width]


def pv_inverse_square(t: TrigPoly) -> float:
    """Finite part of integral_0^{2pi} dphi / t(phi)^2, the limit of
    Re integral_0^{2pi} dphi / (t(phi) + i eps)^2 as eps -> 0.

    Repeated real zeros are rejected with ValueError, before any quadrature,
    because the limit does not exist there (the line integral below would
    return 0 for (1 + cos phi)^2). A zero counts as real when |Im phi| < 1e-8
    or when t vanishes at Re phi to roundoff (64 ulps of sum |a_m| + |b_m|),
    so a repeated zero is refused however the root finder splits it. Once
    every real zero is simple, the limit is the residue sum
    Re 2 pi i sum -t''/t'^3 over the zeros in the upper half cylinder; simple
    real zeros add nothing to it, so it vanishes when every zero is real.
    It is returned as Re of the integral of 1/t^2 along a line Im phi = h
    above the real zeros and below the complex ones (see
    _inverse_square_off_axis), which stays accurate when complex zeros are
    close to one another or repeated. The real and imaginary parts of t on
    the line share one pass over its midpoint grid. A line that needs a grid
    of more than 6 000 000 nodes is refused with ValueError, before any value
    of t on it is made.
    """
    return _inverse_square_off_axis(t, *_simple_zeros(t, *_real_root_slopes(t)))


def _simple_zeros(t: TrigPoly, real, slopes, cplx):
    """(real zeros, complex zeros) of t, given as _real_root_slopes splits
    them, refusing t = 0 and repeated real zeros (|t'| at most 1e-6 of the
    coefficient scale)."""
    scale = t.coeff_scale()
    if scale == 0.0:
        raise ValueError("t is identically zero")
    if real.size and np.any(slopes <= 1e-6 * scale):
        raise ValueError("t has a repeated (or nearly repeated) real zero")
    return real, cplx


def _inverse_square_off_axis(t: TrigPoly, real: np.ndarray, cplx: np.ndarray) -> float:
    # The residue limit, as Re of the integral of 1/t^2 along Im phi = h with
    # h = d / 2, d = min |Im| over the complex zeros, or d = 1 when there are
    # none (h = 0 without real zeros). Moving the real line up to h crosses
    # only poles at simple real zeros, whose residues -t''/t'^3 are real and
    # add nothing to Re 2 pi i sum. The residue sum itself cancels between
    # close complex zeros: it loses every digit on (2 + cos)^2 and 15 % on
    # (2 + cos)(2.001 + cos). Along the line t(phi + ih) = u(phi) + i v(phi),
    # u and v real trig polynomials, so Re 1/t^2 = (u^2 - v^2) / (u^2 + v^2)^2.
    # Its nearest poles sit d - h off the line, and the periodic midpoint
    # rule's error falls like exp(-n (d - h)): 44 / (d - h) + 128 nodes, 216
    # when every zero is real.
    d = float(np.min(np.abs(cplx.imag))) if cplx.size else 1.0
    h = d / 2 if real.size else 0.0
    n = int(44.0 / min(max(d - h, 1e-9), 1.0)) + 128
    if n > _PV_GRID_CAP:
        raise ValueError(f"the limit off the real axis needs a {n}-node grid, above the cap of {_PV_GRID_CAP} nodes")
    a, b = _coeff_stack(t)
    m = np.arange(t.order + 1)
    ch, sh = np.cosh(m * h), np.sinh(m * h)
    # u = (a cosh mh, b cosh mh) and v = (b sinh mh, -a sinh mh) as one
    # two-row stack, so both rows share every anchor's cos and sin
    uv_a = np.concatenate([a * ch, b * sh])
    uv_b = np.concatenate([b * ch, -(a * sh)])
    total = np.longdouble(0.0)
    for uv, vv in _midpoint_values(uv_a, uv_b, n):
        total += np.sum(_regularized_terms(np.square(uv, out=uv), np.square(vv, out=vv)))
    return float(total / n * (2 * np.pi))


def residue_integral(s, t):
    """integral_0^{2pi} s/t dphi for t without real zeros, by residue sum.

    Closing a period rectangle upward picks up the zeros of t in the upper
    half cylinder, Re(2 pi i * sum s(phi_m)/t'(phi_m)). When s and t have
    equal order the top edge of the rectangle no longer decays: s/t tends to
    the ratio of leading harmonic coefficients as Im phi grows, adding the
    constant 2 pi (a_k^s + i b_k^s)/(a_k^t + i b_k^t). An order of s above
    that of t is rejected, as is any real zero of t (RealZeroError, a
    ValueError); a zero counts as real by the rule of pv_inverse_square, so a
    double zero split off the axis by roundoff is refused too.

    ``s`` and ``t`` are TrigPolys, giving a float, or stacks of n
    polynomials as (a, b) coefficient arrays of shape (n, k + 1), giving n
    integrals at once (a TrigPoly s applies to every row of t). The rows of
    a stacked t share the order k and need a nonzero leading harmonic; all
    their roots come from one closed-form solve (order 1) or one batched
    eigenvalue call (higher orders). A stack with a non-finite coefficient is
    refused with ValueError naming its first bad row.
    """
    sa, sb = _coeff_stack(s)
    ta, tb = _coeff_stack(t)
    n, k = ta.shape[0], ta.shape[1] - 1
    if sa.shape[1] - 1 > k:
        raise ValueError("order of s must not exceed the order of t")
    sa, sb = np.broadcast_to(sa, (n, sa.shape[1])), np.broadcast_to(sb, (n, sb.shape[1]))
    if k == 0:
        if np.any(ta[:, 0] == 0.0):
            raise ValueError("t is identically zero")
        total = 2 * np.pi * sa[:, 0] / ta[:, 0]
    else:
        rts = _stacked_roots(ta, tb)
        bad = np.flatnonzero(_real_mask(ta, tb, rts).any(axis=1))
        if bad.size:
            raise RealZeroError("t has a real zero; the residue formula does not apply", bad)
        row, col = np.nonzero(rts.imag > 0)
        upper = rts[row, col][:, None]
        da, db = _derivative_rows(ta[row], tb[row])
        terms = (_eval_rows(sa[row], sb[row], upper) / _eval_rows(da, db, upper))[:, 0]
        total = 2j * np.pi * (np.bincount(row, terms.real, n) + 1j * np.bincount(row, terms.imag, n))
        if sa.shape[1] - 1 == k:
            total = total + 2 * np.pi * (sa[:, k] + 1j * sb[:, k]) / (ta[:, k] + 1j * tb[:, k])
        total = np.real(total)
    return float(total[0]) if isinstance(t, TrigPoly) and isinstance(s, TrigPoly) else total


def distinct_points(x, y) -> bool:
    """Whether the finite plane points x and y are distinct by np.allclose's
    default tolerances: |x_i - y_i| > 1e-8 + 1e-5 |y_i| in some coordinate.
    The nucleus functions refuse every pair where this is False. Plain float
    arithmetic on the four coordinates: the comparison np.allclose makes,
    without its array set-up."""
    (x0, x1), (y0, y1) = x, y
    return abs(x0 - y0) > 1e-8 + 1e-5 * abs(y0) or abs(x1 - y1) > 1e-8 + 1e-5 * abs(y1)


class _Pair(NamedTuple):
    """One point pair as the nucleus functions see it: psi_branch(x, phi) -
    psi_branch(y, phi) = t(c phi), with c = 1, or c = 1/2 for the parabola's
    half-angle branches (see geometry.half_angle_difference), and the zeros
    of t as _real_root_slopes splits them. The arrays are read-only, since
    every caller of the pair shares them."""

    t: TrigPoly
    c: float
    real: np.ndarray
    slopes: np.ndarray
    cplx: np.ndarray


# (key, _Pair) of the last pair analysed, keyed by the geometry and the bytes
# of both points. One entry serves the nucleus functions asked in turn about
# one pair; more would pay only on a sweep that repeats its pairs, where a
# timed sweep would then measure the cache instead of the analysis. Threads
# may race on it harmlessly: an entry is a pure function of its key, and it
# is replaced as one tuple.
_last_pair = None


def _pair(geom, x, y) -> _Pair:
    """The _Pair of x and y, from the one-entry memo or computed. Points
    that are not two finite coordinates each, or not distinct_points, are
    refused with ValueError before any root is sought."""
    global _last_pair
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (2,) or y.shape != (2,):
        raise ValueError("a psi difference expects single points")
    key = (geom, x.tobytes(), y.tobytes())
    memo = _last_pair
    if memo is not None and memo[0] == key:
        return memo[1]
    xy = x.tolist(), y.tolist()
    for name, p in zip("xy", xy):
        if not (math.isfinite(p[0]) and math.isfinite(p[1])):
            raise ValueError(f"{name} = ({p[0]}, {p[1]}) is not a finite point")
    if not distinct_points(*xy):
        raise ValueError("nucleus is only defined for distinct points")
    from .geometry import _pair_difference  # at call time: geometry imports this module

    t, c = _pair_difference(geom, x, y)
    zeros = _real_root_slopes(t)
    for arr in zeros:
        arr.flags.writeable = False
    pair = _Pair(t, c, *zeros)
    _last_pair = key, pair
    return pair


def nucleus_check(geom, x, y) -> float:
    """The nucleus N(x, y) = f.p. integral_0^{2pi} dphi / (psi(x,phi) - psi(y,phi))^2.

    It vanishes for every valid pair x != y; that is the exactness condition
    of the reconstruction formula, and the test suites assert it rather than
    assuming it. The difference is an exact trig polynomial t, or T(phi / 2)
    for the parabola; T^2 has period pi, so the integral of 1/T(phi / 2)^2
    over a period is that of 1/T(u)^2. Either way the limit is
    pv_inverse_square's, refusing repeated real zeros, taken on the zeros of
    the pair's shared record (see _pair).
    """
    p = _pair(geom, x, y)
    return _inverse_square_off_axis(p.t, *_simple_zeros(p.t, p.real, p.slopes, p.cplx))


def nucleus_zeros(geom, x, y) -> str:
    """How the zeros of psi(x, .) - psi(y, .) are classed, as nucleus_check
    classes them: '2 real simple', 'complex pair', '2 real simple, complex
    pair', ... Refuses what nucleus_check refuses."""
    p = _pair(geom, x, y)
    real, cplx = _simple_zeros(p.t, p.real, p.slopes, p.cplx)
    pairs = cplx.size // 2
    parts = [f"{real.size} real simple"] if real.size else []
    if pairs:
        parts.append("complex pair" if pairs == 1 else f"{pairs} complex pairs")
    return ", ".join(parts) or "no zeros"


def kernel_scale(geom, x, y) -> float:
    """Slope scale |t'| at the real zeros of the psi difference t.

    Used to set tolerances for nucleus values: the natural size of the
    regularized integral's fluctuations is the squared slope. For the
    parabola t(phi) = T(phi / 2), so t'(phi) = T'(phi / 2) / 2. Falls back to
    the maximum slope over the circle when t has no real zero.
    """
    p = _pair(geom, x, y)
    if p.real.size:
        return p.c * float(np.max(p.slopes))
    ph = np.linspace(0, 2 * np.pi, 1024, endpoint=False)
    return p.c * float(np.max(np.abs(p.t.derivative().eval(ph))))
