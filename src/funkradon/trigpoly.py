"""Real trigonometric polynomials and the singular circle integrals built on them.

Three ingredients of the reconstruction kernel live here: root location for
t(phi) = sum a_m cos(m phi) + b_m sin(m phi) on the complex cylinder, the
regularized integral of 1/t^2 across real zeros (which vanishes exactly when
all zeros are real and simple), and residue summation for integrals of s/t
when t never vanishes on the real circle.

Root finding and residue sums work on stacks: n polynomials of one order k
given as (a, b) coefficient arrays of shape (n, k + 1). Their companion
matrices go to a single batched eigenvalue call, so the root finder and the
residue sum of a single TrigPoly are the one-row case of the stacked ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._heap import keep_work_arrays_on_the_heap

__all__ = [
    "TrigPoly",
    "roots",
    "all_real_simple",
    "pv_inverse_square",
    "residue_integral",
    "RealZeroError",
    "nucleus_check",
    "nucleus_ladder",
    "kernel_scale",
    "DEFAULT_EPS_STEPS",
]

# Relative regularization levels; multiplied by the coefficient scale of t
# before use so that small and large polynomials extrapolate equally well.
DEFAULT_EPS_STEPS = (1e-2, 5e-3, 2.5e-3, 1.25e-3)

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

# Largest grids of the nucleus integrals: midpoint nodes per level, per
# shared ladder table or per line off the axis for a trig polynomial t,
# samples per level for a sampled difference (parabola).
_PV_GRID_CAP = 6_000_000
_SAMPLED_GRID_CAP = 4_000_000


def _as_coeff_tuple(c):
    arr = np.atleast_1d(np.asarray(c, dtype=float))
    if arr.ndim != 1:
        raise ValueError("coefficient arrays must be one-dimensional")
    return tuple(arr.tolist())


@dataclass(frozen=True)
class TrigPoly:
    """t(phi) = a[0] + sum_{m>=1} a[m] cos(m phi) + b[m] sin(m phi).

    Trailing harmonics with a[m] == b[m] == 0 are trimmed on construction, so
    ``order`` always names the true leading harmonic. b[0] is meaningless and
    pinned to zero.
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
        out = np.zeros(phi.shape, dtype=np.result_type(phi, float)) + self.a[0]
        for m in range(1, len(self.a)):
            mphi = m * phi
            out = out + self.a[m] * np.cos(mphi) + self.b[m] * np.sin(mphi)
        if np.isrealobj(phi):
            return out.real if out.shape else float(out.real)
        return out if out.shape else complex(out)

    __call__ = eval

    def derivative(self) -> "TrigPoly":
        k = self.order
        da = [0.0] + [m * self.b[m] for m in range(1, k + 1)]
        db = [0.0] + [-m * self.a[m] for m in range(1, k + 1)]
        return TrigPoly(tuple(da), tuple(db))

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
    or for a stack given as an (a, b) pair; b[:, 0] is taken as zero."""
    if isinstance(p, TrigPoly):
        return np.array([p.a]), np.array([p.b])
    a, b = (np.asarray(c, dtype=float) for c in p)
    if a.ndim != 2 or a.shape != b.shape or a.shape[1] == 0:
        raise ValueError("a stack of trig polynomials is an (a, b) pair of equal (n, k + 1) arrays")
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


def _eval_rows(a, b, phi):
    """Row i of the stack at the points phi[i, :] (real or complex)."""
    out = np.zeros(phi.shape, dtype=np.result_type(phi, float)) + a[:, :1]
    for m in range(1, a.shape[1]):
        mphi = m * phi
        out = out + a[:, m : m + 1] * np.cos(mphi) + b[:, m : m + 1] * np.sin(mphi)
    return out


# Companion matrices per eigenvalue call: 2**12 quartics are 1 MB.
_EIG_BLOCK = 1 << 12


def _stacked_roots(a, b) -> np.ndarray:
    """All 2k zeros of every row of a stack of order k >= 1, shape (n, 2k),
    as phi in [0, 2pi) + i tau, each row sorted by real then imaginary part.

    Substituting z = exp(i phi) turns z^k t into an algebraic polynomial of
    degree 2k; its roots map back through phi = -i log z, so |z| < 1
    corresponds to the upper half of the cylinder. Each row's companion
    matrix is the one numpy's polyroots builds, and all of them go to
    one batched eigenvalue call per block of rows.
    """
    c = _exp_coeffs(a, b)
    n, deg = c.shape[0], c.shape[1] - 1
    lead = c[:, -1:]
    if np.any(lead == 0):
        raise ValueError("every row of a stack needs a nonzero leading harmonic")
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


def all_real_simple(t: TrigPoly, tol: float = 1e-8) -> bool:
    """True when every zero of t lies on the real circle and is simple.

    A zero counts as real when |Im phi| < tol and as simple when the
    derivative there exceeds tol times the coefficient scale of t.
    """
    if t.order == 0:
        return t.a[0] != 0.0
    rts = roots(t)
    if np.any(np.abs(rts.imag) >= tol):
        return False
    scale = t.coeff_scale()
    slopes = np.abs(t.derivative().eval(rts.real))
    return bool(np.all(slopes > tol * scale))


def _real_mask(a, b, rts: np.ndarray) -> np.ndarray:
    """Which of the zeros ``rts`` (n, 2k) of the stack rows count as real,
    by the rule above, each row against its own coefficient sum."""
    resid_tol = _REAL_ROOT_RESIDUAL_ULPS * _EPS * (np.abs(a).sum(axis=1) + np.abs(b).sum(axis=1))
    resid = np.abs(_eval_rows(a, b, rts.real))
    return (np.abs(rts.imag) < _REAL_ROOT_IM_TOL) | (resid <= resid_tol[:, None])


def _real_root_slopes(t: TrigPoly):
    """(real roots, |t'| there, complex roots) of t."""
    rts = roots(t)
    real_mask = _real_mask(*_coeff_stack(t), rts[None, :])[0]
    real = rts.real[real_mask]
    cplx = rts[~real_mask]
    slopes = np.abs(t.derivative().eval(real)) if real.size else np.zeros(0)
    return real, slopes, cplx


def _regularized_terms(t2, e2):
    # Re 1/(t + i eps)^2 written out from t^2 and eps^2; even in t, bounded
    # by 1/eps^2. Two work arrays, updated in place.
    denom = t2 + e2
    terms = t2 - e2
    denom *= denom
    terms /= denom
    return terms


def _regularized_mean(tvals: np.ndarray, eps: float) -> float:
    # Mean of the terms over sampled t. Accumulated in extended precision:
    # the peaks reach 1/eps^2 while the mean is smaller by orders of the
    # relative level, and the digits lost to that cancellation would cap how
    # well the ladder extrapolates.
    t2 = np.square(tvals.astype(np.longdouble))
    return float(np.mean(_regularized_terms(t2, np.longdouble(eps) ** 2)) * 2 * np.pi)


def _midpoint_values(t: TrigPoly, n: int):
    # t at phi_k = (k + 1/2) 2pi/n, k = 0..n-1, in extended precision, yielded
    # in consecutive blocks of at most 2**16 nodes so memory stays flat. With
    # B = isqrt(n), node k = i B + j sits at anchor A_i = i B step plus offset
    # O_j = (j + 1/2) step, and each harmonic follows from the addition formula
    #   a cos m(A+O) + b sin m(A+O) = p_i cos mO_j + q_i sin mO_j,
    #   p_i = a cos mA_i + b sin mA_i,  q_i = b cos mA_i - a sin mA_i,
    # so a level costs about 2 sqrt(n) extended-precision cos/sin per
    # harmonic instead of n of each.
    step = np.longdouble(2 * np.pi) / n
    width = max(1, math.isqrt(n))
    off = (np.arange(width) + np.longdouble(0.5)) * step
    harmonics = [(m, t.a[m], t.b[m], np.cos(m * off), np.sin(m * off)) for m in range(1, len(t.a))]
    n_rows = -(-n // width)
    block = max(1, (1 << 16) // width)
    for i0 in range(0, n_rows, block):
        anchor = np.arange(i0, min(i0 + block, n_rows)) * (width * step)
        tv = np.full((anchor.size, width), np.longdouble(t.a[0]))
        for m, a, b, cos_off, sin_off in harmonics:
            ca, sa = np.cos(m * anchor), np.sin(m * anchor)
            tv += np.outer(a * ca + b * sa, cos_off) + np.outer(b * ca - a * sa, sin_off)
        yield tv.ravel()[: n - i0 * width]


def _regularized_levels(t: TrigPoly, sizes, eps) -> np.ndarray:
    # The same mean at every level of a ladder, from one table of t^2 on an
    # N-node midpoint grid. Level i sums every s_i-th node, s_i the power of
    # two nearest to max(sizes) / sizes[i], and N the smallest multiple of
    # the largest s_i with N / s_i >= sizes[i] for every i: level i runs on a
    # uniform grid of N / s_i nodes, shifted off the midpoints, which is as
    # accurate for a periodic integrand. A ladder whose eps halve nests
    # exactly, so t is evaluated on about max(sizes) nodes instead of
    # sum(sizes), and the terms on about sum(sizes). Everything runs in
    # extended precision, including t itself: near a peak the term
    # sensitivity to t grows like 1/eps^3, so double-precision node values
    # alone would put a noise floor well above the extrapolated limit.
    # Returns the levels in extended precision.
    top = max(sizes)
    strides = np.array([1 << round(math.log2(top / n)) for n in sizes])
    s_max = int(strides.max())
    n_grid = -(-int(np.max(strides * np.asarray(sizes))) // s_max) * s_max
    if n_grid > _PV_GRID_CAP:
        raise ValueError(f"the ladder's shared grid needs {n_grid} nodes, above the cap of {_PV_GRID_CAP} nodes")
    keep_work_arrays_on_the_heap()
    e2 = [np.longdouble(e) ** 2 for e in eps]
    totals = np.zeros(len(sizes), dtype=np.longdouble)
    start = 0
    for tv in _midpoint_values(t, n_grid):
        t2 = np.square(tv, out=tv)  # in place: one block fewer alive at a time
        for i, s in enumerate(strides):
            totals[i] += np.sum(_regularized_terms(t2[-start % s :: s], e2[i]))
        start += tv.size
    return totals / (n_grid // strides) * (2 * np.pi)


def _extrapolate_to_zero(eps: np.ndarray, vals: np.ndarray) -> float:
    deg = min(3, len(eps) - 1)
    # Fit against eps/eps[0]: the constant term is unchanged and the
    # Vandermonde stays conditioned even when a tiny difference amplitude
    # puts the whole ladder at 1e-5 scales.
    V = np.vander(eps / eps[0], deg + 1, increasing=True)
    coef, *_ = np.linalg.lstsq(V, vals, rcond=None)
    return float(coef[0])


def _check_grid_sizes(eps, sizes, cap):
    # A level on a grid coarser than its peaks need would be under-resolved
    # with no sign of it, so refuse the ladder before any level runs.
    for e, n in zip(eps, sizes):
        if n > cap:
            raise ValueError(f"level eps = {e:.3g} needs a {n}-node grid, above the cap of {cap} nodes")


def _check_eps_sequence(eps_sequence):
    eps = np.asarray(tuple(eps_sequence), dtype=float)
    if eps.size < 2:
        raise ValueError("need at least two regularization levels")
    if np.any(eps <= 0) or np.any(np.diff(eps) >= 0):
        raise ValueError("eps_sequence must be positive and strictly decreasing")
    return eps


def pv_inverse_square(t: TrigPoly, eps_sequence=None) -> float:
    """Limit of Re integral_0^{2pi} dphi / (t(phi) + i eps)^2 as eps -> 0.

    Repeated real zeros are rejected with ValueError, before any quadrature,
    because the limit does not exist there. A zero counts as real when
    |Im phi| < 1e-8 or when t vanishes at Re phi to roundoff (64 ulps of
    sum |a_m| + |b_m|), so a repeated zero is refused however the root finder
    splits it. Once every real zero is simple, the limit is the residue sum
    Re 2 pi i sum -t''/t'^3 over the zeros in the upper half cylinder; simple
    real zeros add nothing to it. When t has a complex pair (or is a nonzero
    constant) that limit is returned, taken as the integral of 1/t^2 along a
    line Im phi = h between the real zeros and the complex ones (see
    _inverse_square_off_axis), which keeps it accurate when complex zeros
    are close to one another or repeated.

    When every zero is real and simple the limit is zero, and the regularized
    integral is checked numerically instead: on a ladder of eps levels, each
    on a uniform periodic rule sized from the distance of its poles to the
    real axis, extrapolated polynomially to eps = 0. All levels sum strided
    subsets of one extended-precision table of t^2.

    ``eps_sequence`` entries are absolute; when omitted, a default geometric
    ladder scaled by the coefficient size of t is used, capped by the local
    slopes at the real zeros. A given ``eps_sequence`` is validated but not
    used when t has a complex pair. A grid of more than 6 000 000 nodes is
    refused with ValueError, before any value of t on it is made.
    """
    return _pv_levels(t, eps_sequence)[2]


def _inverse_square_off_axis(t: TrigPoly, real: np.ndarray, cplx: np.ndarray) -> float:
    # The residue limit, as Re of the integral of 1/t^2 along Im phi = h with
    # h = d / 2, d = min |Im| over the complex zeros (h = 0 without real
    # zeros). Moving the real line up to h crosses only poles at simple real
    # zeros, whose residues -t''/t'^3 are real and add nothing to Re 2 pi i
    # sum. The residue sum itself cancels between close complex zeros: it
    # loses every digit on (2 + cos)^2 and 15 % on (2 + cos)(2.001 + cos).
    # Along the line t(phi + ih) = u(phi) + i v(phi), u and v real trig
    # polynomials, so Re 1/t^2 = (u^2 - v^2) / (u^2 + v^2)^2 is the
    # regularized term with eps^2 = v^2. Its nearest poles sit d / 2 (or d)
    # off the line, so the midpoint rule is sized like a ladder level.
    d = float(np.min(np.abs(cplx.imag))) if cplx.size else 1.0
    h = d / 2 if real.size else 0.0
    n = int(44.0 / min(max(d - h, 1e-9), 1.0)) + 128
    if n > _PV_GRID_CAP:
        raise ValueError(f"the limit off the real axis needs a {n}-node grid, above the cap of {_PV_GRID_CAP} nodes")
    m = np.arange(t.order + 1)
    ch, sh = np.cosh(m * h), np.sinh(m * h)
    u = TrigPoly(tuple(np.multiply(t.a, ch)), tuple(np.multiply(t.b, ch)))
    v = TrigPoly(tuple(np.multiply(t.b, sh)), tuple(-np.multiply(t.a, sh)))
    keep_work_arrays_on_the_heap()
    total = np.longdouble(0.0)
    for uv, vv in zip(_midpoint_values(u, n), _midpoint_values(v, n)):
        total += np.sum(_regularized_terms(np.square(uv, out=uv), np.square(vv, out=vv)))
    return float(total / n * (2 * np.pi))


def _pv_levels(t: TrigPoly, eps_sequence):
    """(eps, level values, limit) of the regularized integral of 1/t^2.

    Refuses repeated real zeros. With a complex pair (or a constant t) the
    limit is the residue limit (see _inverse_square_off_axis) and no ladder
    runs: eps and the level values come back empty, and a given
    eps_sequence is validated but not used. Otherwise every zero is real
    and simple, and the levels of the eps ladder, extrapolated to eps = 0,
    check that the limit vanishes. Level i runs on at least 44 / d_i + 128 nodes, d_i the
    distance of its closest pole to the real axis; all levels share one
    t^2 table (see _regularized_levels).
    """
    scale = t.coeff_scale()
    if scale == 0.0:
        raise ValueError("t is identically zero")
    real, slopes, cplx = _real_root_slopes(t)
    if real.size and np.any(slopes <= 1e-6 * scale):
        raise ValueError("t has a repeated (or nearly repeated) real zero")
    if eps_sequence is not None:
        eps = _check_eps_sequence(eps_sequence)
    if cplx.size or t.order == 0:
        return np.zeros(0), np.zeros(0), _inverse_square_off_axis(t, real, cplx)
    if eps_sequence is None:
        # The extrapolation expands in eps * |t''| / t'^2 around each real
        # zero; keep the largest level well inside that regime so nearly
        # repeated zeros (small local slope) still extrapolate cleanly.
        curv = np.abs(t.derivative().derivative().eval(real))
        local = slopes * slopes / np.maximum(curv, 1e-30)
        base = max(min(scale, 0.2 * float(np.min(local))), 1e-7 * scale)
        eps = np.asarray(DEFAULT_EPS_STEPS) * base

    # a level's closest poles sit eps / |t'| off the axis, at the steepest zero
    sizes = [int(44.0 / d) + 128 for d in np.clip(eps / np.max(slopes), 1e-9, 1.0)]
    _check_grid_sizes(eps, sizes, _PV_GRID_CAP)
    vals = _regularized_levels(t, sizes, eps).astype(float)
    return eps, vals, _extrapolate_to_zero(eps, vals)


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
    their roots come from one batched eigenvalue call.
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
        da = np.arange(k + 1) * tb[row]
        db = -np.arange(k + 1) * ta[row]
        terms = (_eval_rows(sa[row], sb[row], upper) / _eval_rows(da, db, upper))[:, 0]
        total = 2j * np.pi * (np.bincount(row, terms.real, n) + 1j * np.bincount(row, terms.imag, n))
        if sa.shape[1] - 1 == k:
            total = total + 2 * np.pi * (sa[:, k] + 1j * sb[:, k]) / (ta[:, k] + 1j * tb[:, k])
        total = np.real(total)
    return float(total[0]) if isinstance(t, TrigPoly) and isinstance(s, TrigPoly) else total


def nucleus_ladder(geom, x, y, eps_sequence=None):
    """Regularized angular integrals of 1/(psi(x,.) - psi(y,.))^2 across a
    ladder of eps levels, plus their extrapolation to eps = 0.

    Returns (eps, level_values, extrapolated). Reports want the raw levels;
    everything else goes through nucleus_check, which keeps only the limit.
    A closed-form difference with a complex pair gets the residue limit (see
    pv_inverse_square); no ladder runs, eps and level_values are empty, and
    a given eps_sequence is validated but not used.
    Ladders whose grids exceed the caps (6 000 000 nodes for the closed-form
    difference, 4 000 000 samples otherwise) raise ValueError.
    """
    from .geometry import psi_branch, trig_difference

    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.allclose(x, y):
        raise ValueError("nucleus is only defined for distinct points")
    tp = trig_difference(geom, x, y)
    if tp is not None:
        return _pv_levels(tp, eps_sequence)

    def sampler(n):
        ph = (np.arange(n) + 0.5) * (2 * np.pi / n)
        return psi_branch(geom, x, ph) - psi_branch(geom, y, ph)

    # one coarse probe sets both the eps scale and the grid sizes
    probe = sampler(4096)
    scale = float(np.max(np.abs(probe)))
    if scale == 0.0:
        raise ValueError("sampled difference is identically zero")
    if eps_sequence is None:
        eps = np.asarray(DEFAULT_EPS_STEPS) * scale
    else:
        eps = _check_eps_sequence(eps_sequence)
    slope = float(np.max(np.abs(np.diff(probe)))) / (2 * np.pi / 4096)
    sizes = [int(44.0 * max(slope, 1e-12) / e) + 256 for e in eps]
    _check_grid_sizes(eps, sizes, _SAMPLED_GRID_CAP)
    keep_work_arrays_on_the_heap()
    vals = np.array([_regularized_mean(sampler(n), e) for n, e in zip(sizes, eps)])
    return eps, vals, _extrapolate_to_zero(eps, vals)


def nucleus_check(geom, x, y, eps_sequence=None) -> float:
    """Regularized angular integral of 1/(psi(x,.) - psi(y,.))^2, extrapolated.

    Dispatches to the exact trig-polynomial path when the family provides the
    difference in closed form; otherwise (parabola) integrates the sampled
    difference of the smooth branch directly. The result should vanish for
    every valid pair x != y; that is the exactness condition of the
    reconstruction formula, and the test suites assert it rather than
    assuming it.
    """
    return nucleus_ladder(geom, x, y, eps_sequence)[2]


def kernel_scale(geom, x, y) -> float:
    """Slope scale |t'| at the real zeros of the psi difference.

    Used to set tolerances for nucleus values: the natural size of the
    regularized integral's fluctuations is the squared slope. Falls back to
    the maximum slope over the circle when roots are unavailable.
    """
    from .geometry import psi_branch, trig_difference

    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    tp = trig_difference(geom, x, y)
    if tp is not None:
        real, slopes, _ = _real_root_slopes(tp)
        if real.size:
            return float(np.max(slopes))
        ph = np.linspace(0, 2 * np.pi, 1024, endpoint=False)
        return float(np.max(np.abs(tp.derivative().eval(ph))))
    n = 8192
    ph = (np.arange(n) + 0.5) * (2 * np.pi / n)
    d = psi_branch(geom, x, ph) - psi_branch(geom, y, ph)
    return float(np.max(np.abs(np.diff(d)))) / (2 * np.pi / n)
