"""Eight plane curve families and their generating functions.

Each family is the level-curve system of a generating function psi(x, phi):
the data curve at parameters (lambda, phi) is {x : lambda_of(x, phi) = lambda}.
This module owns the formulas: psi itself, the admissible lambda interval
over a support disc, the m(x) * mu(lambda) split of the gradient magnitude
|grad psi| in the family metric, the pointwise normalizer D(x) used by the
reconstruction, the exact trigonometric polynomial psi(x, .) - psi(y, .)
(in phi / 2 on the parabola), and the closed-form arcs the forward
transform integrates along.

Everything one family knows lives in one record (a _Family instance built by
its own factory function below), registered under its tag; the public
functions dispatch into it, and other modules ask ``geom.record`` for traits.

Each record writes the curve parameter lambda0 = lambda_of once, as
harmonics in phi of fixed points (Harmonics): a(x) + b(x) cos phi +
c(x) sin phi + k(phi), with k(phi) = e1^2 cos^2 phi + e2^2 sin^2 phi on the
ellipse and 0 elsewhere, or the square root of that form on the parabola.
psi and lambda_of are derived from it, and so are the pair differences
psi(x, .) - psi(y, .) and the parabola's signed branch psi_branch, from the
harmonics of the two points; backprojection forms the harmonics of its
pixels once for every phi row. |grad psi| is m(|x|^2) * mu(lambda0), save
on the hyperbola, which has no split, and the ellipse (see _ellipse).

Families
--------
radon        straight lines, psi = -<x, e(phi)>
funk         great circles of the sphere in the gnomonic (hemisphere) chart,
             where they appear as straight lines; points are chart coordinates
hgeodesic    geodesics of the Poincare disc (circles meeting the unit circle
             at right angles)
equidistant  curves at constant distance from a Poincare geodesic
ellipse      circles centered on a fixed ellipse e(phi) = (e1 cos, e2 sin)
hyperbola    confocal hyperbola branches with focus at the origin,
             eccentricity eps > 1
parabola     confocal parabolas with focus at the origin
cormack      polar curves r^k cos(k theta - phi) = lambda, k a positive
             integer; fields must be invariant under rotation by 2 pi / k
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .trigpoly import RealZeroError, TrigPoly, residue_integral

__all__ = [
    "GeometryFamily",
    "GeometryDomainError",
    "FactorizationUnavailableError",
    "TAGS",
    "parse_geometry",
    "descriptor",
    "psi",
    "psi_branch",
    "grad_norm",
    "lambda_of",
    "lambda_harmonics",
    "Harmonics",
    "lambda_sign",
    "lambda_range",
    "dcoef_closed",
    "weight_m",
    "weight_mu",
    "trig_difference",
    "half_angle_difference",
    "arcs",
    "ray_start_gain",
    "domain_radius_cap",
]

TAU = 2.0 * np.pi

# fraction of a zero-lambda threshold relative to the axis scale
_LAM_TINY = 1e-12
# rays that emanate from the origin start a hair away from it, since the
# punctured families reject the origin itself
_RAY_START = 1e-9


class GeometryDomainError(ValueError):
    """A point lies outside the mathematical domain of the family."""


class FactorizationUnavailableError(ValueError):
    """The gradient of this family does not split as m(x) * mu(lambda)."""


@dataclass(frozen=True)
class GeometryFamily:
    tag: str
    support_radius: float = 1.0
    e1: float | None = None
    e2: float | None = None
    eps: float | None = None
    k: int | None = None

    def __post_init__(self):
        record = _record(self.tag)
        if not (0 < self.support_radius < np.inf):
            raise ValueError("support_radius must be positive and finite")
        own = {p.name for p in record.params}
        foreign = sorted(name for name in _PARAM_NAMES - own if getattr(self, name) is not None)
        if foreign:
            raise ValueError(f"parameter(s) {foreign} not valid for family {self.tag!r}")
        for p in record.params:
            value = getattr(self, p.name)
            if value is None or not p.valid(value):
                raise ValueError(f"{self.tag} needs {p.need}")
            if not np.isfinite(value):
                raise ValueError(f"{self.tag} parameter {p.name} must be finite")
            if p.cast is not None:
                object.__setattr__(self, p.name, p.cast(value))
        if record.open_disc and not (self.support_radius < 1):
            raise ValueError(f"{self.tag} lives on the open unit disc; support_radius must be < 1")
        # a double support radius, so that an overflow reads inf (cormack's support^k)
        with np.errstate(over="ignore"):
            lo, hi = record.lambda_range(self, np.float64(self.support_radius))
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError(f"{descriptor(self)}: the lambda range over the support disc overflows, [{lo}, {hi}]")

    @property
    def record(self) -> "_Family":
        """The family record: formulas, arcs and traits of this tag."""
        return _FAMILIES[self.tag]

    @property
    def kernel_condition_ok(self) -> bool:
        """Whether every pair in the support disc keeps the kernel exact.

        Only the ellipse family has a nontrivial condition: the difference
        polynomial keeps simple real zeros for all pairs in the disc exactly
        when support_radius < min(e1, e2). Construction does not enforce it
        so that diagnostic tooling can demonstrate the failure mode.
        """
        return self.record.kernel_condition_ok(self)


def _record(tag: str) -> "_Family":
    try:
        return _FAMILIES[tag]
    except KeyError:
        raise ValueError(f"unknown curve family tag {tag!r}") from None


def _fmt(v) -> str:
    f = float(v)
    return str(int(f)) if f == int(f) else repr(f)


def descriptor(geom: GeometryFamily) -> str:
    """Canonical string form, e.g. ``ellipse:e1=1.2,e2=0.8,support=0.7``."""
    parts = [f"{p.name}={_fmt(getattr(geom, p.name))}" for p in geom.record.params]
    parts.append(f"support={_fmt(geom.support_radius)}")
    return geom.tag + ":" + ",".join(parts)


def parse_geometry(text: str) -> GeometryFamily:
    """Parse a descriptor string (case-sensitive, order-insensitive params,
    each given at most once).

    Values are passed on as floats, so validation (an integer k, say) is the
    constructor's alone.
    """
    text = text.strip()
    tag, _, rest = text.partition(":")
    record = _record(tag)
    kv = {}
    if rest:
        for item in rest.split(","):
            key, sep, val = item.partition("=")
            if not sep:
                raise ValueError(f"malformed parameter {item!r} in {text!r}")
            key = key.strip()
            if key in kv:
                raise ValueError(f"repeated parameter {key!r} in {text!r}")
            try:
                kv[key] = float(val)
            except ValueError:
                raise ValueError(f"non-numeric value for {key!r} in {text!r}") from None
    support = kv.pop("support", 1.0)
    extra = set(kv) - {p.name for p in record.params}
    if extra:
        raise ValueError(f"parameter(s) {sorted(extra)} not valid for family {tag!r}")
    return GeometryFamily(tag, support_radius=support, **kv)


def _split(x):
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != 2:
        raise ValueError("points must have a trailing axis of length 2")
    return x[..., 0], x[..., 1]


def _domain_split(geom: GeometryFamily, x):
    """Coordinates of x, refused outside the family's domain; |x|^2 is
    formed only for the families whose domain is restricted."""
    x1, x2 = _split(x)
    rec = geom.record
    if rec.open_disc or rec.punctured:
        r2 = x1 * x1 + x2 * x2
        if rec.open_disc and np.any(r2 >= 1.0):
            raise GeometryDomainError(f"{geom.tag} requires |x| < 1")
        if rec.punctured and np.any(r2 == 0.0):
            raise GeometryDomainError(f"{geom.tag} is undefined at the origin")
    return x1, x2


def domain_radius_cap(geom: GeometryFamily) -> float:
    """Largest radius the family's domain admits (inf when unbounded)."""
    return 1.0 if geom.record.open_disc else np.inf


@dataclass(frozen=True, eq=False)
class Harmonics:
    """lambda0(x, phi) of fixed points x as a function of phi alone:

        a + b cos phi + c sin phi + k1 cos^2 phi + k2 sin^2 phi,

    or the square root of that form, clipped at 0, where root is set (the
    parabola). b, c and a are per-point arrays, a None where it vanishes;
    k = (k1, k2) is nonzero on the ellipse only. Built once per set of
    points, it costs a few array passes per angle, with no domain check.
    """

    b: np.ndarray
    c: np.ndarray
    a: np.ndarray | None = None
    k: tuple[float, float] = (0.0, 0.0)
    root: bool = False

    def __post_init__(self):
        # the families pass coordinate views; contiguous copies make every
        # later pass over the points about twice as fast
        for name in ("b", "c", "a"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float, order="C"))

    @property
    def odd(self) -> bool:
        """lambda0(x, phi + pi) = -lambda0(x, phi): b and c alone, for all
        points of a family or none, so half a turn of data determines all."""
        return self.a is None and self.k == (0.0, 0.0) and not self.root

    def __call__(self, phi):
        """lambda0 at the angles phi, broadcast against the points."""
        cphi, sphi = np.cos(phi), np.sin(phi)
        # b cos phi has the full broadcast shape, so the sums go in place;
        # the order (b cos + a) + c sin keeps the parabola's sqrt argument
        # as r + x1 cos + x2 sin was formed
        lam0 = self.b * cphi
        if self.a is not None:
            lam0 += self.a
        lam0 += self.c * sphi
        k1, k2 = self.k
        if k1 or k2:
            lam0 += k1 * cphi * cphi + k2 * sphi * sphi
        if self.root:
            lam0 = np.sqrt(np.maximum(lam0, 0.0))
        return lam0


def lambda_harmonics(geom: GeometryFamily, x=None) -> Harmonics:
    """lambda0 of the points x at any angle, as Harmonics: lambda_of(geom, x,
    phi) is lambda_harmonics(geom, x)(phi), with x checked against the domain
    once for every angle. With no x, the family's form (odd, root) alone."""
    x1, x2 = np.empty((2, 0)) if x is None else _domain_split(geom, x)
    return geom.record.harmonics(geom, x1, x2)


def psi(geom: GeometryFamily, x, phi):
    """Generating function psi(x, phi); broadcasts over points and angles."""
    return geom.record.lambda_sign * lambda_harmonics(geom, x)(phi)


def psi_branch(geom: GeometryFamily, x, phi):
    """Smooth representative of psi, whose differences enter the pair kernel.

    psi itself except on root harmonics (the parabola), where
    lambda0 = sqrt(2 a) |cos((phi - theta) / 2)| with a = |(b, c)| and
    theta = atan2(c, b): there the signed half-angle branch
    lambda_sign * sqrt(2 a) cos((phi - theta) / 2) is returned instead of its
    absolute-value folding. The two differ only by sign on half the circle,
    and the squared difference that enters the kernel is what must be
    2pi-periodic, which it is. half_angle_difference gives the difference of
    two such branches in closed form.
    """
    h = lambda_harmonics(geom, x)
    s = geom.record.lambda_sign
    if h.root:
        return s * np.sqrt(2.0 * h.a) * np.cos(0.5 * (np.asarray(phi, dtype=float) - np.arctan2(h.c, h.b)))
    return s * h(phi)


def grad_norm(geom: GeometryFamily, x, phi):
    """|grad psi(x, phi)| in the family metric (spherical for funk,
    Euclidean otherwise), m(|x|^2) mu(lambda0(x, phi)) where it splits;
    strictly positive on the domain."""
    x1, x2 = _domain_split(geom, x)
    phi = np.asarray(phi, dtype=float)
    rec = geom.record
    if rec.grad_norm is not None:
        val = rec.grad_norm(geom, x1, x2, np.cos(phi), np.sin(phi))
    else:
        val = rec.weight_m(geom, x1 * x1 + x2 * x2) * rec.weight_mu(geom, rec.harmonics(geom, x1, x2)(phi))
    if not np.all(val > 0.0):
        raise GeometryDomainError(f"{geom.tag} gradient is not strictly positive at the given point")
    return val if val.shape else float(val)


def lambda_sign(geom: GeometryFamily) -> float:
    """Sign s with lambda_of = s * psi (curves are level sets of lambda_of)."""
    return geom.record.lambda_sign


def lambda_of(geom: GeometryFamily, x, phi):
    """Curve parameter of the family member through x at angle phi."""
    return lambda_harmonics(geom, x)(phi)


def lambda_range(geom: GeometryFamily):
    """Interval of lambda values for curves meeting the family's support
    disc, intersected with its admissible parameter set."""
    return geom.record.lambda_range(geom, geom.support_radius)


def dcoef_closed(geom: GeometryFamily, x):
    """Normalizer D(x), the angular mean of 1/|grad psi|^2, in closed form.

    Every family admits one. For an ellipse with unequal half-axes the mean
    is evaluated exactly by the residue formula applied to the order-two
    polynomial |x - e(phi)|^2, which vanishes only where x lies on the
    ellipse of centers e(phi); all points go to one stacked residue sum, and
    a point on that ellipse raises GeometryDomainError. The circular case
    reduces to 1/(4 (R^2 - |x|^2)).
    """
    x1, x2 = _domain_split(geom, x)
    out = geom.record.dcoef(geom, x1, x2, x1 * x1 + x2 * x2)
    return out if np.ndim(out) else float(out)


def weight_m(geom: GeometryFamily, x):
    """Spatial factor of |grad psi| = m(x) mu(lambda)."""
    x1, x2 = _domain_split(geom, x)
    out = geom.record.weight_m(geom, x1 * x1 + x2 * x2)
    return out if np.ndim(out) else float(out)


def weight_mu(geom: GeometryFamily, lam):
    """Curve-parameter factor of |grad psi| = m(x) mu(lambda)."""
    out = geom.record.weight_mu(geom, np.asarray(lam, dtype=float))
    return out if out.shape else float(out)


def trig_difference(geom: GeometryFamily, x, y):
    """psi(x, .) - psi(y, .) as an exact TrigPoly, or None for the parabola.

    One view of _pair_difference's pass over the two points' harmonics, the
    other being half_angle_difference: the k terms are the same at every
    point and cancel, so every family but the parabola, whose root harmonics
    give half-angle square roots, yields a polynomial of order one in phi
    (the cormack harmonics sit in the spatial power, not the angle), with a
    constant term where lambda0 has one (ellipse and hyperbola).
    """
    t, c = _pair_difference(geom, x, y)
    return t if c == 1.0 else None


def half_angle_difference(geom: GeometryFamily, x, y):
    """T with psi_branch(x, phi) - psi_branch(y, phi) = T(phi / 2), an exact
    TrigPoly of order one, for the parabola, else None (a view, as above).

    The branch lambda_sign * sqrt(2 a) cos(phi / 2 - theta / 2) of psi_branch
    is the harmonic p cos u + q sin u at u = phi / 2 with
    p + i q = lambda_sign * sqrt(2 a) exp(i theta / 2); T is the difference of
    the two points' harmonics.
    """
    t, c = _pair_difference(geom, x, y)
    return t if c == 0.5 else None


def _pair_difference(geom: GeometryFamily, x, y):
    """(T, c) with psi_branch(x, phi) - psi_branch(y, phi) = T(c phi) for a
    distinct pair, c = 1, or 1/2 on root harmonics: one pass over the
    harmonics of the stacked pair."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (2,) or y.shape != (2,):
        raise ValueError("a psi difference expects single points")
    h = lambda_harmonics(geom, np.stack([x, y]))
    if np.all(x == y):
        raise ValueError("points must be distinct")
    s = geom.record.lambda_sign
    if h.root:
        w = s * np.sqrt(2.0 * h.a) * np.exp(0.5j * np.arctan2(h.c, h.b))
        return _harmonic((w.real[0] - w.real[1], w.imag[0] - w.imag[1])), 0.5
    const = 0.0 if h.a is None else s * (h.a[0] - h.a[1])
    return _harmonic((s * (h.b[0] - h.b[1]), s * (h.c[0] - h.c[1])), const), 1.0


def _lam_eps(lam):
    return _LAM_TINY * (1.0 + float(np.max(np.abs(lam))))


def arcs(geom: GeometryFamily, lam, phi: float, R: float):
    """All arcs of the curves {lambda_of = lam[i]} inside the origin disc of
    radius R, each weighted by ds / |grad psi| (see _Arc): the arcs of the
    column's table with their turns advanced by the column's turn."""
    lam = np.asarray(lam, dtype=float)
    table, turn = geom.record.column(geom, phi)
    table_arcs = geom.record.arcs(geom, lam, _lam_eps(lam), table, R)
    return [replace(arc, turns=tuple(t + turn for t in arc.turns)) for arc in table_arcs]


def ray_start_gain(geom: GeometryFamily, lam, R: float):
    """Per lambda row, the change of mphi data per unit f(0) when the rays
    from the origin start ten times closer to it.

    Zero except where the family's ray integral diverges at the origin
    (cormack k >= 2, weight r^(1-k) / k), and there on the lambda = 0 rows,
    whose rays start at _RAY_START * R: a phantom with f(0) != 0 has a row
    value set by where the rays start. An axis that spans lambda = 0 with no
    node there samples that divergence through its two rows next to it,
    whose curves come no closer to the origin than the family's record says
    (|lambda|^(1/k) on cormack): those two rows take the gain of rays
    starting there.
    """
    lam = np.asarray(lam, dtype=float)
    zero = np.abs(lam) <= _lam_eps(lam)
    rows = zero.copy()
    if not zero.any() and lam[0] < 0.0 < lam[-1]:
        i = int(np.searchsorted(lam, 0.0))
        rows[i - 1 : i + 1] = True
    gain = geom.record.ray_start_gain(geom, np.where(zero, 0.0, lam), _RAY_START * R)
    return np.where(rows, gain, 0.0)


# ---------------------------------------------------------------------------
# arc geometry
#
# A curve restricted to the working disc of radius R splits into arcs. Each
# arc is described by a half-width array W (one entry per lambda node; zero
# marks rows the arc misses), a map from arc parameter beta in [-W, W] to
# points and integrand weights. The weight is the family's closed form of
# ds/dbeta / |grad psi| along its own arc, with any multiple covering of the
# arc folded in. The map receives the active row indices so it can pick its
# per-row data.
#
# The parameter is one in which the points and the weight are smooth and
# bounded at every lambda, so the trapezoid rule needs no node stretching:
# the angle from the nearest point on circles, the chord on lines, and on
# the conics (frame e = e(0), e_perp of their phi = 0 table, see
# _Family.column; L = |lambda|, s = sign lambda)
#   parabola   P = (lambda^2/2 - rho^2) e + sqrt(2) lambda rho e_perp,
#              |P| = lambda^2/2 + rho^2, weight 2 sqrt(2) |P| per d rho;
#   hyperbola  P = L (eps s + cosh t) / a^2 e + L sinh t / a e_perp with
#              a = sqrt(eps^2 - 1), |P| = L (s + eps cosh t) / a^2, weight
#              |P| / a per dt;
#   cormack    r^k = L cosh kt at polar angle th0 + gd(kt) / k, where
#              gd(x) = atan(sinh x), weight r^(2-k) / k per dt.
# Only the lambda = 0 rays out of the origin keep an integrand that does not
# vanish at one end; they alone are stretched.
#
# Copies of an arc turned about the origin by the angles in turns belong to
# the same row (cormack's k sheets, a family's several rays, and every arc
# of a column turned off its table). The map gives the table's unturned
# points; the weight, a function of |P| wherever an arc is turned, is the
# same on every copy. The forward transform evaluates the phantom turned the
# other way on those points rather than turning them; _Arc.turned draws the
# copies for trace_curve.


@dataclass
class _Arc:
    """One arc of the curves of a column, per the notes above: its
    half-widths W by row, its map, whether its nodes are stretched (rays
    only), and the turns that place its copies in the same rows."""

    W: np.ndarray
    mapto: Callable  # (B, act) -> (P, weight), P of shape B.shape + (2,), weight broadcasting to B
    stretch: bool = False  # cluster quadrature nodes toward the ends; the rays only
    turns: tuple = (0.0,)  # the copies of the arc in a row, turned by these angles

    def turned(self, P):
        """The points P of the arc's map turned by each of the arc's turns."""
        for t in self.turns:
            yield P if t == 0.0 else _frame(P[..., 0], P[..., 1], np.cos(t), np.sin(t))


def _frame(a, b, c, s):
    """Points a e + b e_perp in the frame e = (c, s), e_perp = (-s, c)."""
    return np.stack([a * c - b * s, a * s + b * c], axis=-1)


def _circle_halfwidth(gap, d, rc, R):
    """Angular half-width of the part of a circle (center distance d, radius
    rc, gap = d - rc from its nearest point to the origin) lying in the
    origin disc of radius R; pi means the full circle, and a radius-0 circle
    within R counts as full. From |P|^2 = gap^2 + 4 d rc sin^2(beta / 2)
    along the arc of _circle_arc, free of cancellation when gap is passed
    exactly."""
    with np.errstate(divide="ignore", invalid="ignore"):
        s2 = (R * R - gap * gap) / (4.0 * d * rc)
    s2 = np.where(np.isnan(s2), 1.0, s2)
    return 2.0 * np.arcsin(np.sqrt(np.clip(s2, 0.0, 1.0)))


def _circle_arc(center, gap, rc, weight):
    """Map for circle arcs: beta is the angle measured from the point -gap u
    of the circle nearest the origin (u the unit vector from the center
    toward the origin), so the clipped arc is symmetric in beta. The point
    at beta is -gap u - 2 rc (h^2 u - h k u_perp) with h, k = sin, cos of
    beta / 2: exact at any radius, where center + rc e(beta) loses the
    digits of a small gap on a large circle. weight(px, py, act) gives the
    weights at the points of rows act."""
    u = -center / np.hypot(center[:, 0], center[:, 1])[:, None]
    a = -gap[:, None] * u  # the nearest point
    bu = -2.0 * rc[:, None] * u  # times h^2
    bp = 2.0 * rc[:, None] * np.stack([-u[:, 1], u[:, 0]], axis=-1)  # times h k

    def mapto(B, act):
        h, k = np.sin(0.5 * B), np.cos(0.5 * B)
        h2, hk = h * h, h * k
        px = a[act, 0][:, None] + bu[act, 0][:, None] * h2 + bp[act, 0][:, None] * hk
        py = a[act, 1][:, None] + bu[act, 1][:, None] * h2 + bp[act, 1][:, None] * hk
        return np.stack([px, py], axis=-1), weight(px, py, act)

    return mapto


def _rays(lam, lam_eps, theta, turns, R, weight):
    """The ray from the origin at polar angle theta and its copies turned by
    turns, r in (0, R], on the rows where lambda vanishes; none when no row
    does. weight(r) is the weight 1/|grad psi| at radius r, since ds = dr."""
    rows = np.abs(lam) <= lam_eps
    if not np.any(rows):
        return []
    half = 0.5 * (R - _RAY_START * R)
    mid = _RAY_START * R + half
    e = np.array([np.cos(theta), np.sin(theta)])

    def mapto(B, act):
        r = mid + B
        return r[..., None] * e, weight(r)

    return [_Arc(np.where(rows, half, 0.0), mapto, stretch=True, turns=turns)]


# ---------------------------------------------------------------------------
# family records: one block per family builds its _Family, _FAMILIES at the
# end registers them by tag

_Param = namedtuple("_Param", "name valid need cast", defaults=(None,))  # need: "<tag> needs ..."


def _no_factorization(g, _):
    raise FactorizationUnavailableError(f"{g.tag} gradient does not factor as m(x) mu(lambda)")


@dataclass(frozen=True, eq=False)
class _Family:
    """Formulas, arcs and traits of one curve family. Callables take the
    GeometryFamily g holding the parameter values first; points arrive split
    into x1, x2 and checked against the domain, angles as c, s = cos, sin.
    lambda0 = lambda_sign * psi is written once, as the Harmonics of the
    points (harmonics); psi, lambda_of, psi_branch and the pair differences
    trig_difference and half_angle_difference are derived from it, and
    |grad psi| from the split weight_m * weight_mu where grad_norm is unset,
    and the family's form of lambda0 (lambda_harmonics with no points)."""

    harmonics: Callable  # (g, x1, x2) -> Harmonics of lambda0
    lambda_range: Callable  # (g, rho)
    dcoef: Callable  # (g, x1, x2, r2)
    arcs: Callable  # (g, lam, lam_eps, table_phi, R) -> list of _Arc, in the table's frame
    weight_m: Callable = lambda g, r2: np.ones_like(r2)  # (g, r2), m of |grad psi| = m mu
    weight_mu: Callable = lambda g, lam: np.ones_like(lam)  # (g, lam), mu of |grad psi| = m mu
    grad_norm: Callable | None = None  # (g, x1, x2, c, s), where m mu does not serve
    params: tuple = ()
    lambda_sign: float = -1.0
    open_disc: bool = False  # domain is the open unit disc
    punctured: bool = False  # domain excludes the origin
    sheets: Callable = lambda g: 1.0  # parameter sheets through each point
    kernel_condition_ok: Callable = lambda g: True
    dcoef_radius: Callable = lambda g: g.support_radius  # closed-form D(x) holds inside
    sharp_disc_data: Callable | None = None  # (g, disc, lam, phi), mphi data of indicator discs
    ray_start_gain: Callable = lambda g, lam, r0: 0.0  # (g, lam, r0), see the public ray_start_gain
    # (g, phi) -> (table_phi, turn): column phi's curves are the arcs at
    # table_phi turned by turn; column(g, table_phi) = (table_phi, 0)
    column: Callable = lambda g, phi: (0.0, phi)


def _symmetric(z):
    return (-z, z)


def _harmonic(w, const=0.0):
    """The polynomial const + w[0] cos + w[1] sin."""
    return TrigPoly((const, w[0]), (0.0, w[1]))


def _line_arcs(sgn, weight):
    """Arcs of the straight lines x1 = sgn * lambda; weight(lam2, B) is the
    weight at chord parameter B on rows with lambda^2 = lam2."""

    def arcs(g, lam, lam_eps, _, R):
        W = np.sqrt(np.maximum(R * R - lam * lam, 0.0))
        base = sgn * lam

        def mapto(B, act):
            P = np.stack([np.broadcast_to(base[act][:, None], B.shape), B], axis=-1)
            return P, weight((lam[act] ** 2)[:, None], B)

        return [_Arc(W, mapto)]

    return arcs


def _radon():
    """Straight lines <x, e(phi)> = lambda."""

    def sharp_disc_data(g, disc, lam, phi):
        # exact chords of an indicator disc over the (phi, lambda) lattice, in place
        out = np.subtract((np.cos(phi) * disc.center[0] + np.sin(phi) * disc.center[1])[:, None], lam)
        np.subtract(disc.radius**2, np.multiply(out, out, out=out), out=out)
        np.sqrt(np.maximum(out, 0.0, out=out), out=out)
        return np.multiply(disc.amplitude, np.multiply(2.0, out, out=out), out=out)

    return _Family(
        harmonics=lambda g, x1, x2: Harmonics(x1, x2),
        lambda_range=lambda g, rho: _symmetric(rho),
        dcoef=lambda g, x1, x2, r2: np.ones_like(r2),
        arcs=_line_arcs(1.0, lambda lam2, B: 1.0),
        sharp_disc_data=sharp_disc_data,
    )


def _funk():
    """Great circles: chart lines <x, e(phi)> = -lambda in the sphere metric."""

    def weight(lam2, B):
        # on the chord at distance |lambda|, ds = sqrt(1 + lambda^2) / q dbeta
        # and |grad psi| = sqrt(q (1 + lambda^2)), with q = 1 + lambda^2 + beta^2
        q = 1.0 + lam2 + B * B
        return 1.0 / (q * np.sqrt(q))

    return _Family(
        harmonics=lambda g, x1, x2: Harmonics(-x1, -x2),
        lambda_range=lambda g, rho: _symmetric(rho),
        dcoef=lambda g, x1, x2, r2: (1.0 + r2) ** -1.5,
        arcs=_line_arcs(-1.0, weight),
        weight_m=lambda g, r2: np.sqrt(1.0 + r2),
        weight_mu=lambda g, lam: np.sqrt(1.0 + lam * lam),
    )


def _poincare(den, sigma, z_max):
    """hgeodesic (sigma = 1) and equidistant (sigma = -1) curves, with
    psi = -2 <x, e(phi)> / den(x) and den = 1 + sigma |x|^2: the line
    through the origin at lambda = 0, otherwise circles about
    sigma e(phi) / lambda of radius sqrt(1 / lambda^2 - sigma)."""

    def harmonics(g, x1, x2):
        q = 2.0 / den(x1, x2)
        return Harmonics(q * x1, q * x2)

    def arcs(g, lam, lam_eps, _, R):
        # on a curve psi = -lambda, so |grad psi| = 2 sqrt(1 - sigma lambda^2) / den
        line_rows = np.abs(lam) <= lam_eps
        circ_rows = ~line_rows
        out = []
        if np.any(line_rows):

            def mapto_line(B, act):
                P = np.stack([np.zeros(B.shape), B], axis=-1)
                return P, 0.5 * (1.0 + sigma * B * B)

            out.append(_Arc(np.where(line_rows, R, 0.0), mapto_line))
        if np.any(circ_rows):

            def weight(px, py, act):
                return scale[act][:, None] * (1.0 + sigma * (px * px + py * py))

            # the line rows make infinite circles, masked out by W = 0
            with np.errstate(divide="ignore", invalid="ignore"):
                inv = 1.0 / lam
                center = np.stack([sigma * inv, np.zeros(lam.shape)], axis=-1)
                d = np.abs(inv)
                rc = np.sqrt(np.maximum(inv * inv - sigma, 0.0))
                gap = sigma / (d + rc)  # d - rc, exact since d^2 - rc^2 = sigma
                scale = rc / (2.0 * np.sqrt(np.maximum(1.0 - sigma * lam * lam, 0.0)))
                W = np.where(circ_rows & (rc > 0), _circle_halfwidth(gap, d, rc, R), 0.0)
                out.append(_Arc(W, _circle_arc(center, gap, rc, weight)))
        return out

    return _Family(
        harmonics=harmonics,
        lambda_range=lambda g, rho: _symmetric(min(2.0 * rho / (1.0 + sigma * rho * rho), z_max)),
        dcoef=lambda g, x1, x2, r2: (1.0 + sigma * r2) ** 3 / (4.0 * (1.0 - sigma * r2)),
        arcs=arcs,
        weight_m=lambda g, r2: 2.0 / (1.0 + sigma * r2),
        weight_mu=lambda g, lam: np.sqrt(1.0 - sigma * lam * lam),
        open_disc=True,
    )


def _ellipse():
    """Circles of radius sqrt(lambda) about e(phi) = (e1 cos phi, e2 sin phi)."""

    def lambda_range(g, rho):
        lo = max(min(g.e1, g.e2) - rho, 0.0)
        hi = max(g.e1, g.e2) + rho
        return (lo * lo, hi * hi)

    def dcoef(g, x1, x2, r2):
        if g.e1 == g.e2:
            gap = g.e1**2 - r2
            if np.any(gap <= 0.0):
                raise GeometryDomainError("normalizer needs |x| inside the circle of centers")
            return 0.25 / gap
        # |x - e(phi)|^2 of every point as one stack of order-two polynomials
        u, v, r2u = (np.ravel(w) for w in np.broadcast_arrays(x1, x2, r2))
        a = np.zeros((u.size, 3))
        b = np.zeros((u.size, 3))
        a[:, 0] = r2u + 0.5 * (g.e1**2 + g.e2**2)
        a[:, 1] = -2.0 * u * g.e1
        a[:, 2] = 0.5 * (g.e1**2 - g.e2**2)
        b[:, 1] = -2.0 * v * g.e2
        try:
            out = residue_integral(TrigPoly((1.0,)), (a, b)) / (8.0 * np.pi)
        except RealZeroError as err:
            i = err.rows[0]
            more = "" if err.rows.size == 1 else f" (and {err.rows.size - 1} more)"
            raise GeometryDomainError(
                f"normalizer is singular on the ellipse of centers, at ({u[i]:.6g}, {v[i]:.6g}){more}"
            ) from None
        return out.reshape(np.shape(r2))

    def arcs(g, lam, lam_eps, phi, R):
        ctr = np.array([g.e1 * np.cos(phi), g.e2 * np.sin(phi)])
        d0 = float(np.hypot(*ctr))
        rc = np.sqrt(np.maximum(lam, 0.0))
        # |grad psi| = 2 rc on the circle of radius rc, where ds = rc dbeta;
        # shrinking circles keep the weight 1/2 down to the radius-0 circle
        # at lambda <= 0, whose row keeps a finite value and traces no length
        gap = d0 - rc
        W = _circle_halfwidth(gap, d0, rc, R)
        return [_Arc(W, _circle_arc(np.broadcast_to(ctr, (lam.size, 2)), gap, rc, lambda px, py, act: 0.5))]

    def sharp_disc_data(g, disc, lam, phi):
        # |grad psi| = 2 sqrt(lambda) is constant on each circle, so the mphi
        # value is the angular measure of the part inside the disc, formed in
        # place from the circle radii rc (a row) and centre distances d (a column)
        rc = np.sqrt(np.maximum(lam, 0.0))[None, :]
        d = np.hypot(g.e1 * np.cos(phi) - disc.center[0], g.e2 * np.sin(phi) - disc.center[1])[:, None]
        out = np.add(d * d, rc * rc)
        out -= disc.radius**2
        with np.errstate(divide="ignore", invalid="ignore"):
            out /= 2.0 * d * rc
        # d = 0 or rc = 0: the circle lies wholly inside or wholly outside
        bad = np.nonzero(~np.isfinite(out))
        out[bad] = np.where(d[bad[0], 0] + rc[0, bad[1]] <= disc.radius, -1.0, 1.0)
        return np.multiply(disc.amplitude, np.arccos(np.clip(out, -1.0, 1.0, out=out), out=out), out=out)

    half_axis = "positive half-axes e1 and e2"
    return _Family(
        # |x - e(phi)|^2, expanded
        harmonics=lambda g, x1, x2: Harmonics(
            -2.0 * g.e1 * x1, -2.0 * g.e2 * x2, x1 * x1 + x2 * x2, (g.e1**2, g.e2**2)
        ),
        lambda_range=lambda_range,
        dcoef=dcoef,
        arcs=arcs,
        weight_mu=lambda g, lam: 2.0 * np.sqrt(lam),
        # exact as x nears e(phi), where 2 sqrt of the expanded lambda0 is not
        grad_norm=lambda g, x1, x2, c, s: 2.0 * np.hypot(x1 - g.e1 * c, x2 - g.e2 * s),
        params=(_Param("e1", lambda v: v > 0, half_axis), _Param("e2", lambda v: v > 0, half_axis)),
        lambda_sign=1.0,
        kernel_condition_ok=lambda g: g.support_radius < min(g.e1, g.e2),
        # a circle of centers turns with phi; an ellipse maps one table per column
        column=lambda g, phi: (0.0, phi) if g.e1 == g.e2 else (phi, 0.0),
        dcoef_radius=lambda g: min(g.support_radius, 0.95 * min(g.e1, g.e2)),
        sharp_disc_data=sharp_disc_data,
    )


def _hyperbola():
    """Confocal hyperbola branches r = lambda / (eps cos(theta - phi) - 1)."""

    def grad_norm(g, x1, x2, c, s):
        r = np.hypot(x1, x2)
        if np.any(r == 0.0):
            raise GeometryDomainError("hyperbola gradient is undefined at the origin")
        return np.sqrt(1.0 + g.eps**2 - 2.0 * g.eps * (x1 * c + x2 * s) / r)

    def arcs(g, lam, lam_eps, _, R):
        # the branch of phi = 0 in the hyperbolic angle t, through its point
        # nearest the origin, at distance L / (eps - s), at t = 0 (see the arc
        # geometry notes)
        a2 = g.eps * g.eps - 1.0
        a = np.sqrt(a2)
        L = np.abs(lam)
        sgn = np.where(lam >= 0.0, 1.0, -1.0)
        with np.errstate(divide="ignore"):
            ch = (R * a2 / L - sgn) / g.eps
        W = np.where(L > lam_eps, np.arccosh(np.maximum(ch, 1.0)), 0.0)

        def mapto_h(B, act):
            sc = (L[act] / a2)[:, None]
            ep = (g.eps * sgn[act])[:, None]
            ct, st = np.cosh(B), np.sinh(B)
            r = sc * (sgn[act][:, None] + g.eps * ct)
            return np.stack([sc * (ep + ct), (a * sc) * st], axis=-1), r / a

        astar = np.arccos(1.0 / g.eps)
        # 1/|grad psi| along cos alpha = 1 / eps
        rays = _rays(lam, lam_eps, astar, (0.0, -2.0 * astar), R, lambda r: 1.0 / a)
        return [_Arc(W, mapto_h)] + rays

    return _Family(
        harmonics=lambda g, x1, x2: Harmonics(g.eps * x1, g.eps * x2, -np.hypot(x1, x2)),
        grad_norm=grad_norm,
        lambda_range=lambda g, rho: (-(1.0 + g.eps) * rho, (g.eps - 1.0) * rho),
        dcoef=lambda g, x1, x2, r2: np.full_like(r2, 1.0 / (g.eps**2 - 1.0)),
        arcs=arcs,
        weight_m=_no_factorization,
        weight_mu=_no_factorization,
        params=(_Param("eps", lambda v: v > 1, "eccentricity eps > 1"),),
        lambda_sign=1.0,
    )


def _parabola():
    """Confocal parabolas r = lambda^2 / (1 + cos(theta - phi))."""

    def arcs(g, lam, lam_eps, _, R):
        # a polynomial arc in rho through the vertex (lambda^2 / 2, 0) at rho = 0
        # (see the arc geometry notes); |P| <= R is rho^2 <= R - lambda^2 / 2
        half = 0.5 * lam * lam
        W = np.where(lam > lam_eps, np.sqrt(np.maximum(R - half, 0.0)), 0.0)

        def mapto_p(B, act):
            rho2 = B * B
            h = half[act][:, None]
            P = np.stack([h - rho2, (np.sqrt(2.0) * lam[act])[:, None] * B], axis=-1)
            return P, (2.0 * np.sqrt(2.0)) * (h + rho2)

        # at lambda = 0 the curve closes onto the backward ray, covered twice
        rays = _rays(lam, lam_eps, np.pi, (0.0,), R, lambda r: 2.0 * np.sqrt(2.0 * r))
        return [_Arc(W, mapto_p)] + rays

    return _Family(
        harmonics=lambda g, x1, x2: Harmonics(x1, x2, np.hypot(x1, x2), root=True),
        lambda_range=lambda g, rho: (0.0, np.sqrt(2.0 * rho)),
        dcoef=lambda g, x1, x2, r2: 2.0 * np.sqrt(r2),
        arcs=arcs,
        weight_m=lambda g, r2: (2.0 * np.sqrt(r2)) ** -0.5,
        punctured=True,
    )


def _cormack():
    """Polar curves r^k cos(k theta - phi) = lambda, on k parameter sheets."""

    def harmonics(g, x1, x2):
        w = (x1 + 1j * x2) ** g.k
        return Harmonics(w.real, w.imag)

    def ray_start_gain(g, lam, r0):
        # 2k rays, each integrating f(0) r^(1-k) / k over [r / 10, r]: from
        # r = r0 on the lambda = 0 row, and from r = |lambda|^(1/k), where
        # the curve of any other row comes closest to the origin
        r = np.where(lam == 0.0, r0, np.abs(lam) ** (1.0 / g.k))
        if g.k == 2:
            return np.full(r.shape, 2.0 * np.log(10.0))
        if g.k > 2:
            return 2.0 * r ** (2 - g.k) * (10.0 ** (g.k - 2) - 1.0) / (g.k - 2)
        return np.zeros(r.shape)

    def arcs(g, lam, lam_eps, _, R):
        # the sheet of phi = 0 through r^k = L at polar angle th0 = 0, or
        # pi / k where lambda < 0, in the hyperbolic angle t; sheet m is that
        # one turned by 2 pi m / k (see the arc geometry notes)
        k = g.k
        L = np.abs(lam)
        # a sheet reaches r = R at cosh kt = R^k / L, and the rays of a
        # lambda = 0 row weigh r^(1-k) / k, most at their start r0; as
        # doubles, an overflow reads inf
        r0 = _RAY_START * R
        with np.errstate(divide="ignore", over="ignore"):
            ch = np.float64(R) ** k / L
            w0 = np.float64(r0) ** (1 - k) / k if np.any(L <= lam_eps) else 0.0
        start = f"the lambda = 0 rays' weight r^(1-k)/k at their start r = {r0:.3g}"
        for what, value in (("R^k / |lambda|", ch[L > lam_eps]), (start, w0)):
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{descriptor(g)}: {what} overflows on the working disc of radius R = {R:.6g}")
        W = np.where(L > lam_eps, np.arccosh(np.maximum(ch, 1.0)) / k, 0.0)
        th0 = np.where(lam >= 0.0, 0.0, np.pi / k)
        c0, s0 = np.cos(th0), np.sin(th0)

        def mapto_c(B, act):
            u = k * B
            rk = L[act][:, None] * np.cosh(u)
            r = rk ** (1.0 / k)
            gd = np.arctan(np.sinh(u)) / k
            P = _frame(r * np.cos(gd), r * np.sin(gd), c0[act][:, None], s0[act][:, None])
            return P, r * r / (k * rk)

        sheets = _Arc(W, mapto_c, turns=tuple(TAU * m / k for m in range(k)))
        # the 2k rays of the lambda = 0 row, cos(k theta) = 0
        turns = tuple(np.pi * j / k for j in range(2 * k))
        return [sheets] + _rays(lam, lam_eps, 0.5 * np.pi / k, turns, R, lambda r: r ** (1 - k) / k)

    return _Family(
        harmonics=harmonics,
        lambda_range=lambda g, rho: _symmetric(rho**g.k),
        dcoef=lambda g, x1, x2, r2: 1.0 / (g.k**2 * r2 ** (g.k - 1)),
        arcs=arcs,
        weight_m=lambda g, r2: g.k * np.sqrt(r2) ** (g.k - 1),
        params=(_Param("k", lambda v: float(v).is_integer() and v >= 1, "a positive integer order k", int),),
        punctured=True,
        sheets=lambda g: float(g.k),
        ray_start_gain=ray_start_gain,
        # the curves of phi are those of 0 turned by phi / k
        column=lambda g, phi: (0.0, phi / g.k),
    )


_FAMILIES = {
    "radon": _radon(),
    "funk": _funk(),
    # the denominators keep the association of the hand-written formulas
    "hgeodesic": _poincare(lambda x1, x2: 1.0 + x1 * x1 + x2 * x2, 1.0, np.inf),
    "equidistant": _poincare(lambda x1, x2: 1.0 - (x1 * x1 + x2 * x2), -1.0, 1.0),
    "ellipse": _ellipse(),
    "hyperbola": _hyperbola(),
    "parabola": _parabola(),
    "cormack": _cormack(),
}

TAGS = tuple(_FAMILIES)
# every family parameter field of GeometryFamily
_PARAM_NAMES = frozenset(p.name for record in _FAMILIES.values() for p in record.params)
