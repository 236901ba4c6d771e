"""Forward transform: family curves traced in closed form and integrated.

Every family's data curve {x : lambda_of(x, phi) = lambda} is a line, a
circle, a conic branch or a cormack curve, so geometry.arcs parametrizes it
exactly, clipped to a working disc about the origin, in a parameter where
the integrand is smooth; no implicit-surface marching is needed. The
forward value at one sinogram node is the curve integral of the phantom
weighted by 1/|grad psi| (kind "mphi"). Each arc map returns that weight
with its points, in the family's closed form along its own arcs, so no
gradient is evaluated here. Plain arc-length data (kind "riemann") multiply
it by m(x) mu(lambda), on the families where |grad psi| splits so.
The integral is computed by the trapezoid rule on nested nodes (each
doubling evaluates only the new midpoints) with Richardson extrapolation,
from a coarse first level of 16 intervals per arc, whose pass evaluates the
end nodes too, at half weight. Each pass over the nodes checks once that
its sums are finite, since a non-finite phantom value carries through
them. Each row refines,
independently of the other rows, until it has converged and its nodes are no
farther apart than the phantom's feature_scale, so that two coarse levels
cannot agree on a narrow feature that both of them miss.
A column is a turn of a table of arcs (geometry's _Family.column): every
family but the ellipse with e1 != e2 has one table, its phi = 0 curves, so
each level's arcs are mapped once for all columns. A column then turns the
phantom, not the points: it evaluates the phantom turned by minus its angle
(plus each of an arc's own turns) at the table's unturned points, which
costs a turn of each component's centre instead of a turned copy of every
node. The columns that refine all the rows of a block of nodes evaluate
it in one call, one turn each (Phantom.eval with a sequence of turns),
whose slices equal the columns' own calls bit for bit. Columns still stop
refining independently, so splitting them among worker processes
parallelizes over phi without changing any result. A row
whose integral diverges at a singular point of the family is refused
(DivergentRowError).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from .fields import header_count, header_floats, read_rows, write_rows
from .geometry import GeometryFamily
from .phantom import Disc, Phantom

__all__ = [
    "Sinogram",
    "TracingError",
    "DivergentRowError",
    "default_axes",
    "phi_coverage",
    "trace_curve",
    "forward_mphi",
    "forward_riemann",
    "riemann_to_mphi",
    "read_fkr1",
    "write_fkr1",
]

TAU = 2.0 * np.pi
# the most nodes an arc map receives at once: a level's rows are mapped in
# blocks of this size, so that a deep level of a whole table holds a few MB
_TABLE_POINTS = 1 << 16


class TracingError(RuntimeError):
    """A level curve could not be traced. No library function raises it,
    since trace_curve draws the closed-form arcs with nothing to converge;
    the name stays exported for callers that report such a failure."""


class DivergentRowError(ValueError):
    """A row's curve integral diverges at a singular point of the family, so
    the value the quadrature returns is set by where its rays start."""


def phi_coverage(geom: GeometryFamily, phi: np.ndarray) -> str:
    """'full' for a phi axis of n >= 2 nodes, uniform from 0 (within 1e-12,
    steps equal to rtol 1e-9), whose n steps span 2pi within 1e-9; 'half'
    where they span pi and lambda0 is odd in phi (geometry.Harmonics.odd),
    so half a turn stands for the whole. Any other axis raises ValueError."""
    phi = np.asarray(phi, dtype=float)
    if phi.ndim != 1 or phi.size < 2:
        raise ValueError("phi axis needs at least two samples")
    # non-finite or huge nodes fail the comparisons; their arithmetic may not warn
    with np.errstate(all="ignore"):
        dp = np.diff(phi)
        if abs(phi[0]) > 1e-12 or dp[0] <= 0 or not np.allclose(dp, dp[0], rtol=1e-9, atol=1e-12):
            raise ValueError("phi axis must be uniform starting at 0")
        span = dp[0] * phi.size
    if abs(span - TAU) < 1e-9:
        return "full"
    if not abs(span - np.pi) < 1e-9:
        raise ValueError("phi axis must tile [0, 2pi) or [0, pi)")
    if not geo.lambda_harmonics(geom).odd:
        raise ValueError(f"a half-range phi axis needs lambda0 odd in phi, which {geom.tag} is not")
    return "half"


def _check_axes(geom: GeometryFamily, lam: np.ndarray, phi: np.ndarray) -> None:
    """Refuse a lambda axis that is not uniform, ascending and inside the
    family's admissible range, or a phi axis that phi_coverage refuses."""
    if lam.ndim != 1 or lam.size < 2:
        raise ValueError("lambda axis needs at least two samples")
    dl = np.diff(lam)
    if dl[0] <= 0 or not np.allclose(dl, dl[0], rtol=1e-9, atol=0):
        raise ValueError("lambda axis must be uniform and ascending")
    phi_coverage(geom, phi)
    lo, hi = geo.lambda_range(geom)
    slack = 1e-9 * (1.0 + hi - lo)
    if lam[0] < lo - slack or lam[-1] > hi + slack:
        raise ValueError(f"lambda axis [{lam[0]}, {lam[-1]}] exceeds admissible range [{lo}, {hi}]")


@dataclass(frozen=True, eq=False)
class Sinogram:
    """Sampled transform data on a uniform (lambda, phi) lattice.

    data[j, i] is the value at (lambda_axis[i], phi_axis[j]). The phi axis
    covers [0, 2pi) endpoint-free, or [0, pi) where lambda0 is odd in phi
    (phi_coverage), since data(-lambda, phi + pi) = data(lambda, phi) there;
    pv_filter folds a full turn of such data to a half turn before filtering.
    """

    geom: GeometryFamily
    lambda_axis: np.ndarray
    phi_axis: np.ndarray
    data: np.ndarray
    kind: str = "mphi"

    def __post_init__(self):
        lam = np.asarray(self.lambda_axis, dtype=float)
        phi = np.asarray(self.phi_axis, dtype=float)
        data = np.asarray(self.data, dtype=float)
        object.__setattr__(self, "lambda_axis", lam)
        object.__setattr__(self, "phi_axis", phi)
        object.__setattr__(self, "data", data)
        if self.kind not in ("mphi", "riemann"):
            raise ValueError(f"unknown sinogram kind {self.kind!r}")
        _check_axes(self.geom, lam, phi)
        if data.shape != (phi.size, lam.size):
            raise ValueError(f"data shape {data.shape} does not match axes ({phi.size}, {lam.size})")
        if not np.all(np.isfinite(data)):
            raise ValueError("sinogram entries must be finite")

    @property
    def phi_full(self) -> str:
        return phi_coverage(self.geom, self.phi_axis)

    @property
    def n_lambda(self) -> int:
        return self.lambda_axis.size

    @property
    def n_phi(self) -> int:
        return self.phi_axis.size


def default_axes(geom: GeometryFamily, n_lambda: int, n_phi: int, half: bool = False):
    """Uniform axes spanning the family's full admissible lambda interval."""
    return _axes(*geo.lambda_range(geom), n_lambda, n_phi, half)


def _axes(lo, hi, n_lambda, n_phi, half):
    """Axes as read_fkr1 must rebuild them, bit for bit, from a file's header."""
    return np.linspace(lo, hi, n_lambda), np.arange(n_phi) * ((np.pi if half else TAU) / n_phi)


# ---------------------------------------------------------------------------
# forward quadrature


def _stretch_map(u):
    """Odd C^2 map of [-1, 1] onto itself with (1 - u^2)^2 derivative, for
    the lambda = 0 rays out of the origin.

    Every other arc is parametrized so that its integrand is smooth and
    bounded (see geometry's arc notes), but a ray's integrand does not vanish
    at the inner endpoint, which pins the plain trapezoid rule at second
    order. Under the substitution beta = W s(u) the boundary derivative terms
    drop and fourth order kicks in. Since s'(+-1) = 0, the end nodes of the
    nested trapezoid rule carry no weight on the rays and are never
    evaluated.
    """
    u2 = u * u
    s = 1.875 * u * (1.0 - u2 * (2.0 / 3.0 - 0.2 * u2))
    ds = 1.875 * (1.0 - u2) ** 2
    return s, ds


def _row_sums(vals, w):
    """Per row i, sum_k vals[..., i, k] w[k] for one weight per node (w of
    shape (nodes,)) or sum_k vals[..., i, k] w[i, k] for a weight per row and
    node, as one einsum contraction; a leading axis of columns sums each
    column as it sums alone. Not '@' or np.dot: those go to BLAS, which does
    not promise the same summation order in every process, and forward data
    must not depend on the worker count."""
    return np.einsum("...ij,j->...i" if w.ndim == 1 else "...ij,ij->...i", vals, w)


def _columns(geom, phantom, lam, table, turns, R, mu, rtol, n_start, n_max):
    """Sinogram columns that share one arc table: integrals over all lambda
    rows of the columns whose curves are the table's arcs turned by turns,
    as an array of shape (len(turns), lam.size).

    Every arc is integrated by the trapezoid rule on the nodes u_k = 2k/n - 1
    of [-1, 1], starting at n = n_start, whose first pass takes the end
    nodes u = -1, 1 with the interior ones, at weight 1/2 (a ray's stretch
    gives them weight zero, so rays skip them). The nodes are nested:
    doubling n adds only the n midpoints, T_2n = (T_n + M_n) / 2, so no
    evaluated node is thrown away. Refinement is per row of each column: a
    row stops once |T_2n - T_n| < rtol * scale (scale: the largest row value
    of its column) and its nodes are no farther apart than the phantom's
    feature_scale, and keeps the Richardson estimate (4 T_2n - T_n) / 3 of
    that level; later levels evaluate only the rows still refining. The
    node spacing of a level is taken as half the largest chord between
    consecutive new midpoints on any of the row's arcs. Without that guard
    a coarse start can agree with itself on a feature narrower than the
    node spacing and stop with it missed. rtol = 0 refines every row up to n_max. mu is None
    for mphi data, else the per-row mu(lambda) of arc-length data.

    Per level, each arc is mapped once, for the rows that some column still
    refines, in blocks of at most _TABLE_POINTS nodes; a block's chords are
    measured, and the ray stretch, the first level's half-weight end nodes
    and the m(x) mu(lambda) of arc-length data folded into its weights, once
    for all columns. A constant weight joins the row factor W, and the nodes
    of a row sum against a vector of ones; a weight that varies only along
    the arc is one vector for every row. Either way a row's weighted node
    sum is one contraction (_row_sums). Each column then evaluates the
    phantom turned by minus its turn plus each of the arc's turns
    (Phantom.eval's turn) at the block's unturned points, on its own
    refining rows only. The columns that refine every row of the block do
    so in one call, a sequence of turns, where all their values fit in
    _TABLE_POINTS: one call per level for the single row of a family's
    lambda = 0 rays, not one per column. A larger block keeps a call per
    column, since values past a few hundred kB cost more to allocate than
    the calls they save. Every slice of a shared call is the column's own
    call bit for bit, so a column's values do not depend on which columns
    share its table or its calls. A pass checks that its sums are finite
    once, at its end: NaN and inf carry through the weighted sums.
    """
    arcs = geo.arcs(geom, lam, table, R)
    feature = phantom.feature_scale
    turns = np.asarray(turns, dtype=float)

    def node_sum(u, todo, first=False):
        """Per column and row, the sum over arcs and their turned copies of
        W * sum_k f(u_k), where f is the integrand in u, and per row the
        largest chord between consecutive nodes on any of its arcs; zero off
        the refining rows. first=True is the first level, whose nodes u run
        from -1 to 1: the end nodes count half, and stretched arcs, which
        have weight zero there, skip them; its chords are not measured."""
        smap, sder = _stretch_map(u[1:-1] if first else u)
        if first:
            halves = np.ones(u.size)
            halves[[0, -1]] = 0.5
        tot = np.zeros(todo.shape)
        chord2 = np.zeros(lam.shape)
        rows = np.any(todo, axis=0)
        step = max(1, _TABLE_POINTS // u.size)
        for arc in arcs:
            nodes = smap if arc.stretch else u
            todo_rows = np.flatnonzero((arc.W > 0.0) & rows)
            for first_row in range(0, todo_rows.size, step):
                act = todo_rows[first_row : first_row + step]
                B = arc.W[act][:, None] * nodes[None, :]
                P, weight = arc.mapto(B, act)
                # each coordinate contiguous: the phantom's offsets from its
                # centres, formed in every column, then read plain arrays
                P = np.moveaxis(np.ascontiguousarray(np.moveaxis(P, -1, 0)), 0, -1)
                if mu is not None:
                    # m from the record: the arc's own points need no domain check
                    m = geom.record.weight_m(geom, P[..., 0] ** 2 + P[..., 1] ** 2)
                    weight = weight * m * mu[act][:, None]
                if arc.stretch:
                    weight = weight * sder[None, :]
                elif first:
                    weight = weight * halves
                # a constant weight (radon 1, circle and ellipse 1/2) joins
                # the row factor W, and the nodes sum against ones; a weight
                # that varies along the arc alone is one vector for every row
                const = np.ndim(weight) == 0
                fac = arc.W * weight if const else arc.W
                if const:
                    weight = np.ones(B.shape[1])
                elif np.ndim(weight) == 1 or np.shape(weight)[0] == 1:
                    weight = np.broadcast_to(weight, B.shape)[0]
                else:
                    weight = np.broadcast_to(weight, B.shape)
                if not first and u.size > 1:
                    d = np.diff(P, axis=1)
                    d *= d
                    chord2[act] = np.maximum(chord2[act], np.max(d[..., 0] + d[..., 1], axis=1))
                # the refining rows of each column; the columns that refine
                # them all take the block whole, as a slice where they can,
                # in one call where their values (rows x nodes x columns) fit
                # in _TABLE_POINTS; any other column evaluates its own rows
                refining = todo[:, act]
                whole = refining.all(axis=1)
                span = slice(act[0], act[-1] + 1) if act[-1] - act[0] == act.size - 1 else act
                cols = np.flatnonzero(whole)
                if 0 < cols.size * B.size <= _TABLE_POINTS:
                    calls = [((cols[:, None], act), turns[cols])]
                else:
                    calls = [((j, span), turns[j]) for j in cols]
                for at, turn in calls:
                    vals = phantom.eval(P, arc.turns[0] + turn)
                    for t in arc.turns[1:]:
                        vals += phantom.eval(P, t + turn)
                    tot[at] += fac[span] * _row_sums(vals, weight)
                for j in np.flatnonzero(~whole & refining.any(axis=1)):
                    own = np.flatnonzero(refining[j])
                    Q, at = P[own], act[own]
                    w = weight if weight.ndim == 1 else weight[own]
                    vals = phantom.eval(Q, arc.turns[0] + turns[j])
                    for t in arc.turns[1:]:
                        vals += phantom.eval(Q, t + turns[j])
                    tot[j, at] += fac[at] * _row_sums(vals, w)
        # NaN and inf carry through the weighted sums, so one check per pass
        # catches a non-finite value at any node
        if not np.all(np.isfinite(tot)):
            raise ValueError("phantom evaluated to a non-finite value on a curve")
        return tot, np.sqrt(chord2)

    todo = np.ones((len(turns), lam.size), dtype=bool)
    n = n_start
    u = np.arange(n + 1) * (2.0 / n) - 1.0
    u[[0, -1]] = -1.0, 1.0
    acc, _ = node_sum(u, todo, first=True)
    prev = (2.0 / n) * acc
    best = prev
    while 2 * n <= n_max and np.any(todo):
        mid, chord = node_sum((np.arange(n) + 0.5) * (2.0 / n) - 1.0, todo)
        acc += mid
        n *= 2
        cur = np.where(todo, (2.0 / n) * acc, prev)
        best = np.where(todo, (4.0 * cur - prev) / 3.0, best)
        scale = np.maximum(np.max(np.abs(cur), axis=1, keepdims=True), 1e-300)
        todo &= ~((np.abs(cur - prev) < rtol * scale) & (0.5 * chord <= feature))
        prev = cur
    return best


def _split_phantom(phantom: Phantom):
    smooth, sharp = [], []
    for comp in phantom.components:
        if isinstance(comp, Disc) and comp.width == 0.0:
            sharp.append(comp)
        else:
            smooth.append(comp)
    return Phantom(tuple(smooth)), sharp


def _working_radius(geom: GeometryFamily, phantom: Phantom) -> float:
    s = phantom.support_radius
    R = 1.05 * s
    cap = geo.domain_radius_cap(geom)
    if np.isfinite(cap):
        if s >= cap:
            raise ValueError("phantom support must lie strictly inside the family domain")
        R = min(R, 0.5 * (s + cap))
    return R


def _forward(phantom, geom, lambda_axis, phi_axis, kind, rtol, n_start, n_max, workers):
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if n_start < 1:
        raise ValueError(f"n_start must be at least 1, got {n_start}")
    # below 2 n_start the first level would be returned with no convergence test
    if n_max < 2 * n_start:
        raise ValueError(f"n_max must be at least 2 * n_start = {2 * n_start}, got {n_max}")
    if not rtol >= 0.0:
        raise ValueError(f"rtol must be nonnegative, got {rtol}")
    lam = np.asarray(lambda_axis, dtype=float)
    phi = np.asarray(phi_axis, dtype=float)
    # bad axes, and a family without the m * mu split (hyperbola), are refused before any quadrature
    _check_axes(geom, lam, phi)
    mu = None if kind == "mphi" else geo.weight_mu(geom, lam)
    smooth, sharp = _split_phantom(phantom)
    disc_data = geom.record.sharp_disc_data
    if sharp and disc_data is None:
        raise ValueError(
            "sharp discs are integrated analytically only for radon and ellipse; "
            "give the disc a mollification width for other families"
        )
    data = np.zeros((phi.size, lam.size))
    if smooth.components:
        R = _working_radius(geom, smooth)
        tables = {}
        for j, p in enumerate(phi):
            table, turn = geom.record.column(geom, float(p))
            tables.setdefault(table, []).append((j, turn))
        # each table's columns split into workers interleaved blocks, one job each
        blocks = [(table, cols[w::workers]) for table, cols in tables.items() for w in range(min(workers, len(cols)))]
        jobs = [(geom, smooth, lam, table, [t for _, t in cols], R, mu, rtol, n_start, n_max) for table, cols in blocks]
        if workers > 1:
            # imported here, so that importing the package does not pull in multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                parts = list(pool.map(_columns, *zip(*jobs), chunksize=max(1, len(jobs) // (4 * workers))))
        else:
            parts = [_columns(*job) for job in jobs]
        for (_, cols), part in zip(blocks, parts):
            data[[j for j, _ in cols]] = part
        if mu is None:
            _refuse_divergent_rows(geom, smooth, lam, R, data, rtol, n_max)
    for disc in sharp:
        # m = 1 wherever sharp-disc data exist, so arc-length data are mphi * mu
        data += disc_data(geom, disc, lam, phi) if mu is None else disc_data(geom, disc, lam, phi) * mu
    return Sinogram(geom, lam, phi, data, kind=kind)


def _refuse_divergent_rows(geom, phantom, lam, R, data, rtol, n_max):
    """Raise DivergentRowError where starting the rays from the origin ten
    times closer would move a row by more than rtol * max|data|: the lambda
    = 0 row, or, on an axis that spans lambda = 0 with no node there, the
    two rows next to it (geometry.ray_start_gain), which carry the
    divergence into the filter.

    rtol = 0 is judged at n_max * eps, the round-off of a trapezoid sum over
    n_max nodes, below which no quadrature depth tells the rows apart.
    """
    gain = geo.ray_start_gain(geom, lam, R)
    if not np.any(gain > 0.0):
        return
    f0 = float(phantom.eval(np.zeros(2)))
    tol = max(rtol, n_max * np.finfo(float).eps) * float(np.max(np.abs(data)))
    bad = np.flatnonzero(gain * abs(f0) > tol)
    if bad.size:
        i = int(bad[0])
        # a lambda = 0 node is the one row with a gain, the rows next to a
        # lambda = 0 that the axis steps over are two
        row = f"the mphi row lambda = {lam[i]:.3g} (index {i})"
        if np.count_nonzero(gain) == 2:
            where, rays = f"the axis steps over lambda = 0, and {row} next to it samples the row that", "those"
        else:
            where, rays = row, "its"
        raise DivergentRowError(
            f"{geo.descriptor(geom)}: {where} diverges at the origin, where the phantom is f(0) = {f0:.3g}; "
            f"starting {rays} rays ten times closer moves it by {gain[i] * abs(f0):.3g}, more than {tol:.3g}. "
            "Use a phantom that vanishes at the origin"
        )


def forward_mphi(
    phantom: Phantom,
    geom: GeometryFamily,
    lambda_axis,
    phi_axis,
    rtol: float = 1e-8,
    n_start: int = 16,
    n_max: int = 8192,
    workers: int = 1,
) -> Sinogram:
    """Curve integrals of the phantom against 1/|grad psi| (the transform
    this package inverts). Deterministic for any worker count."""
    return _forward(phantom, geom, lambda_axis, phi_axis, "mphi", rtol, n_start, n_max, workers)


def forward_riemann(
    phantom: Phantom,
    geom: GeometryFamily,
    lambda_axis,
    phi_axis,
    rtol: float = 1e-8,
    n_start: int = 16,
    n_max: int = 8192,
    workers: int = 1,
) -> Sinogram:
    """Plain arc-length integrals of the phantom over the family curves.
    Refuses a family whose gradient has no m(x) mu(lambda) split (hyperbola),
    since its data would never convert back to mphi data."""
    return _forward(phantom, geom, lambda_axis, phi_axis, "riemann", rtol, n_start, n_max, workers)


def riemann_to_mphi(sino: Sinogram) -> Sinogram:
    """Divide arc-length data by mu(lambda): the result is the mphi transform
    of m(x) f(x), ready for invert + pointwise division by m."""
    if sino.kind != "riemann":
        raise ValueError("riemann_to_mphi expects kind='riemann' data")
    mu = np.asarray(geo.weight_mu(sino.geom, sino.lambda_axis))
    tiny = 1e-14
    degenerate = mu < tiny
    if np.any(degenerate):
        bad = sino.data[:, degenerate]
        if np.any(np.abs(bad) > 1e-12 * (1.0 + np.max(np.abs(sino.data)))):
            raise ValueError("nonzero data at nodes where mu(lambda) = 0 cannot be converted")
        mu = np.where(degenerate, 1.0, mu)
    return Sinogram(sino.geom, sino.lambda_axis, sino.phi_axis, sino.data / mu[None, :], kind="mphi")


# ---------------------------------------------------------------------------
# curve tracing


def trace_curve(geom: GeometryFamily, lam: float, phi: float, region: float, step: float):
    """Polylines for {x : lambda_of(x, phi) = lam} inside |x| <= region.

    Each arc of geometry.arcs becomes one ordered polyline per turned copy
    (cormack's k sheets, a family's rays): the arc's own closed-form points,
    resampled by arc length so that consecutive vertices are at most about
    step apart. Degenerate (point) components are omitted.
    """
    if not (step > 0):
        raise ValueError("step must be positive")
    if not (region > 0):
        raise ValueError("region radius must be positive")
    lam_arr = np.array([float(lam)])
    lines = []
    for arc in geo.arcs(geom, lam_arr, float(phi), float(region)):
        if arc.W[0] <= 0.0:
            continue
        W = float(arc.W[0])
        # presample finely, measure length, then resample by arc length
        tfine = np.linspace(-W, W, 513)
        P, _ = arc.mapto(tfine[None, :], np.array([0]))
        pts = P[0]
        seg = np.hypot(*np.diff(pts, axis=0).T)
        cum = np.concatenate([[0.0], np.cumsum(seg)])
        total = float(cum[-1])
        if total == 0.0:
            continue
        n_seg = max(int(np.ceil(total / step)), 1)
        want = np.linspace(0.0, total, n_seg + 1)
        tv = np.interp(want, cum, tfine)
        P, _ = arc.mapto(tv[None, :], np.array([0]))
        lines.extend(Q[0] for Q in arc.turned(P))
    return lines


# ---------------------------------------------------------------------------
# FKR1 file format


def write_fkr1(path, sino: Sinogram) -> None:
    """Text format: FKR1 / geometry descriptor / axis header / data rows.

    Floats are written with repr, so read-write round trips are exact.
    """
    lam = sino.lambda_axis
    head = (
        f"FKR1\n{geo.descriptor(sino.geom)}\n"
        f"{sino.kind} {lam.size} {sino.phi_axis.size} "
        f"{float(lam[0])!r} {float(lam[-1])!r} {sino.phi_full}\n"
    )
    write_rows(path, head, sino.data)


def read_fkr1(path) -> Sinogram:
    with open(path) as f:
        lines = [f.readline() for _ in range(3)]
        if lines[0].strip() != "FKR1":
            raise ValueError(f"{path}: not an FKR1 sinogram file")
        if not lines[2]:
            raise ValueError(f"{path}: truncated FKR1 header")
        geom = geo.parse_geometry(lines[1].strip())
        fields = lines[2].split()
        if len(fields) != 6:
            raise ValueError(f"{path}: malformed FKR1 axis header")
        kind, n_lam, n_phi = fields[0], header_count(path, fields[1], "n_lambda"), header_count(path, fields[2], "n_phi")
        lam_min, lam_max = header_floats(path, fields[3:5])
        full = fields[5]
        if full not in ("full", "half"):
            raise ValueError(f"{path}: phi coverage must be 'full' or 'half', got {full!r}")
        data = read_rows(path, f, n_phi, n_lam)
    lam, phi = _axes(lam_min, lam_max, n_lam, n_phi, full == "half")
    return Sinogram(geom, lam, phi, data, kind=kind)
