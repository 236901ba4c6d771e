"""Self-verification suite behind ``funkradon selftest``.

Every check pits the library against an expected value derived by a second
route: closed forms evaluated by hand, adaptive quadrature built from plain
numpy, exact symmetries, or bit-level file comparisons. run_all executes the
whole battery, the release gate, and reports one CheckResult per property.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import geometry as geo
from .fields import Grid, read_f64grid, write_f64grid
from .inversion import invert
from .phantom import Gaussian, Phantom
from .transform import Sinogram, default_axes, forward_mphi, read_fkr1, write_fkr1
from .trigpoly import TrigPoly, distinct_points, kernel_scale, nucleus_check, residue_integral

__all__ = ["CheckResult", "run_all", "CHECKS"]

TAU = 2.0 * np.pi


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] {self.name}: {self.detail} ({self.seconds:.1f}s)"


def _sample_disc(rng, n, rmin, rmax):
    r = np.sqrt(rng.uniform(rmin * rmin, rmax * rmax, n))
    th = rng.uniform(0.0, TAU, n)
    return np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)


def _families():
    return [
        GeometryConfig("radon", geo.GeometryFamily("radon"), 0.95),
        GeometryConfig("funk", geo.GeometryFamily("funk", support_radius=0.8), 0.8),
        GeometryConfig("hgeodesic", geo.GeometryFamily("hgeodesic", support_radius=0.7), 0.7),
        GeometryConfig("equidistant", geo.GeometryFamily("equidistant", support_radius=0.4), 0.4),
        GeometryConfig(
            "ellipse", geo.GeometryFamily("ellipse", e1=1.2, e2=0.8, support_radius=0.7), 0.7
        ),
        GeometryConfig("hyperbola", geo.GeometryFamily("hyperbola", eps=2.0), 0.95),
        GeometryConfig("cormack2", geo.GeometryFamily("cormack", k=2), 0.95),
        GeometryConfig("cormack3", geo.GeometryFamily("cormack", k=3), 0.95),
        # last, so that the draws of the families above do not move
        GeometryConfig("parabola", geo.GeometryFamily("parabola"), 0.95),
        GeometryConfig("circle", geo.GeometryFamily("ellipse", e1=1.0, e2=1.0, support_radius=0.7), 0.7),
    ]


@dataclass(frozen=True)
class GeometryConfig:
    label: str
    geom: geo.GeometryFamily
    rmax: float  # sampling radius for random points in the valid region


# ---------------------------------------------------------------------------
# kernel vanishing


def check_nucleus() -> CheckResult:
    """Nucleus magnitudes |N(x, y)| over random point pairs of every family."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    n_pairs = 100
    worst = 0.0
    worst_at = ""
    count = 0
    failures = []
    for cfg in _families():
        pts = _sample_disc(rng, 2 * n_pairs, 0.05, cfg.rmax)
        for x, y in zip(pts[:n_pairs], pts[n_pairs:]):
            if not distinct_points(x, y):
                continue
            try:
                val = abs(nucleus_check(cfg.geom, x, y))
            except ValueError as exc:
                failures.append(f"{cfg.label} pair raised: {exc}")
                continue
            tol = 1e-4 * max(1.0, kernel_scale(cfg.geom, x, y) ** 2)
            count += 1
            ratio = val / tol
            if ratio > worst:
                worst, worst_at = ratio, cfg.label
            if ratio > 1.0:
                failures.append(f"{cfg.label}: |N|={val:.3e} over tolerance {tol:.3e}")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed <= 120.0
    detail = f"{count} pairs, worst |N|/tol {worst:.2e} ({worst_at})"
    if failures:
        detail += "; " + failures[0]
    if elapsed > 120.0:
        detail += "; exceeded the 120s budget"
    return CheckResult("kernel-vanishing", ok, detail, elapsed)


# ---------------------------------------------------------------------------
# normalizer closed forms vs quadrature


def check_normalizer() -> CheckResult:
    """D(x) closed forms against the angular quadrature definition."""
    from .inversion import dcoef_quadrature

    t0 = time.perf_counter()
    rng = np.random.default_rng(23)
    n_pts = 20
    worst = 0.0
    worst_at = ""
    for cfg in _families():
        pts = _sample_disc(rng, n_pts, 0.05, cfg.rmax)
        closed = np.asarray(geo.dcoef_closed(cfg.geom, pts))
        quad = np.asarray(dcoef_quadrature(cfg.geom, pts, n_phi=256))
        rel = float(np.max(np.abs(closed - quad) / np.abs(quad)))
        if rel > worst:
            worst, worst_at = rel, cfg.label
    ok = worst <= 1e-8
    detail = f"worst relative difference {worst:.2e} ({worst_at})"
    return CheckResult("normalizer-identity", ok, detail, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# residue formula vs adaptive quadrature


def _periodic_quad(f, rtol=1e-13, n_max=1 << 19) -> float:
    """Doubling midpoint rule on [0, 2pi); geometric convergence for smooth
    periodic integrands, so the tail estimate |I_2n - I_n| is sharp."""
    n = 64
    prev = float(np.mean(f((np.arange(n) + 0.5) * (TAU / n)))) * TAU
    while n < n_max:
        n *= 2
        cur = float(np.mean(f((np.arange(n) + 0.5) * (TAU / n)))) * TAU
        if abs(cur - prev) <= rtol * max(1.0, abs(cur)):
            return cur
        prev = cur
    return cur


def check_residues() -> CheckResult:
    """residue_integral against direct quadrature, plus pinned closed forms."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(37)
    n_cases = 50
    worst = 0.0
    for _ in range(n_cases):
        k = int(rng.integers(1, 5))
        t = TrigPoly(rng.standard_normal(k + 1), np.concatenate([[0.0], rng.standard_normal(k)]))
        ph = (np.arange(720) + 0.5) * (TAU / 720)
        lift = 1.2 * float(np.max(np.abs(t.eval(ph)))) + 0.1
        t = TrigPoly(np.concatenate([[t.a[0] + lift], t.a[1:]]), t.b)
        j = int(rng.integers(0, k + 1))
        s = TrigPoly(rng.standard_normal(j + 1), np.concatenate([[0.0], rng.standard_normal(j)]))
        got = residue_integral(s, t)
        want = _periodic_quad(lambda p: s.eval(p) / t.eval(p))
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    # int dphi / (1 + y^2 cos^2 phi) = 2 pi / sqrt(1 + y^2)
    for y in (0.5, 1.0, 2.0):
        t = TrigPoly([1.0 + y * y / 2.0, 0.0, y * y / 2.0], [0.0, 0.0, 0.0])
        got = residue_integral(TrigPoly([1.0], [0.0]), t)
        want = TAU / np.sqrt(1.0 + y * y)
        worst = max(worst, abs(got - want) / abs(want))
    ok = worst <= 1e-10
    detail = f"{n_cases} random ratios + 3 pinned, worst relative error {worst:.2e}"
    return CheckResult("residue-integral", ok, detail, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# forward exactness


def check_forward() -> CheckResult:
    """Chords of an indicator disc and Gaussian line projections."""
    from .phantom import Disc

    t0 = time.perf_counter()
    radon = geo.GeometryFamily("radon")
    lam = np.linspace(-0.98, 0.98, 50)
    phi = np.arange(8) * (TAU / 8)
    sino = forward_mphi(Phantom((Disc((0.0, 0.0), 1.0),)), radon, lam, phi)
    chord_err = float(np.max(np.abs(sino.data - 2.0 * np.sqrt(1.0 - lam * lam)[None, :])))

    sg = 0.15
    lam_g = np.linspace(-1.0, 1.0, 50)
    sino_g = forward_mphi(Phantom((Gaussian((0.0, 0.0), sg),)), radon, lam_g, phi, rtol=1e-10)
    want = sg * np.sqrt(TAU) * np.exp(-0.5 * (lam_g / sg) ** 2)
    gauss_err = float(np.max(np.abs(sino_g.data - want[None, :])))

    ok = chord_err <= 1e-6 and gauss_err <= 1e-8
    detail = f"chord error {chord_err:.2e}, Gaussian projection error {gauss_err:.2e}"
    return CheckResult("forward-exactness", ok, detail, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# round-trip reconstruction


@dataclass(frozen=True)
class RoundTrip:
    label: str
    geom: geo.GeometryFamily
    phantom: Phantom
    center: tuple
    extent: float
    tol: float


def _round_trips():
    return [
        RoundTrip(
            "radon",
            geo.GeometryFamily("radon"),
            Phantom((Gaussian((0.06, 0.04), 0.15),)),
            (0.0, 0.0),
            0.64,
            0.03,
        ),
        RoundTrip(
            "circle",
            geo.GeometryFamily("ellipse", e1=1.0, e2=1.0, support_radius=0.7),
            Phantom((Gaussian((0.05, 0.03), 0.105),)),
            (0.0, 0.0),
            0.448,
            0.03,
        ),
        RoundTrip(
            "hyperbola",
            geo.GeometryFamily("hyperbola", eps=2.0),
            Phantom((Gaussian((0.06, 0.04), 0.15),)),
            (0.0, 0.0),
            0.64,
            0.03,
        ),
        RoundTrip(
            "equidistant",
            geo.GeometryFamily("equidistant", support_radius=0.4),
            Phantom((Gaussian((0.03, 0.02), 0.06),)),
            (0.0, 0.0),
            0.256,
            0.05,
        ),
        RoundTrip(
            "hgeodesic",
            geo.GeometryFamily("hgeodesic", support_radius=0.7),
            Phantom((Gaussian((0.04, 0.03), 0.105),)),
            (0.0, 0.0),
            0.448,
            0.05,
        ),
        RoundTrip(
            "parabola",
            geo.GeometryFamily("parabola"),
            Phantom((Gaussian((0.55, 0.0), 0.0675),)),
            (0.55, 0.0),
            0.32,
            0.05,
        ),
        RoundTrip(
            "cormack2",
            geo.GeometryFamily("cormack", k=2),
            Phantom((Gaussian((0.55, 0.0), 0.0675), Gaussian((-0.55, 0.0), 0.0675))),
            (0.55, 0.0),
            0.32,
            0.05,
        ),
        RoundTrip(
            "funk",
            geo.GeometryFamily("funk", support_radius=0.8),
            Phantom((Gaussian((0.05, 0.03), 0.12),)),
            (0.0, 0.0),
            0.512,
            0.05,
        ),
    ]


def _run_round_trip(rt: RoundTrip, n_lambda, n_phi, grid_n):
    lam, phi = default_axes(rt.geom, n_lambda, n_phi)
    sino = forward_mphi(rt.phantom, rt.geom, lam, phi, workers=1)
    grid = Grid.centered(grid_n, rt.extent, rt.center)
    rec = invert(sino, grid)
    return rec.rel_l2(rt.phantom.rasterize(grid))


def check_round_trip() -> CheckResult:
    """Reconstruction error of forward-then-invert for every family."""
    t0 = time.perf_counter()
    n_lambda, n_phi, grid_n = 513, 360, 129
    rows = []
    ok = True
    for rt in _round_trips():
        t1 = time.perf_counter()
        err = _run_round_trip(rt, n_lambda, n_phi, grid_n)
        dt = time.perf_counter() - t1
        good = err <= rt.tol and dt <= 90.0
        ok = ok and good
        rows.append(f"{rt.label} {err:.4f}{'' if good else '!'}")
    detail = f"rel_l2 at ({n_lambda},{n_phi},{grid_n}^2): " + ", ".join(rows)
    return CheckResult("round-trip", ok, detail, time.perf_counter() - t0)


def check_convergence() -> CheckResult:
    """rel_l2 must not increase when all resolutions double."""
    t0 = time.perf_counter()
    ladder = [(257, 180, 65), (513, 360, 129), (1025, 720, 257)]
    rows = []
    ok = True
    for rt in _round_trips():
        if rt.label not in ("radon", "circle"):
            continue
        errs = [_run_round_trip(rt, *res) for res in ladder]
        mono = all(b <= a for a, b in zip(errs, errs[1:]))
        ok = ok and mono
        rows.append(f"{rt.label} " + " -> ".join(f"{e:.2e}" for e in errs) + ("" if mono else " !"))
    return CheckResult("convergence", ok, "; ".join(rows), time.perf_counter() - t0)


def check_half_range() -> CheckResult:
    """Reconstructions from [0, pi) and [0, 2pi) data must agree on every
    family whose lambda0 is odd in phi."""
    t0 = time.perf_counter()
    n_lambda, n_phi, grid_n = 257, 180, 65
    rows = []
    ok = True
    for rt in _round_trips():
        if not geo.lambda_harmonics(rt.geom).odd:
            continue
        lam, phi_full = default_axes(rt.geom, n_lambda, n_phi)
        _, phi_half = default_axes(rt.geom, n_lambda, n_phi // 2, half=True)
        grid = Grid.centered(grid_n, rt.extent, rt.center)
        full = invert(forward_mphi(rt.phantom, rt.geom, lam, phi_full, workers=1), grid)
        half = invert(forward_mphi(rt.phantom, rt.geom, lam, phi_half, workers=1), grid)
        err = half.rel_l2(full)
        ok = ok and err <= 1e-6
        rows.append(f"{rt.label} {err:.2e}{'' if err <= 1e-6 else '!'}")
    detail = "half vs full range rel_l2: " + ", ".join(rows)
    return CheckResult("half-range", ok, detail, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# file formats


def check_formats() -> CheckResult:
    """Write-read cycles of both text formats reproduce every bit."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(53)
    issues = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        geom = geo.GeometryFamily("hyperbola", eps=2.0)
        lam, phi = default_axes(geom, 7, 5)
        data = rng.standard_normal((5, 7)) * np.exp(rng.uniform(-300, 20, (5, 7)))
        data[0, 0] = np.pi
        data[1, 1] = -0.0
        data[2, 2] = 1e-317
        sino = Sinogram(geom, lam, phi, data)
        write_fkr1(tmp / "s.fkr", sino)
        back = read_fkr1(tmp / "s.fkr")
        if back.data.tobytes() != sino.data.tobytes():
            issues.append("sinogram data changed")
        if back.lambda_axis.tobytes() != sino.lambda_axis.tobytes():
            issues.append("lambda axis changed")
        if back.geom != sino.geom:
            issues.append("geometry descriptor changed")

        grid = Grid(6, 4, -0.3, 0.1, 0.05)
        vals = rng.standard_normal((6, 4)) * np.exp(rng.uniform(-300, 20, (6, 4)))
        vals[0, 0] = 1e-317
        from .fields import ScalarField

        write_f64grid(tmp / "f.f64", ScalarField(grid, vals))
        field = read_f64grid(tmp / "f.f64")
        if field.values.tobytes() != vals.tobytes():
            issues.append("field values changed")
        if field.grid != grid:
            issues.append("grid header changed")
    ok = not issues
    detail = "both formats bit-identical" if ok else "; ".join(issues)
    return CheckResult("format-round-trip", ok, detail, time.perf_counter() - t0)


CHECKS = (
    check_nucleus,
    check_normalizer,
    check_residues,
    check_forward,
    check_round_trip,
    check_convergence,
    check_half_range,
    check_formats,
)


def run_all(report=None) -> list[CheckResult]:
    """Run every check; call ``report`` with each CheckResult as it lands."""
    results = []
    for check in CHECKS:
        res = check()
        results.append(res)
        if report is not None:
            report(res)
    return results
