"""Command-line entry point.

Five subcommands cover the pipeline: ``forward`` synthesizes sinogram files,
``invert`` reconstructs fields from them, ``kernel-check`` and ``dcoef``
verify the two analytic identities the inversion rests on, and ``selftest``
runs the whole verification battery.

Exit codes: 0 success, 1 a verification reported FAIL, 2 usage or parse
error or a refused input (a divergent row, say), 3 numerical failure
(coverage, windowing).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import acceptance
from . import geometry as geo
from .fields import Grid, ScalarField, write_f64grid, write_pgm
from .inversion import (
    CoverageError,
    WindowingError,
    dcoef_quadrature,
    invert,
    reconstruct_riemann,
)
from .phantom import parse_phantom
from .transform import (
    default_axes,
    forward_mphi,
    forward_riemann,
    read_fkr1,
    write_fkr1,
)
from .trigpoly import distinct_points, kernel_scale, nucleus_check, nucleus_zeros


def _parse_pair(text, flag):
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"{flag} expects two comma-separated numbers, got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise ValueError(f"non-numeric value in {flag}: {text!r}") from None


def cmd_forward(args) -> int:
    if args.nlambda < 8 or args.nphi < 8:
        raise ValueError("resolutions must be at least 8")
    geom = geo.parse_geometry(args.geometry)
    phantom = parse_phantom(args.phantom)
    lam, phi = default_axes(geom, args.nlambda, args.nphi, half=args.half)
    fwd = forward_riemann if args.riemann else forward_mphi
    sino = fwd(phantom, geom, lam, phi, rtol=args.rtol, workers=args.workers)
    write_fkr1(args.out, sino)
    print(f"wrote {args.out}: {geo.descriptor(geom)}, {sino.n_phi} x {sino.n_lambda} ({sino.kind})")
    peak = float(np.max(np.abs(sino.data)))
    print(f"lambda range [{lam[0]:g}, {lam[-1]:g}], max entry {peak:.6f}")
    return 0


def cmd_invert(args) -> int:
    if args.grid_n < 8:
        raise ValueError("resolutions must be at least 8")
    sino = read_fkr1(args.infile)
    extent = args.extent if args.extent is not None else 0.64 * sino.geom.support_radius
    if not (extent > 0):
        raise ValueError("--extent must be positive")
    grid = Grid.centered(args.grid_n, extent, _parse_pair(args.center, "--center"))
    if args.riemann and sino.kind != "riemann":
        raise ValueError("--riemann asks for arc-length reconstruction but the file holds mphi data")
    if sino.kind == "riemann":
        rec = reconstruct_riemann(sino, grid)
    else:
        rec = invert(sino, grid)
    write_f64grid(args.out, rec)
    lo, hi = float(rec.values.min()), float(rec.values.max())
    print(f"wrote {args.out}: {grid.nx} x {grid.ny} field, values in [{lo:.6g}, {hi:.6g}]")
    if args.pgm:
        write_pgm(args.pgm, rec)
        print(f"wrote {args.pgm}")
    if args.phantom:
        # data on k parameter sheets (cormack) determine only the k-fold average
        k, ph, pts = int(sino.geom.record.sheets(sino.geom)), parse_phantom(args.phantom), grid.points()
        ref = ScalarField(grid, np.mean([ph.eval(pts, 2.0 * np.pi * m / k) for m in range(k)], axis=0))
        average = f" (against its {k}-fold rotational average)" if k > 1 else ""
        print(f"rel_l2 vs phantom: {rec.rel_l2(ref):.6f}{average}")
    return 0


def cmd_kernel_check(args) -> int:
    geom = geo.parse_geometry(args.geometry)
    if args.pairs < 1:
        raise ValueError("--pairs must be at least 1")
    if not 0.0 < args.tol < np.inf:
        raise ValueError(f"--tol must be positive and finite, got {args.tol}")
    rng = np.random.default_rng(args.seed)
    rmax = geom.support_radius
    worst = 0.0
    worst_ratio = 0.0
    ok = True
    for i in range(args.pairs):
        x, y = acceptance._sample_disc(rng, 2, 0.05 * rmax, rmax)
        while not distinct_points(x, y):
            y = acceptance._sample_disc(rng, 1, 0.05 * rmax, rmax)[0]
        try:
            est = nucleus_check(geom, x, y)
        except ValueError as exc:
            print(f"pair {i:3d} x=({x[0]:+.4f},{x[1]:+.4f}) y=({y[0]:+.4f},{y[1]:+.4f})  error: {exc}")
            ok = False
            continue
        tol = args.tol * max(1.0, kernel_scale(geom, x, y) ** 2)
        good = abs(est) <= tol
        ok = ok and good
        worst = max(worst, abs(est))
        worst_ratio = max(worst_ratio, abs(est) / tol)
        print(
            f"pair {i:3d} x=({x[0]:+.4f},{x[1]:+.4f}) y=({y[0]:+.4f},{y[1]:+.4f})  "
            f"zeros [{nucleus_zeros(geom, x, y)}]  N = {est:+.3e}{'' if good else '  (over tolerance)'}"
        )
    print(f"max |N| = {worst:.3e} over {args.pairs} pairs (worst {worst_ratio:.2e} of tolerance)")
    if not geom.kernel_condition_ok:
        print(
            "support condition violated: exactness needs ‖y+x‖*ₑ<2 "
            "on the support, i.e. support_radius < min(e1, e2)"
        )
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_dcoef(args) -> int:
    geom = geo.parse_geometry(args.geometry)
    if args.points < 1:
        raise ValueError("--points must be at least 1")
    if not 0.0 < args.tol < np.inf:
        raise ValueError(f"--tol must be positive and finite, got {args.tol}")
    rng = np.random.default_rng(args.seed)
    rmax = geom.record.dcoef_radius(geom)
    pts = acceptance._sample_disc(rng, args.points, 0.05 * rmax, rmax)
    worst = 0.0
    for x in pts:
        closed = float(geo.dcoef_closed(geom, x))
        quad = float(dcoef_quadrature(geom, x, n_phi=args.nphi))
        rel = abs(closed - quad) / abs(quad)
        worst = max(worst, rel)
        print(
            f"x = ({x[0]:+.4f}, {x[1]:+.4f})  closed {closed:.12e}  "
            f"quadrature {quad:.12e}  rel {rel:.2e}"
        )
    ok = worst <= args.tol
    print(f"max relative difference {worst:.2e} (tolerance {args.tol:g})")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_selftest(args) -> int:
    results = acceptance.run_all(report=lambda r: print(r.line(), flush=True))
    n_pass = sum(r.passed for r in results)
    print(f"{n_pass}/{len(results)} checks passed")
    return 0 if n_pass == len(results) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="funkradon",
        description="Curve-integral transforms over plane families and their exact inversion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("forward", help="integrate a phantom over a curve family")
    p.add_argument("--geometry", required=True, help="family descriptor, e.g. radon:support=1.0")
    p.add_argument("--phantom", required=True, help="phantom descriptor, e.g. gauss:0,0,0.2,1")
    p.add_argument("--nlambda", type=int, default=513, help="number of lambda samples")
    p.add_argument("--nphi", type=int, default=360, help="number of phi samples")
    p.add_argument("--half", action="store_true", help="cover phi in [0, pi) (families with lambda0 odd in phi)")
    p.add_argument("--riemann", action="store_true", help="write plain arc-length data")
    p.add_argument("--rtol", type=float, default=1e-8, help="quadrature tolerance")
    p.add_argument("--workers", type=int, default=1, help="process count (default: 1)")
    p.add_argument("--out", required=True, help="output sinogram file")
    p.set_defaults(func=cmd_forward)

    p = sub.add_parser("invert", help="reconstruct a field from a sinogram file")
    p.add_argument("--in", dest="infile", required=True, help="input sinogram file")
    p.add_argument("--out", required=True, help="output field file")
    p.add_argument("--pgm", default=None, help="also write an 8-bit preview image")
    p.add_argument("--grid-n", type=int, default=129, help="reconstruction grid size")
    p.add_argument("--extent", type=float, default=None, help="grid half-extent (default 0.64 * support)")
    p.add_argument("--center", default="0,0", help="grid center as cx,cy")
    p.add_argument("--phantom", default=None, help="reference phantom for an error report")
    p.add_argument("--riemann", action="store_true", help="require the arc-length reconstruction path")
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("kernel-check", help="verify that the pair kernel vanishes")
    p.add_argument("--geometry", required=True)
    p.add_argument("--pairs", type=int, default=20, help="number of random point pairs")
    p.add_argument("--tol", type=float, default=1e-4, help="tolerance per unit slope scale")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_kernel_check)

    p = sub.add_parser("dcoef", help="compare closed-form and quadrature normalizers")
    p.add_argument("--geometry", required=True)
    p.add_argument("--points", type=int, default=5, help="number of random sample points")
    p.add_argument("--nphi", type=int, default=256, help="quadrature resolution")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_dcoef)

    p = sub.add_parser("selftest", help="run the verification battery")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CoverageError, WindowingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
