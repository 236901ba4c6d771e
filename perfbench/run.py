"""Benchmark of funkradon: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload roundtrip-curved --seed 1 --seconds 28 --trace 0

Run it from the root of a source checkout; it imports the package from
``src`` there, and without it exits non-zero and prints no result.

Set-up time is the median of 8 fresh processes that each import the package
and build the workload's inputs, 4 before and 4 after the measured run. The
measured run is a closed loop in this one process: it repeats the
workload's op set ("round"), ops in sequence, until another round would end
after ``--seconds`` (at least one round; with ``--trace 1`` at least one
untraced and one traced round, alternating). Every op's output is gated; failures are counted, not raised.

The last line of standard output is the result: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``; names and units as in BENCHMARK.json).
Every time is in reference seconds: measured seconds times REF_NOMINAL_S
over the median duration of a fixed numpy kernel, run in each set-up
process before and after the measured loop, so that drift in the speed of a
shared machine cancels; see ``reference_kernel``. Timed layers are reported
per round; ``trace.overhead_s`` is the median traced round minus the median
untraced round of the same run. The line before the result records the run:
raw seconds and kernel durations, sample counts, op-time p95, the worst op,
failures, and the machine (cores, Python, numpy, BLAS threads).
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("roundtrip-curved", "roundtrip-lines", "reconstruct", "kernel-check")
SETUP_PROBES = 4  # before the measured loop, and as many after it
# error/tolerance ratios are clamped to this range before averaging logs, so
# an exact zero or a failed op (infinite ratio) keeps the mean finite
RATIO_FLOOR, RATIO_CEIL = 1e-16, 1e16
# Duration of reference_kernel() on an unloaded 2-vCPU x86-64 VM; timings are
# scaled to a machine that runs the kernel in exactly this time.
REF_NOMINAL_S = 0.12

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_s.p50": "s",
    "rss_peak_mb": "MB",
    "err_over_tol.gmean": "ratio",
}
ROUND_TRIP_LABELS = ("radon", "circle", "hyperbola", "equidistant", "hgeodesic", "parabola", "cormack2", "funk")
LAYER_UNITS = {
    "transform.forward_mphi.s": "s",
    "transform.forward_mphi.self_s": "s",
    "transform.nodes": "count",
    "transform.nodes_per_entry": "count",
    **{f"transform.forward_mphi.s.{label}": "s" for label in ROUND_TRIP_LABELS},
    "transform.write_fkr1.s": "s",
    "transform.read_fkr1.s": "s",
    "transform.fkr1_mb": "MB",
    "phantom.eval.s": "s",
    "phantom.eval.points": "count",
    "phantom.eval.calls": "count",
    "geometry.grad_norm.s": "s",
    "geometry.grad_norm.points": "count",
    "geometry.lambda_of.s": "s",
    "geometry.dcoef_closed.s": "s",
    "geometry.dcoef_closed.points": "count",
    "geometry.trig_difference.s": "s",
    "geometry.psi_branch.s": "s",
    "inversion.pv_filter.s": "s",
    "inversion.pv_filter.peak_mb": "MB",
    "inversion.backproject.s": "s",
    "inversion.backproject.self_s": "s",
    "fields.write_f64grid.s": "s",
    "fields.read_f64grid.s": "s",
    "trigpoly.nucleus_check.s": "s",
    "trigpoly.nucleus_check.self_s": "s",
    "trigpoly.kernel_scale.s": "s",
    "trigpoly.residue_integral.calls": "count",
    "trigpoly.residue_integral.s": "s",
    "trigpoly.roots.calls": "count",
    "trace.overhead_s": "s",
    "failed_ratio": "ratio",
    "err_over_tol.max": "ratio",
}


def import_checkout():
    """Import funkradon from this checkout's ``src``, or exit non-zero."""
    src = ROOT / "src"
    os.environ.pop("FUNKRADON_WORKERS", None)  # one process, whatever the default becomes
    sys.path.insert(0, str(src))
    try:
        import funkradon
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import funkradon from {src}: {exc}")
    if Path(funkradon.__file__).resolve().parent != src / "funkradon":
        sys.exit(f"perfbench: funkradon was imported from {funkradon.__file__}, not from {src}")


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    import numpy as np

    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def reference_kernel() -> float:
    """Seconds taken by a fixed numpy computation that the library never
    touches: the machine's current speed.

    The machines this runs on are shared, and their speed drifts by up to
    40 % over minutes, for this kernel and the library alike. Dividing a
    timing by the kernel's duration measured in the same minute, and
    multiplying by REF_NOMINAL_S, cancels most of that drift (a 1.66x range
    of a forward transform's 5 s medians shrank to 1.22x), so a change to
    the library is not hidden by a change in the machine. It runs only in
    the set-up processes, so it adds nothing to the measured process's RSS.
    """
    import numpy as np

    start = perf_counter()
    x = np.linspace(0.0, 1.0, 1 << 20)
    for _ in range(6):
        x = np.sqrt(np.cos(x) ** 2 + x * x)
        x = x / x.max()
    return perf_counter() - start


def probe_setup(args) -> None:
    """Child process: time importing the package and building the inputs,
    then the reference kernel."""
    start = perf_counter()
    import_checkout()
    import workloads

    workloads.build_ops(args.workload, args.seed, args.size, OUT)
    print(perf_counter() - start, reference_kernel())


def setup_probes(args) -> list[tuple[float, float]]:
    """(set-up seconds, reference kernel seconds) of fresh processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup", "--workload", args.workload]
    cmd += ["--seed", str(args.seed), "--size", args.size]
    probes = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
        setup, ref = map(float, done.stdout.split()[-2:])
        probes.append((setup, ref))
    return probes


class Round:
    def __init__(self, traced: bool):
        self.traced = traced
        self.times = []  # seconds per op
        self.ratios = []  # clamped error/tolerance per op
        self.failures = []  # messages of failed ops

    @property
    def wall(self) -> float:
        return sum(self.times)


def run_round(ops, tracer, index) -> Round:
    from workloads import OP_ERRORS

    rnd = Round(tracer is not None)
    if tracer is not None:
        tracer.install()
    try:
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id, tracer.op_label = f"{index}.{i}", op.label
            start = perf_counter()
            try:
                out = op.work()
            except OP_ERRORS as exc:
                out = exc
            rnd.times.append(perf_counter() - start)
            # gates run untimed, and before the next op, so no output is held
            ratio = math.inf if isinstance(out, BaseException) else op.gate(out)
            rnd.ratios.append(min(max(ratio, RATIO_FLOOR), RATIO_CEIL))
            if not ratio <= 1.0:
                why = f"{type(out).__name__}: {out}" if isinstance(out, BaseException) else f"error/tol {ratio:.3g}"
                rnd.failures.append(f"{op.label}: {why}")
    finally:
        if tracer is not None:
            tracer.restore()
    return rnd


def measure(ops, seconds, tracer) -> list[Round]:
    rounds = []
    start = perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        rounds.append(run_round(ops, tracer if traced else None, len(rounds)))
        elapsed = perf_counter() - start
        if tracer is not None and len(rounds) < 2:
            continue
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def end_to_end(rounds, probes, scale) -> dict:
    plain = [r for r in rounds if not r.traced]
    ratios = [x for r in plain for x in r.ratios]
    return {
        # each probe is scaled by its own kernel run, made right after it
        "setup_s": statistics.median(setup * REF_NOMINAL_S / ref for setup, ref in probes),
        # time of the whole op set, from each op's median over the rounds
        "wall_s": sum(statistics.median(times) for times in zip(*(r.times for r in plain))) * scale,
        "op_s.p50": statistics.median(t for r in plain for t in r.times) * scale,
        "rss_peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "err_over_tol.gmean": math.exp(statistics.fmean(math.log(x) for x in ratios)),
    }


def per_layer(rounds, tracer, scale) -> dict:
    from tracing import FORWARD

    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    n = len(traced)
    per_s = scale / n  # per round, in reference seconds
    sec, own, cnt = tracer.seconds, tracer.self_seconds, tracer.counts
    out = {
        f"{FORWARD}.s": sec[FORWARD] * per_s,
        f"{FORWARD}.self_s": own[FORWARD] * per_s,
        "transform.nodes": cnt["transform.nodes"] / n,
        "transform.nodes_per_entry": cnt["transform.nodes"] / max(cnt["transform.entries"], 1),
        **{f"{FORWARD}.s.{label}": tracer.forward_by_op[label] * per_s for label in ROUND_TRIP_LABELS},
        "transform.fkr1_mb": cnt["transform.fkr1_mb"] / n,
        "inversion.pv_filter.peak_mb": tracer.pv_filter_peak_mb,
        "trace.overhead_s": (statistics.median(r.wall for r in traced) - statistics.median(r.wall for r in plain))
        * scale,
    }
    for name in LAYER_UNITS:
        if name in out:
            continue
        layer, _, stat = name.rpartition(".")
        if stat == "s":
            out[name] = sec[layer] * per_s
        elif stat == "self_s":
            out[name] = own[layer] * per_s
        else:  # calls or points
            out[name] = cnt[name] / n
    return out


def environment() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
        "FUNKRADON_WORKERS": os.environ.get("FUNKRADON_WORKERS"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: smoke-test resolutions")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe_setup:
        probe_setup(args)
        return 0

    import_checkout()
    import workloads
    from tracing import Tracer

    probes = setup_probes(args)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        ops = workloads.build_ops(args.workload, args.seed, args.size, Path(workdir))
        tracer = Tracer() if args.trace else None
        rounds = measure(ops, args.seconds, tracer)
    probes += setup_probes(args)
    scale = REF_NOMINAL_S / statistics.median(ref for _, ref in probes)

    attempted = sum(len(r.times) for r in rounds)
    plain_times = [t for r in rounds if not r.traced for t in r.times]
    p95 = statistics.quantiles(plain_times, n=20, method="inclusive")[-1]
    failures = [f for r in rounds for f in r.failures]
    outcome = {
        "failed_ratio": len(failures) / attempted,
        "err_over_tol.max": max(x for r in rounds for x in r.ratios),
    }
    metrics = {**per_layer(rounds, tracer, scale), **outcome} if tracer else end_to_end(rounds, probes, scale)
    units = LAYER_UNITS if tracer else E2E_UNITS
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "rounds": len(rounds),
        "traced_rounds": sum(r.traced for r in rounds),
        "ops_per_round": len(ops),
        "op_samples": len(plain_times),
        # a tail is meaningful only where >= 10 samples lie beyond it, which
        # kernel-check alone reaches, so p95 is recorded here and not gated
        "op_s.p95": p95,
        "op_samples_beyond_p95": sum(t > p95 for t in plain_times),
        "round_walls_s": [r.wall for r in rounds],
        "reference_scale": scale,
        **outcome,
        "worst_op": ops[max(range(len(ops)), key=lambda i: rounds[0].ratios[i])].label,
        "failures": failures[:10],
        "setup_probes_s": [setup for setup, _ in probes],
        "setup_reference_s": [ref for _, ref in probes],
        "env": environment(),
    }
    if tracer is not None:
        spans = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write_spans(spans)
        info["spans"] = str(spans.relative_to(ROOT))
    print(json.dumps({"info": info}))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
