"""Per-layer tracing from outside the library.

``Tracer.install`` replaces each traced public function with a wrapper, at
the name its caller looks it up under, and ``restore`` puts the originals
back. ``dcoef_closed`` calls ``residue_integral`` through the geometry
module's namespace, so that is where the trigpoly function is wrapped; the
trigpoly ladder imports ``trig_difference`` and ``psi_branch`` from the
geometry module at call time, so wrapping them there catches those calls.

Each call becomes a span (id, name, start, end, parent id, op id). Self time
is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import tracemalloc
from collections import defaultdict
from time import perf_counter

import numpy as np

from funkradon import fields, geometry, inversion, phantom, transform, trigpoly

FORWARD = "transform.forward_mphi"


def _points(x) -> int:
    return int(np.size(x)) // 2


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id, op id)
        self.seconds = defaultdict(float)  # name -> summed duration
        self.self_seconds = defaultdict(float)
        self.counts = defaultdict(float)  # calls, points, nodes, entries, file sizes
        self.forward_by_op = defaultdict(float)  # op label -> forward seconds
        self.pv_filter_peak_mb = 0.0
        self.op_id = None
        self.op_label = None
        self._stack = []  # open spans: [id, name, children seconds]
        self._ids = itertools.count()
        self._patched = []

    def _wrap(self, name, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            parent = tracer._stack[-1] if tracer._stack else None
            frame = [next(tracer._ids), name, 0.0]
            tracer._stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                dur = end - start
                if parent is not None:
                    parent[2] += dur
                tracer.spans.append((frame[0], name, start, end, parent[0] if parent else None, tracer.op_id))
                tracer.seconds[name] += dur
                tracer.self_seconds[name] += dur - frame[2]
                tracer.counts[name + ".calls"] += 1
                if name == FORWARD:
                    tracer.forward_by_op[tracer.op_label] += dur
                if after is not None:
                    after(args)

        return wrapper

    def _in_forward(self) -> bool:
        return any(f[1] == FORWARD for f in self._stack)

    def _count_eval(self, args):
        n = _points(args[1])
        self.counts["phantom.eval.points"] += n
        if self._in_forward():
            self.counts["transform.nodes"] += n

    def _count_forward(self, args):
        self.counts["transform.entries"] += np.size(args[2]) * np.size(args[3])

    def _count(self, key, arg):
        def count(args):
            self.counts[key] += _points(args[arg])

        return count

    def _file_mb(self, key):
        def after(args):
            self.counts[key] += os.path.getsize(args[0]) / 1e6

        return after

    def _pv_filter(self, fn):
        # tracemalloc sees numpy's buffers; run it only around the filter so
        # the other layers are not slowed by allocation tracking
        @functools.wraps(fn)
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.pv_filter_peak_mb = max(self.pv_filter_peak_mb, peak / 1e6)

        return measured

    def install(self):
        """Wrap every traced layer function; call ``restore`` to undo."""
        targets = [
            (transform, "forward_mphi", FORWARD, self._count_forward, None),
            (transform, "write_fkr1", "transform.write_fkr1", None, self._file_mb("transform.fkr1_mb")),
            (transform, "read_fkr1", "transform.read_fkr1", None, None),
            (phantom.Phantom, "eval", "phantom.eval", self._count_eval, None),
            (geometry, "grad_norm", "geometry.grad_norm", self._count("geometry.grad_norm.points", 1), None),
            (geometry, "lambda_of", "geometry.lambda_of", None, None),
            (geometry, "dcoef_closed", "geometry.dcoef_closed", self._count("geometry.dcoef_closed.points", 1), None),
            (geometry, "trig_difference", "geometry.trig_difference", None, None),
            (geometry, "psi_branch", "geometry.psi_branch", None, None),
            (geometry, "residue_integral", "trigpoly.residue_integral", None, None),
            (inversion, "pv_filter", "inversion.pv_filter", None, None),
            (inversion, "backproject", "inversion.backproject", None, None),
            (fields, "write_f64grid", "fields.write_f64grid", None, None),
            (fields, "read_f64grid", "fields.read_f64grid", None, None),
            (trigpoly, "nucleus_check", "trigpoly.nucleus_check", None, None),
            (trigpoly, "kernel_scale", "trigpoly.kernel_scale", None, None),
            (trigpoly, "roots", "trigpoly.roots", None, None),
        ]
        for owner, attr, name, before, after in targets:
            fn = getattr(owner, attr)
            self._patched.append((owner, attr, fn))
            if name == "inversion.pv_filter":
                fn = self._pv_filter(fn)
            setattr(owner, attr, self._wrap(name, fn, before, after))

    def restore(self):
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def write_spans(self, path):
        """Write the spans as JSON lines, once measuring is over."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(("id", "name", "start", "end", "parent", "op"), span))) + "\n")
