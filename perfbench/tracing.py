"""Spans and counters recorded around the calls from one hypermle layer into the next.

`Tracer.install` replaces, at run time, the module-level names through which
one layer calls another (e.g. `montecarlo._run_chain`) with timing wrappers,
and `uninstall` puts the originals back.  No file of the program changes.
Spans are kept in memory with their thread and parent and written out when
the round ends; `layer_metrics` turns them into the per-layer figures.
"""
from __future__ import annotations

import json
import os
import threading
import time
from collections import Counter, defaultdict

MIB = 2.0 ** 20

# (module, attribute, span name): each call site the program uses between layers
WRAPPED = [
    ("cli", "load_config", "cli.config"),
    ("cli", "_resolve", "cli.resolve"),
    ("cli", "_manifest", "cli.manifest"),
    ("cli", "cmd_simulate", "cli.simulate"),
    ("cli", "_read_trajectories", "cli.read"),
    ("cli", "psi_curve", "fundamental.psi"),
    ("cli", "simulate_solution", "simulate.solution"),
    ("cli", "run_consistency", "montecarlo.analysis"),
    ("cli", "run_normality", "montecarlo.analysis"),
    ("montecarlo", "psi_curve", "fundamental.psi"),
    ("montecarlo", "run_replicates", "montecarlo.replicates"),
    ("montecarlo", "_mode_task", "montecarlo.mode_task"),
    ("montecarlo", "lambda_mu_slog", "spectrum.eigen"),
    ("montecarlo", "_scaled_transition", "simulate.transition"),
    ("montecarlo", "_psd_factor", "simulate.psd"),
    ("montecarlo", "mode_stream", "simulate.stream"),
    ("montecarlo", "_run_chain", "simulate.chain"),
    ("montecarlo", "_mode_sums", "estimate.sums"),
    ("montecarlo", "_mode_coeffs", "estimate.contrib"),
    ("montecarlo", "_mode_contrib", "estimate.contrib"),
    ("simulate", "simulate_solution", "simulate.solution"),
    ("simulate", "lambda_mu_slog", "spectrum.eigen"),
    ("simulate", "_scaled_transition", "simulate.transition"),
    ("simulate", "_psd_factor", "simulate.psd"),
    ("simulate", "mode_stream", "simulate.stream"),
    ("simulate", "_run_chain", "simulate.chain"),
    ("simulate", "scaled_mode_integrals", "fundamental.integrals"),
    ("simulate", "integrate", "quadrature.integrate"),
    ("estimate", "_accumulate", "estimate.accumulate"),
    ("estimate", "_mode_sums", "estimate.sums"),
    ("estimate", "_mode_coeffs", "estimate.contrib"),
    ("estimate", "_mode_contrib", "estimate.contrib"),
    ("fundamental", "scaled_mode_integrals", "fundamental.integrals"),
    ("fundamental", "integrate", "quadrature.integrate"),
    ("spectrum", "lambda_mu_slog", "spectrum.eigen"),
]

# per-layer metric -> (unit, better), in the order they are reported
LAYERS = {
    "simulate.chain_s": ("s", "lower"),
    "simulate.draw_s": ("s", "lower"),
    "simulate.normals": ("count", "lower"),
    "simulate.stream_s": ("s", "lower"),
    "simulate.streams": ("count", "lower"),
    "simulate.path_steps": ("count", "lower"),
    "simulate.path_mb": ("MiB", "lower"),
    "simulate.transition_s": ("s", "lower"),
    "simulate.psd_s": ("s", "lower"),
    "simulate.solution_s": ("s", "lower"),
    "estimate.sums_s": ("s", "lower"),
    "estimate.contrib_s": ("s", "lower"),
    "estimate.reduced_mb": ("MiB", "lower"),
    "estimate.accumulate_s": ("s", "lower"),
    "fundamental.psi_s": ("s", "lower"),
    "fundamental.psi_modes": ("count", "lower"),
    "fundamental.integrals_s": ("s", "lower"),
    "fundamental.regime_quadrature": ("count", "lower"),
    "fundamental.regime_closed": ("count", "lower"),
    "fundamental.regime_envelope": ("count", "lower"),
    "quadrature.integrate_s": ("s", "lower"),
    "quadrature.calls": ("count", "lower"),
    "quadrature.points": ("count", "lower"),
    "montecarlo.mode_task_s": ("s", "lower"),
    "montecarlo.pool_wall_s": ("s", "lower"),
    "montecarlo.workers": ("count", "higher"),
    "montecarlo.parallel_efficiency": ("ratio", "higher"),
    "montecarlo.replicates_s": ("s", "lower"),
    "montecarlo.reduce_s": ("s", "lower"),
    "montecarlo.analysis_s": ("s", "lower"),
    "cli.config_s": ("s", "lower"),
    "cli.read_s": ("s", "lower"),
    "cli.write_s": ("s", "lower"),
    "cli.read_mb": ("MiB", "lower"),
    "cli.written_mb": ("MiB", "lower"),
    "spectrum.eigen_s": ("s", "lower"),
    "spectrum.eigen_calls": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class _Stream:
    """A random generator whose standard_normal draws are recorded as spans."""

    def __init__(self, tracer, gen):
        self._tracer = tracer
        self._gen = gen

    def standard_normal(self, *args, **kwargs):
        out = self._tracer.call("simulate.draw", self._gen.standard_normal, args, kwargs)
        self._tracer.count("simulate.normals", out.size)
        return out

    def __getattr__(self, name):
        return getattr(self._gen, name)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, thread, start, end, parent index]
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack = None
        self._counts = defaultdict(Counter)  # per thread, so no update is lost
        self.peaks = Counter()
        self._peak_lock = threading.Lock()
        self._saved = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            if threading.get_ident() == self._main:
                self._main_stack = stack
        return stack

    def call(self, name, fn, args, kwargs):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:  # a pool thread: its work was caused by the span open on the main thread
            main = self._main_stack
            parent = main[-1] if main else -1
        span = [name, threading.get_ident(), 0.0, 0.0, parent]
        self.spans.append(span)
        stack.append(len(self.spans) - 1)
        span[2] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            stack.pop()

    def count(self, key, n=1):
        self._counts[threading.get_ident()][key] += n

    def peak(self, key, value):
        with self._peak_lock:
            self.peaks[key] = max(self.peaks[key], value)

    def _observe(self, name, args, kwargs, out):
        """Counts and sizes taken at the layer boundary."""
        if name == "simulate.stream":
            self.count("simulate.streams")
        elif name == "simulate.chain":
            n, _, m = args[2].shape
            self.count("simulate.path_steps", n * m)
            # xi and the mixed noise (n, 3, M), u and v (n + 1, M)
            self.peak("simulate.path_mb", 8 * (6 * n * m + 2 * (n + 1) * m) / MIB)
        elif name == "estimate.sums":
            dw = args[2]
            residual = kwargs.get("residual", False)
            # dv and one product; dwhat and its intermediate with residual sums
            self.peak("estimate.reduced_mb", 8 * dw.size * (4 if residual else 2) / MIB)
        elif name == "fundamental.integrals":
            self.count("fundamental.regime_" + out.regime)
        elif name == "quadrature.integrate":
            self.count("quadrature.calls")
        elif name == "fundamental.psi":
            n_list = args[2] if len(args) > 2 else kwargs["N_list"]
            self.count("fundamental.psi_modes", max(int(n) for n in n_list))
        elif name == "spectrum.eigen":
            self.count("spectrum.eigen_calls")
        elif name == "cli.read":
            self.count("cli.read_bytes", os.path.getsize(args[0]))
        elif name == "montecarlo.replicates":
            self.peak("montecarlo.workers", kwargs.get("workers", 1))

    def _wrapper(self, name, fn):
        tracer = self

        if name == "simulate.stream":
            def wrapped(*args, **kwargs):
                tracer._observe(name, args, kwargs, None)
                return _Stream(tracer, tracer.call(name, fn, args, kwargs))
        elif name == "quadrature.integrate":
            def wrapped(f, *args, **kwargs):
                def counted(x):
                    tracer.count("quadrature.points", x.size)
                    return f(x)
                tracer._observe(name, args, kwargs, None)
                return tracer.call(name, fn, (counted,) + args, kwargs)
        else:
            def wrapped(*args, **kwargs):
                out = tracer.call(name, fn, args, kwargs)
                tracer._observe(name, args, kwargs, out)
                return out
        return wrapped

    def install(self, modules):
        self._stack()  # the caller's thread is the main thread
        for mod, attr, name in WRAPPED:
            target = modules[mod]
            orig = getattr(target, attr)
            self._saved.append((target, attr, orig))
            setattr(target, attr, self._wrapper(name, orig))

    def uninstall(self):
        for target, attr, orig in reversed(self._saved):
            setattr(target, attr, orig)
        self._saved.clear()

    def counts(self):
        total = Counter()
        for c in self._counts.values():
            total.update(c)
        return total

    def dump(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _union(intervals):
    """Total length covered by a set of [start, end] intervals."""
    total, end = 0.0, -float("inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def layer_metrics(tracer, written_bytes):
    """Per-layer figures of one traced round (seconds, counts, MiB, ratio)."""
    spans = tracer.spans
    busy = Counter()
    children = defaultdict(list)
    tasks = defaultdict(list)  # mode tasks of each run_replicates span
    for name, _, start, end, parent in spans:
        busy[name] += end - start
        if parent >= 0:
            children[parent].append((start, end))
            if name == "montecarlo.mode_task":
                tasks[parent].append((start, end))

    def self_time(names):
        total = 0.0
        for i, (name, _, start, end, _) in enumerate(spans):
            if name in names:
                total += (end - start) - _union(children[i])
        return total

    pool_wall = sum(max(b for _, b in t) - min(a for a, _ in t) for t in tasks.values())

    c = tracer.counts()
    workers = tracer.peaks["montecarlo.workers"]
    out = {
        "simulate.chain_s": busy["simulate.chain"],
        "simulate.draw_s": busy["simulate.draw"],
        "simulate.normals": c["simulate.normals"],
        "simulate.stream_s": busy["simulate.stream"],
        "simulate.streams": c["simulate.streams"],
        "simulate.path_steps": c["simulate.path_steps"],
        "simulate.path_mb": tracer.peaks["simulate.path_mb"],
        "simulate.transition_s": busy["simulate.transition"],
        "simulate.psd_s": busy["simulate.psd"],
        "simulate.solution_s": busy["simulate.solution"],
        "estimate.sums_s": busy["estimate.sums"],
        "estimate.contrib_s": busy["estimate.contrib"],
        "estimate.reduced_mb": tracer.peaks["estimate.reduced_mb"],
        "estimate.accumulate_s": busy["estimate.accumulate"],
        "fundamental.psi_s": busy["fundamental.psi"],
        "fundamental.psi_modes": c["fundamental.psi_modes"],
        "fundamental.integrals_s": busy["fundamental.integrals"],
        "fundamental.regime_quadrature": c["fundamental.regime_quadrature"],
        "fundamental.regime_closed": c["fundamental.regime_closed"],
        "fundamental.regime_envelope": c["fundamental.regime_envelope"],
        "quadrature.integrate_s": busy["quadrature.integrate"],
        "quadrature.calls": c["quadrature.calls"],
        "quadrature.points": c["quadrature.points"],
        "montecarlo.mode_task_s": busy["montecarlo.mode_task"],
        "montecarlo.pool_wall_s": pool_wall,
        "montecarlo.workers": workers,
        "montecarlo.parallel_efficiency": (
            busy["montecarlo.mode_task"] / (workers * pool_wall) if pool_wall > 0 else 0.0),
        "montecarlo.replicates_s": busy["montecarlo.replicates"],
        "montecarlo.reduce_s": self_time({"montecarlo.replicates"}),
        "montecarlo.analysis_s": self_time({"montecarlo.analysis"}),
        "cli.config_s": busy["cli.config"],
        "cli.read_s": busy["cli.read"],
        # the trajectory CSV loop is the only code of cmd_simulate outside its calls
        "cli.write_s": self_time({"cli.simulate"}),
        "cli.read_mb": c["cli.read_bytes"] / MIB,
        "cli.written_mb": written_bytes / MIB,
        "spectrum.eigen_s": busy["spectrum.eigen"],
        "spectrum.eigen_calls": c["spectrum.eigen_calls"],
    }
    return out
