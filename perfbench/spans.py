"""Span recording around the calls into each kquad layer.

A ``Recorder`` keeps spans (name, start, end, parent, call id) and counters
in memory.  ``installed(recorder)`` swaps each public kquad function for a
recording wrapper at the attribute its caller looks it up through (the
module attribute, or the class method for kernels) and restores the
originals on exit.  Wrappers only observe arguments and results, so a
traced call computes bitwise the same estimate as an untraced one.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

import kquad.cli
import kquad.controller
import kquad.harness
import kquad.quadrature
import kquad.smc
from kquad.kernels import GaussianKernel, SteinKernel


class Recorder:
    """Spans and counters of one benchmark process, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, call]
        self.counts: Counter = Counter()
        self.call = -1
        self._stack: list[int] = []

    def next_call(self) -> int:
        self.call += 1
        return self.call

    @contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), None,
               self._stack[-1] if self._stack else -1, self.call]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        """fn inside a span; then count(counts, arguments, result, exc).

        arguments maps fn's parameter names to the values of the call.
        """
        if count is None:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                with self.span(name):
                    return fn(*args, **kwargs)
            return traced
        signature = inspect.signature(fn)

        def arguments(args, kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return bound.arguments

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            try:
                with self.span(name):
                    out = fn(*args, **kwargs)
            except Exception as exc:
                count(self.counts, arguments(args, kwargs), None, exc)
                raise
            count(self.counts, arguments(args, kwargs), out, None)
            return out
        return counted

    def extend(self, spans, counts, call: int) -> None:
        """Merge spans and counts recorded by another process."""
        offset = len(self.spans)
        for name, start, end, parent, _ in spans:
            self.spans.append([name, start, end,
                               parent + offset if parent >= 0 else -1, call])
        self.counts.update(counts)

    def dump(self, path) -> None:
        blob = {"fields": ["name", "start", "end", "parent", "call"],
                "spans": self.spans, "counts": dict(self.counts)}
        with open(path, "w") as fh:
            json.dump(blob, fh)

    @staticmethod
    def load(path):
        with open(path) as fh:
            blob = json.load(fh)
        return blob["spans"], Counter(blob["counts"])


# -- counters at the layer boundaries ---------------------------------------

def _count_gram(counts, a, out, exc):
    if exc is None:
        counts["kernels.gram_calls"] += 1
        counts["kernels.gram_entries"] += out.size


def _count_chol(counts, a, out, exc):
    # attempts are the rung of the returned jitter on the policy's ladder
    K, policy = a["K"], a["policy"]
    ladder = policy.ladder()
    counts["quadrature.chol_calls"] += 1
    if exc is not None:
        counts["quadrature.chol_attempts"] += len(ladder)
        counts["quadrature.chol_failed_attempts"] += len(ladder)
        return
    scale = float(np.trace(K)) / K.shape[0] if policy.scale_by_trace else 1.0
    rung = [jitter * scale for jitter in ladder].index(out[1])
    counts["quadrature.chol_ok"] += 1
    counts["quadrature.chol_attempts"] += rung + 1
    counts["quadrature.chol_failed_attempts"] += rung


def _count_sbq(counts, a, out, exc):
    m = np.asarray(a["candidates"]).shape[0]
    counts["quadrature.sbq_candidates_scored"] += sum(
        m - k for k in range(1, a["n"]))


def _count_step(counts, a, out, exc):
    counts["smc.steps"] += 1


def _count_resample(counts, a, out, exc):
    counts["smc.resamples"] += 1


def _count_move(counts, a, out, exc):
    if exc is None:
        moved = np.any(out.states != a["system"].states, axis=1)
        counts["smc.move_rows"] += moved.shape[0]
        counts["smc.move_accepted"] += int(moved.sum())


def _count_bootstrap(counts, a, out, exc):
    counts["controller.bootstrap_subsets"] += a["m_boot"]


def _count_fit(counts, a, out, exc):
    counts["controller.kern_param_fit_calls"] += 1


def _count_objective(counts, a, out, exc):
    counts["controller.ml_objective_calls"] += 1
    if exc is not None or not np.isfinite(out):
        counts["controller.ml_objective_failed"] += 1


def _count_chain(counts, a, out, exc):
    counts["problems.chain_steps"] += a["chain_length"]


def counted_rows(recorder: Recorder, name: str, fn):
    """Benchmark-owned callable (integrand, log target, score) in a span."""
    def count(counts, a, out, exc):
        counts[name + "_calls"] += 1
        counts[name + "_rows"] += np.asarray(a["X"]).shape[0]
    return recorder.wrap(name, fn, count)


# (owner, attribute, span name, counter): each function is wrapped where
# its caller looks it up.
_TARGETS = [
    (GaussianKernel, "gram", "kernels.gaussian_gram", _count_gram),
    (SteinKernel, "gram", "kernels.stein_gram", _count_gram),
    (kquad.quadrature, "chol_factor_with_nugget", "quadrature.chol",
     _count_chol),
    (kquad.controller, "chol_factor_with_nugget", "quadrature.chol",
     _count_chol),
    (kquad.controller, "kq_fit", "quadrature.kq_fit", None),
    (kquad.harness, "kq_fit", "quadrature.kq_fit", None),
    (kquad.harness, "sbq_greedy_select", "quadrature.sbq_select", _count_sbq),
    (kquad.controller, "init_particles", "smc.init", None),
    (kquad.controller, "next_temperature", "smc.next_temperature", None),
    (kquad.controller, "smc_step", "smc.step", _count_step),
    (kquad.smc, "resample_multinomial", "smc.resample", _count_resample),
    (kquad.smc, "markov_move", "smc.markov_move", _count_move),
    (kquad.controller, "_bootstrap_error", "controller.bootstrap",
     _count_bootstrap),
    (kquad.controller, "kern_param_fit", "controller.kern_param_fit",
     _count_fit),
    (kquad.harness, "kern_param_fit", "controller.kern_param_fit",
     _count_fit),
    (kquad.controller, "marginal_likelihood_objective",
     "controller.ml_objective", _count_objective),
    (kquad.harness, "posterior_benchmark", "problems.chain", _count_chain),
    (kquad.cli, "run", "harness.run", None),
    (kquad.cli, "run_benchmark", "harness.run_benchmark", None),
]


@contextmanager
def installed(recorder: Recorder):
    """Route every target through the recorder for the duration."""
    saved = [(owner, attr, owner.__dict__[attr])
             for owner, attr, _, _ in _TARGETS]
    try:
        for owner, attr, name, count in _TARGETS:
            setattr(owner, attr, recorder.wrap(name, getattr(owner, attr),
                                               count))
        yield recorder
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


# -- per-layer metrics -------------------------------------------------------

def busy_seconds(spans) -> Counter:
    """Summed duration per span name."""
    out = Counter()
    for name, start, end, _, _ in spans:
        out[name] += end - start
    return out


def self_seconds(spans, name: str) -> float:
    """Duration of the named spans minus their direct children's."""
    own = {i for i, span in enumerate(spans) if span[0] == name}
    total = sum(spans[i][2] - spans[i][1] for i in own)
    children = sum(end - start for _, start, end, parent, _ in spans
                   if parent in own)
    return total - children
