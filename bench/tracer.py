"""Outside-in tracer for fiq's layer boundaries.

The traced run wraps the public functions listed in TRACED in every fiq
namespace that binds them (``cli`` and ``experiments`` import them by name,
and ``experiments.RUNNERS`` holds runner references), records one span per
call in memory, and restores the originals afterwards.  Nothing inside fiq
is changed: spans measure the calls from outside, and the work counts in
COMPUTED_COUNTS are computed from call arguments, not counted by fiq.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from statistics import median

# (span name, module, function); several functions may share one span name.
TRACED = (
    ("randombits.uniform64_grid", "fiq.randombits", "uniform64_grid"),
    ("models.sample_matrix", "fiq.models", "sample_matrix"),
    ("models.exact_window_joint", "fiq.models", "exact_window_joint"),
    ("arithmetic.scaled_digit_table", "fiq.arithmetic", "scaled_digit_table"),
    ("arithmetic.scale_fiq_truncated", "fiq.arithmetic", "scale_fiq_truncated"),
    ("arithmetic.prefix_values", "fiq.arithmetic", "prefix_values"),
    ("estimators.mi_matrix", "fiq.estimators", "mi_matrix"),
    ("estimators.pairwise_mi", "fiq.estimators", "pairwise_mi"),
    ("estimators.block_entropy", "fiq.estimators", "block_entropy"),
    ("estimators.info_report", "fiq.estimators", "info_report"),
    ("estimators.correlation_report", "fiq.estimators", "correlation_report"),
    ("estimators.correlated_info_content", "fiq.estimators", "correlated_info_content"),
    ("experiments.runner", "fiq.experiments", "run_units_critique"),
    ("experiments.runner", "fiq.experiments", "run_majority_study"),
    ("experiments.runner", "fiq.experiments", "run_units_on_majority"),
    ("experiments.consumed_source_indices", "fiq.experiments", "consumed_source_indices"),
    ("cli.command", "fiq.cli", "cmd_sample"),
    ("cli.command", "fiq.cli", "cmd_measure"),
    ("cli.command", "fiq.cli", "cmd_arith"),
    ("cli.command", "fiq.cli", "cmd_experiment"),
    ("cli.write", "fiq.cli", "_write_atomic"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in TRACED))

# span name -> (count name, work of one call computed from its bound arguments)
COMPUTED_COUNTS = {
    "randombits.uniform64_grid": ("randombits.uniforms", lambda a: len(a["stream_ids"]) * a["count"]),
    "models.sample_matrix": ("models.sample_bits", lambda a: a["n_samples"] * a["depth"]),
    "arithmetic.scaled_digit_table": ("arithmetic.table_entries", lambda a: 1 << a["depth"]),
    # fiq writes ASCII only, so the payload's length in characters is its size in bytes
    "cli.write": ("cli.bytes_written", lambda a: len(a["data"])),
}

RATES = {
    "randombits.ns_per_uniform":
        lambda v: 1e9 * v["randombits.uniform64_grid.s"] / v["randombits.uniforms"],
    "cli.write_mb_per_s":
        lambda v: v["cli.bytes_written"] / v["cli.write.s"] / 1e6,
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 for none


class Tracer:
    """Spans and computed counts of one traced command sequence."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        """``fn`` with a span per call; arguments, result and exceptions pass through."""
        count = COMPUTED_COUNTS.get(name)
        signature = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, self._open[-1] if self._open else -1)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if count:
                key, work = count
                bound = signature.bind(*args, **kwargs).arguments
                self.counts[key] = self.counts.get(key, 0) + work(bound)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every fiq namespace binding a TRACED function; restore on exit."""
        namespaces = _fiq_namespaces()
        patched = []
        for name, module, attr in TRACED:
            original = getattr(sys.modules[module], attr)
            wrapper = self.wrap(name, original)
            for ns in namespaces:
                for key, value in list(ns.items()):
                    if value is original:
                        ns[key] = wrapper
                        patched.append((ns, key, original))
        try:
            yield
        finally:
            for ns, key, original in reversed(patched):
                ns[key] = original

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: calls, inclusive seconds, and self seconds (minus traced children)."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                covered[span.parent] += span.end - span.start
        out: dict[str, tuple[int, float, float]] = {}
        for span, child in zip(self.spans, covered):
            calls, incl, own = out.get(span.name, (0, 0.0, 0.0))
            dur = span.end - span.start
            out[span.name] = (calls + 1, incl + dur, own + dur - child)
        return out

    def values(self) -> dict[str, float]:
        """``<span>.calls``, ``.s`` and ``.self_s`` for every span name, the counts and their rates."""
        totals = self.totals()
        values: dict[str, float] = {key: 0 for key, _ in COMPUTED_COUNTS.values()}
        values.update(self.counts)
        for name in SPAN_NAMES:
            calls, incl, own = totals.get(name, (0, 0.0, 0.0))
            values.update({f"{name}.calls": calls, f"{name}.s": incl, f"{name}.self_s": own})
        for rate, formula in RATES.items():
            try:
                values[rate] = formula(values)
            except ZeroDivisionError:
                pass  # the layer never ran; the caller decides whether that is an error
        return values

    def spans_jsonable(self) -> list[dict]:
        t0 = self.spans[0].start if self.spans else 0.0
        return [
            {"name": s.name, "start": s.start - t0, "end": s.end - t0, "parent": s.parent}
            for s in self.spans
        ]


def _fiq_namespaces() -> list[dict]:
    """Globals of every loaded fiq module, plus the module-level dicts they hold."""
    namespaces = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "fiq" and not mod_name.startswith("fiq."):
            continue
        ns = vars(module)
        namespaces.append(ns)
        namespaces.extend(v for k, v in ns.items() if isinstance(v, dict) and not k.startswith("__"))
    return namespaces


def median_values(runs: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Median of each value over traced sequences, and the counts that did not repeat exactly."""
    counts = [f"{name}.calls" for name in SPAN_NAMES] + [k for k, _ in COMPUTED_COUNTS.values()]
    unsteady = [k for k in counts if any(r[k] != runs[0][k] for r in runs)]
    return {k: median(r[k] for r in runs) for k in runs[0]}, unsteady
