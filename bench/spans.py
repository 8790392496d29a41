"""Span recorder and the benchmark's statistics rules.

Spans are recorded from the benchmark's own files, around the calls into
each layer's public functions; nothing inside ``src/repro`` is touched.
A span is ``{"id", "name", "layer", "start", "end", "parent", "op"}``;
spans of one operation share its ``op`` id.  They are kept in memory and
written out once, when the traced run ends.

Self time of a span = its duration minus the part of it that its direct
children cover.  The root span of every operation has layer ``bench``;
its self time is wall time that no layer span covers.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Sequence

#: Layer of an operation's root span (the benchmark's own time).
ROOT_LAYER = "bench"

#: Tail percentiles the report may quote, lowest first, each with the
#: sample count from which ten samples lie beyond it.
TAIL_PERCENTILES = ((90.0, 100), (95.0, 200), (99.0, 1000), (99.9, 10000))


class Recorder:
    """In-memory span recorder; :meth:`span` nests through a stack."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._stack: List[dict] = []
        self._ops = 0

    @contextmanager
    def op(self, name: str, **attrs):
        """Root span of one operation; child spans inherit its op id."""
        self._ops += 1
        with self.span(name, ROOT_LAYER, op=self._ops, **attrs) as span:
            yield span

    @contextmanager
    def span(self, name: str, layer: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        span = {"id": len(self.spans), "name": name, "layer": layer,
                "parent": parent["id"] if parent else None,
                "op": attrs.pop("op", parent["op"] if parent else None),
                **attrs, "start": 0.0, "end": 0.0}
        self.spans.append(span)
        self._stack.append(span)
        span["start"] = time.perf_counter()
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    def write_jsonl(self, fh, **common) -> None:
        for span in self.spans:
            fh.write(json.dumps({**common, **span}, sort_keys=True) + "\n")


class NullRecorder:
    """The tracing-off recorder: every span is a no-op."""

    enabled = False

    @contextmanager
    def op(self, name: str, **attrs):
        yield None

    @contextmanager
    def span(self, name: str, layer: str, **attrs):
        yield None


def read_jsonl(path: str) -> List[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: Sequence[dict]) -> Dict[int, float]:
    """``span id -> self seconds`` (duration minus direct children)."""
    out = {span["id"]: duration(span) for span in spans}
    for span in spans:
        if span["parent"] is not None and span["parent"] in out:
            out[span["parent"]] -= duration(span)
    return out


def layer_self_seconds(spans: Sequence[dict]) -> Dict[str, float]:
    """Self time summed per layer."""
    own = self_times(spans)
    out: Dict[str, float] = {}
    for span in spans:
        out[span["layer"]] = out.get(span["layer"], 0.0) + own[span["id"]]
    return out


def attributed(spans: Sequence[dict]) -> List[dict]:
    """Spans of the operations whose root span is marked ``attributed``:
    the ones decomposed into layer spans, which self-time shares and the
    uncovered ratio are computed over."""
    roots = {s["op"] for s in spans
             if s["parent"] is None and s.get("attributed")}
    return [s for s in spans if s["op"] in roots]


def layer_share_pct(spans: Sequence[dict]) -> Dict[str, float]:
    """Self time per layer as a percentage of the root spans' wall time."""
    total = sum(duration(s) for s in spans if s["parent"] is None)
    return {layer: 100.0 * seconds / total
            for layer, seconds in layer_self_seconds(spans).items()}


def uncovered_ratio(spans: Sequence[dict]) -> float:
    """Worst operation's share of wall time that no layer span covers."""
    own = self_times(spans)
    worst = 0.0
    for span in spans:
        if span["layer"] == ROOT_LAYER and duration(span) > 0:
            worst = max(worst, own[span["id"]] / duration(span))
    return worst


def durations_named(spans: Iterable[dict], name: str) -> List[float]:
    return [duration(s) for s in spans if s["name"] == name]


# ----------------------------------------------------------------------
# statistics rules
# ----------------------------------------------------------------------
def percentile(samples: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of ``samples`` (``pct`` in 0..100)."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * pct / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail_percentile(n: int) -> Optional[float]:
    """Highest quotable tail percentile for ``n`` samples, or ``None``.

    A percentile is quotable only when at least ten samples lie beyond
    it, so p90 needs 100 samples, p99 needs 1000.
    """
    best = None
    for pct, needed in TAIL_PERCENTILES:
        if n >= needed:
            best = pct
    return best


def summarize(samples: Sequence[float]) -> dict:
    """Median, sample count and the quotable tail of ``samples``."""
    out = {"n": len(samples), "p50": statistics.median(samples),
           "tail_pct": None, "tail": None}
    pct = tail_percentile(len(samples))
    if pct is not None:
        out["tail_pct"] = pct
        out["tail"] = percentile(samples, pct)
    return out


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between first and third quartile as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return abs(q3 - q1) / abs(med) if med else float("inf")
