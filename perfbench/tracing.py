"""In-memory spans around the calls the pipeline makes into each layer.

`instrument` swaps the public functions that `run_trial` and set-up call,
as attributes of their dbmatch modules, for timing wrappers, and puts the
originals back on exit; the orchestration itself runs unchanged.  Each
span records its name, start, end, the span that caused it and the trial
it belongs to.  Work counts are computed from argument and result shapes
after the span has ended, so they add nothing to the layer's own span.

The pipeline runs with threads=1, so no call ever waits for another:
waiting time is zero by construction and is not reported.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import math
import time
from collections import Counter
from dataclasses import dataclass

from dbmatch import detection, experiments, matcher, model, probability


def _deletion_search_space(args: dict, result) -> int:
    n = args["g1"].shape[1]
    k_tilde = args["g2_collapsed"].shape[1]
    return math.comb(n, n - k_tilde) if k_tilde <= n else 0


def _outcomes(args: dict, result) -> Counter:
    return Counter(result.outcomes)


# layer -> (module, work counter name or None, work(args, result))
LAYERS = {
    "probability.capacity": (probability, None, None),
    "probability.pipeline_scalars": (probability, None, None),
    "model.generate_unlabeled": (model, "entries", lambda a, r: r.entries.size),
    "model.sample_labeling": (model, None, None),
    "model.apply_repetition_noise": (model, "entries", lambda a, r: r.entries.size),
    "model.generate_seeds": (model, "entries", lambda a, r: r.g1.size + r.g2.size),
    "detection.detect_replicas": (
        detection,
        "entries",
        lambda a, r: a["d2"].m * max(a["d2"].total_columns - 1, 0),
    ),
    "detection.detect_deletions": (detection, "search_space", _deletion_search_space),
    "matcher.match_all": (
        matcher,
        "pairs",
        lambda a, r: len(r.matched_rows) * a["d1"].m,
    ),
    "matcher.evaluate": (matcher, "outcomes", _outcomes),
    "experiments.run_trial": (experiments, None, None),
}


@dataclass
class Span:
    name: str
    trial: int | None
    parent: int | None
    start: float
    end: float = 0.0


class Tracer:
    """Spans and per-layer counters of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.calls: Counter = Counter()
        self.work: Counter = Counter()
        self.outcomes: Counter = Counter()
        self.cap_failures = 0
        self.trial: int | None = None
        self._stack: list[int] = []

    def _wrap(self, name: str, fn, counter: str | None, work):
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            span_id = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, self.trial, parent, time.perf_counter())
            self.spans.append(span)
            self._stack.append(span_id)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                # matched by name, so the benchmark outlives the cap's removal
                if type(exc).__name__ == "SearchCapExceeded":
                    self.cap_failures += 1
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                self.calls[name] += 1
                if counter is not None and result is not None:
                    bound = sig.bind(*args, **kwargs).arguments
                    count = work(bound, result)
                    if counter == "outcomes":
                        self.outcomes.update(count)
                    else:
                        self.work[name] += count

        return traced

    @contextlib.contextmanager
    def instrument(self):
        originals = []
        try:
            for name, (module, counter, work) in LAYERS.items():
                attr = name.split(".", 1)[1]
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn, counter, work))
            yield self
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)

    def busy(self) -> Counter:
        total: Counter = Counter()
        for s in self.spans:
            total[s.name] += s.end - s.start
        return total

    def child_time(self, parent_name: str) -> float:
        """Time covered by the direct children of every `parent_name` span."""
        parents = {i for i, s in enumerate(self.spans) if s.name == parent_name}
        return sum(s.end - s.start for s in self.spans if s.parent in parents)

    def write(self, path) -> None:
        """Spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": s.name,
                            "trial": s.trial,
                            "parent": s.parent,
                            "start": s.start - t0,
                            "end": s.end - t0,
                        }
                    )
                    + "\n"
                )
