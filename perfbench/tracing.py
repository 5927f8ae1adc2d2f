"""Spans around the calls into spgcd's layers, recorded from outside the program.

A wrapper replaces a function where its caller looks it up (for example
``spgcd.engine.monic_gcd`` rather than ``spgcd.unipoly.monic_gcd``), so only
the calls made by that caller are timed.  Each call becomes one span
``[name, start, end, parent]`` kept in memory; ``parent`` is the index of the
enclosing span or -1.  Leaving the ``Tracer`` context puts every original
binding back.
"""

from __future__ import annotations

import functools
import json
import time


class Tracer:
    """Span recorder; use as a context manager so the wrappers are removed."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict = {}
        self._stack: list = []
        self._patches: list = []

    def wrap(self, owner, attr: str, name: str, counter=None):
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``counter`` is an optional ``(suffix, fn)``: ``fn(*args)`` is added to
        the counter ``name.suffix`` on every call.
        """
        original = getattr(owner, attr)
        spans, stack, counters, clock = self.spans, self._stack, self.counters, time.perf_counter
        counter_key = f"{name}.{counter[0]}" if counter else None

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if counter_key is not None:
                counters[counter_key] = counters.get(counter_key, 0) + counter[1](*args)
            span = [name, clock(), None, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put back every binding replaced by ``wrap``, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def self_times(spans) -> list:
    """Per span: its duration minus the durations of its direct children,
    which nest inside it because calls are traced in one thread."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def summarize(spans) -> dict:
    """name -> {"calls", "s", "self_s"} summed over all spans of that name."""
    out: dict = {}
    for span, self_s in zip(spans, self_times(spans)):
        row = out.setdefault(span[0], {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += span[2] - span[1]
        row["self_s"] += self_s
    return out
