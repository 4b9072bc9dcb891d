"""Tracing from outside the package: wrappers on the public functions of each
`polyprimelab` module, spans kept in memory, and self times from the spans.

A span is (name, start, end, parent span index, op id, size, error).  Self
time is a span's duration minus the part of it that its child spans cover.
Per-element functions (`ColoringInstance.color_of`, polynomial `__call__`)
are never wrapped: they run millions of times per op.
"""

from __future__ import annotations

import functools
import sys
import time

PACKAGE = "polyprimelab"

# module -> functions timed with a span each call
TIMED = {
    "numtheory": ["sieve_primes", "ap_prime_mask"],
    "wtrick": ["build_context"],
    "spectral": [
        "dft",
        "idft",
        "build_poly_prime_measure",
        "build_prime_coloring_measure",
        "large_spectrum",
        "bohr_set",
        "smooth",
    ],
    "coloring": [
        "make_coloring",
        "blocking_partition",
        "dense_class",
        "dense_prime_class",
        "load_coloring",
    ],
    "counting": [
        "transference_report",
        "triple_count",
        "find_zn_solutions",
        "lift_solution",
        "find_monochromatic",
    ],
    "experiments": ["run_transfer", "run_counterexample", "run_search", "write_report"],
    "cli": ["main"],
}
# counted only: a span per call would cost more than the call itself
COUNTED = {"numtheory": ["is_prime"]}
# spans that also record the length of their first argument
SIZED = {"spectral.dft"}
# counted calls made while this span is open are also counted separately
COUNT_INSIDE = "counting.find_monochromatic"

TIMED_NAMES = [f"{m}.{f}" for m, fs in TIMED.items() for f in fs]
COUNTED_NAMES = [f"{m}.{f}" for m, fs in COUNTED.items() for f in fs]

NAME, START, END, PARENT, OP, SIZE, ERROR = range(7)


class Tracer:
    """Span recorder for one op; `install` puts its wrappers in place."""

    def __init__(self, op_id: int = 0):
        self.op_id = op_id
        self.spans: list[list] = []
        self.calls = {name: 0 for name in COUNTED_NAMES}
        self.calls_inside = {name: 0 for name in COUNTED_NAMES}
        self._stack: list[int] = []
        self._inside = 0

    def timed(self, name: str, fn):
        sized = name in SIZED
        inside = name == COUNT_INSIDE

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = [name, 0.0, 0.0, parent, self.op_id, len(args[0]) if sized else 0, False]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            self._inside += inside
            span[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = time.perf_counter()
                self._inside -= inside
                self._stack.pop()

        return wrapper

    def counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            if self._inside:
                self.calls_inside[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> list[str]:
        """Wrap every listed function, in its defining module and in every
        package module that bound the same object by import.  Returns the
        names that no longer exist."""
        modules = [m for k, m in sys.modules.items() if k == PACKAGE or k.startswith(PACKAGE + ".")]
        missing = []
        for table, make in ((TIMED, self.timed), (COUNTED, self.counted)):
            for mod, names in table.items():
                home = sys.modules.get(f"{PACKAGE}.{mod}")
                for fname in names:
                    orig = getattr(home, fname, None)
                    if orig is None:
                        missing.append(f"{mod}.{fname}")
                        continue
                    wrapper = make(f"{mod}.{fname}", orig)
                    for m in modules:
                        for attr, val in list(vars(m).items()):
                            if val is orig:
                                setattr(m, attr, wrapper)
        return missing


def self_times(spans) -> list[float]:
    """Per span: duration minus the union of its children's intervals."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s[PARENT] is not None:
            children.setdefault(s[PARENT], []).append(i)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s[START]
        for c in sorted(children.get(i, ()), key=lambda j: spans[j][START]):
            lo, hi = max(spans[c][START], reach), min(spans[c][END], s[END])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s[END] - s[START] - covered)
    return out


def layer_metrics(spans, calls: dict, calls_inside: dict) -> dict[str, float]:
    """`<module>.<function>.calls|self_s|errors` for every timed function,
    `.calls` for every counted one, `.calls_inside` for counted calls made
    inside COUNT_INSIDE, and `.points` (summed sizes) for sized spans."""
    out: dict[str, float] = {}
    for name in TIMED_NAMES:
        out[f"{name}.calls"] = 0
        out[f"{name}.self_s"] = 0.0
        out[f"{name}.errors"] = 0
    for name in SIZED:
        out[f"{name}.points"] = 0
    for s, self_s in zip(spans, self_times(spans)):
        name = s[NAME]
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += self_s
        out[f"{name}.errors"] += s[ERROR]
        if name in SIZED:
            out[f"{name}.points"] += s[SIZE]
    for name in COUNTED_NAMES:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.calls_inside"] = calls_inside.get(name, 0)
    return out
