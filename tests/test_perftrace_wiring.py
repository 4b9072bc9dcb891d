"""The benchmark's tracer wraps package functions by name; a rename in the
package must fail here instead of silently zeroing per-layer metrics."""

import os
import sys

import polyprimelab.cli  # noqa: F401  (imports every module the tracer wraps)

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_tracer_finds_every_wrapped_name():
    if PERFBENCH not in sys.path:
        sys.path.insert(0, PERFBENCH)
    import perftrace

    modules = [m for k, m in sys.modules.items() if k.split(".")[0] == perftrace.PACKAGE]
    saved = {m: dict(vars(m)) for m in modules}
    try:
        assert perftrace.Tracer().install() == []
    finally:
        # undo the wrapping so later tests run the package unwrapped
        for m, attrs in saved.items():
            for attr, val in attrs.items():
                if getattr(m, attr, None) is not val:
                    setattr(m, attr, val)
