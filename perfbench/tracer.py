"""In-memory span tracing of cfbm from outside the library.

`Tracer.install` wraps the public functions of the cfbm modules and rebinds
each wrapper under every name that holds the original in any loaded cfbm
module, so calls made inside the library (``eps_approx`` calling
``fk_table``, ``I1`` calling ``F1``) are recorded too.  `Tracer.uninstall`
restores the originals.  The benchmark is single-threaded (``--threads 1``),
so one stack gives each span its parent.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass, field

TRACED_MODULES = ("specfun", "gamma_process", "eps_approx", "rough_integrals")

# Scalar primitives called per element inside the traced layers: a span costs
# more than their body, so they stay inside their caller's self time.
UNTRACED = frozenset(
    {"principal_pow", "gamma_fn", "pochhammer", "log_pochhammer", "cayley", "cayley_inv"}
)


@dataclass
class Span:
    name: str
    start: float
    parent: int
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    end: float = 0.0
    child_s: float = 0.0
    error: str = ""

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.child_s


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._rebound = []

    def open(self, name, args=(), kwargs=None):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent, args, kwargs or {}))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx, error=""):
        span = self.spans[idx]
        span.end = time.perf_counter()
        span.error = error
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.duration

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name, args, kwargs)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(idx, type(exc).__name__)
                raise
            self.close(idx)
            return result

        return traced

    def install(self):
        holders = [m for n, m in sys.modules.items() if n == "cfbm" or n.startswith("cfbm.")]
        for short in TRACED_MODULES:
            mod = sys.modules[f"cfbm.{short}"]
            for name in getattr(mod, "__all__", ()):
                fn = getattr(mod, name, None)
                if name in UNTRACED or not inspect.isfunction(fn):
                    continue
                wrapper = self._wrap(fn, f"{short}.{name}")
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, attr, wrapper)
                            self._rebound.append((holder, attr, fn))

    def uninstall(self):
        for holder, attr, fn in reversed(self._rebound):
            setattr(holder, attr, fn)
        self._rebound.clear()
