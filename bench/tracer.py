"""Spans around deltahull's public module functions, recorded from outside.

Each public function of a layer module is replaced at its module attribute
by a wrapper that records a span. Calls between modules (``model.phase_one``,
``linalg.det_exact``) and calls inside a module (``simplex_max`` from
``redundancy_scan``) look the name up on the module at call time, so they go
through the wrapper. Names another module imported with ``from .x import y``
are not rebound; the spans therefore cover exactly the module-attribute calls.
"""

import functools
import importlib
import time
import types
from collections import Counter, defaultdict

LAYERS = (
    "model",
    "hull",
    "linalg",
    "stats",
    "graphs",
    "counting",
    "serialize",
    "subdivision",
)

# Element-wise helpers called once per rational entry or per dot product.
# A span around each would cost more than the work it measures.
UNTRACED = frozenset(
    {
        "linalg.dot",
        "linalg.frac",
        "serialize.parse_rational",
        "serialize.rational_str",
        "serialize.rationalize",
    }
)


class Tracer:
    """Per-function calls, inclusive time and self time for one op at a time.

    ``total_s`` counts a function once per outermost activation, so a
    recursive call is not counted twice. ``edges`` counts calls by
    (caller span, callee span); the caller is None for top-level spans.
    """

    def __init__(self):
        self._stack = []  # [name, child_s] per open span
        self._originals = []  # (module, attribute, function)
        self.reset()

    def reset(self):
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.edges = Counter()
        self.top_s = 0.0

    def snapshot(self) -> dict:
        """The current op's figures as plain dicts; then start afresh."""
        snap = {
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "edges": dict(self.edges),
            "top_s": self.top_s,
        }
        self.reset()
        return snap

    def install(self):
        for layer in LAYERS:
            module = importlib.import_module(f"deltahull.{layer}")
            for attr, fn in list(vars(module).items()):
                name = f"{layer}.{attr}"
                if (
                    isinstance(fn, types.FunctionType)
                    and not attr.startswith("_")
                    and fn.__module__ == module.__name__
                    and name not in UNTRACED
                ):
                    self._originals.append((module, attr, fn))
                    setattr(module, attr, self._wrap(name, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def _wrap(self, name, fn):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                if not any(f[0] == name for f in stack):
                    self.total_s[name] += duration
                if parent is None:
                    self.top_s += duration
                    self.edges[(None, name)] += 1
                else:
                    parent[1] += duration
                    self.edges[(parent[0], name)] += 1

        return traced
