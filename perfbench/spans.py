"""In-memory spans around the public functions of each lensmimo layer.

``Tracer`` replaces every public function of the layer modules, in every
lensmimo namespace that holds it (``from .numerics import water_fill`` makes
a second binding), with a wrapper that records one span per call. Nothing
under ``src/`` changes; leaving the ``with`` block restores the originals.

A span is (id, parent id, trial, name, start ns, end ns, child ns, detail).
Trials are numbered by the ``channel.sample_paths`` calls, which open every
trial. ``detail`` holds the call's input size where a per-layer metric needs
it (matrix shape, gain count, response key).
"""
from __future__ import annotations

import inspect
import sys
import time

PACKAGE = "lensmimo"
LAYERS = ("arrays", "channel", "grouping", "numerics", "opdm", "pdm", "selection", "upa")
TRIAL_START = "channel.sample_paths"


def _shape(value):
    return tuple(getattr(value, "shape", ()))


# What to keep of each call's arguments, by span name.
_DETAIL = {
    "numerics.svd": lambda a, k: _shape(a[0] if a else k["matrix"]),
    "numerics.water_fill": lambda a, k: len(a[0] if a else k["gains"]),
    "upa.ofdm_subchannels": lambda a, k: (
        _shape((a[0] if a else k["tapped"]).taps[0][1]),
        a[1] if len(a) > 1 else k["subcarriers"],
    ),
    "arrays.lens_response_spatial": lambda a, k: (*a, *k.values()),
}


class Tracer:
    """Context manager that records a span for every layer call it wraps."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._patched: list[tuple[object, str, object]] = []
        self._stack: list[list[int]] = []  # [span id, child ns] per open span
        self._next_id = 0
        self._trial = -1

    def _wrap(self, name: str, fn):
        detail = _DETAIL.get(name)
        stack, spans = self._stack, self.spans
        clock = time.perf_counter_ns
        opens_trial = name == TRIAL_START

        def wrapper(*args, **kwargs):
            if opens_trial and not stack:
                self._trial += 1
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            info = detail(args, kwargs) if detail else None
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans.append((span_id, parent, self._trial, name, start, end, frame[1], info))

        return wrapper

    def __enter__(self) -> "Tracer":
        modules = {
            n: m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")
        }
        wrappers = {}
        for layer in LAYERS:
            mod = modules[f"{PACKAGE}.{layer}"]
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()


class Profile:
    """Per-function totals over the spans of one traced sweep."""

    def __init__(self, spans: list[tuple]) -> None:
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.details: dict[str, list] = {}
        self.top_level_ns = 0
        self.negative_self = 0
        for _, parent, trial, name, start, end, child_ns, info in spans:
            own = end - start - child_ns
            self.negative_self += own < 0
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_ns[name] = self.self_ns.get(name, 0) + own
            if info is not None:
                self.details.setdefault(name, []).append((trial, info))
            if parent < 0:
                self.top_level_ns += end - start

    def layer_self_ns(self, layer: str) -> int:
        return sum(v for k, v in self.self_ns.items() if k.startswith(layer + "."))

    def total_self_ns(self) -> int:
        return sum(self.self_ns.values())
