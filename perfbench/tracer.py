"""Boundary tracer: spans around calls that cross nilcomm module boundaries.

`install` finds, in the globals of every loaded nilcomm module, the
functions that module imported from another layer module (and module
objects such as `exactla` used as `exactla.rank(...)`), and replaces them
with wrappers.  The classes it finds there (`Partition`, `ExactMatrix`,
`TwoBlockElement`, ...) have their own `__new__` and `__init__` wrapped on
the class, as has `ExactMatrix.__matmul__`, so constructing one of them
counts toward the layer that defines it wherever it happens.  Other calls
inside one module are not wrapped, so a layer's self time is the time spent
in its own code, including helpers that are not layers themselves (`_rng`
counts toward its caller).

Each span records (id, parent id, op id, layer, function, start, end).
Aggregates per layer (calls, self time) are kept exactly; raw spans are
kept in memory up to a cap and written out at the end.  Only the traced
run installs the tracer.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter
from types import FunctionType, ModuleType

LAYERS = ("cli", "dinverse", "commutant", "exactla", "twoblock",
          "constraints", "partitions")
SPAN_FIELDS = ("id", "parent", "op", "layer", "function", "start", "end")
TRACE_MARK = b"PERFBENCH-TRACE "  # prefixes a traced child's last stderr line


def layer_of(module_name: str) -> str | None:
    """'nilcomm.exactla' -> 'exactla'; None for modules that are not layers."""
    pkg, _, name = module_name.rpartition(".")
    return name if pkg == "nilcomm" and name in LAYERS else None


class _ModuleProxy:
    """Stands in for a layer module imported whole; wraps its functions."""

    def __init__(self, module: ModuleType, tracer: "Tracer"):
        self._module = module
        self._tracer = tracer
        self._wrapped: dict[str, object] = {}

    def __getattr__(self, name):
        value = getattr(self._module, name)
        if isinstance(value, FunctionType) and layer_of(value.__module__):
            if name not in self._wrapped:
                self._wrapped[name] = self._tracer.wrap(value)
            return self._wrapped[name]
        return value


class Tracer:
    def __init__(self, op: int = -1, span_cap: int = 200_000):
        self.op = op
        self.span_cap = span_cap
        self.stats = {layer: [0, 0.0] for layer in LAYERS}
        self.spans: list[tuple] = []
        self.dropped = 0
        self._stack: list[list] = []
        self._next_id = 1
        self._patched: list[tuple] = []
        self._classes: set = set()

    # -- spans ---------------------------------------------------------
    def _enter(self, layer: str, name: str) -> list:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][2] if self._stack else 0
        # [layer, function, id, parent, start, time covered by children]
        frame = [layer, name, sid, parent, perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, calls: int = 1) -> None:
        end = perf_counter()
        self._stack.pop()
        dur = end - frame[4]
        st = self.stats[frame[0]]
        st[0] += calls
        st[1] += dur - frame[5]
        if self._stack:
            self._stack[-1][5] += dur
        if len(self.spans) < self.span_cap:
            self.spans.append((frame[2], frame[3], self.op, frame[0], frame[1],
                               frame[4], end))
        else:
            self.dropped += 1

    def wrap(self, fn, layer: str | None = None):
        """Wrapped fn recording one span per call.  A generator function
        counts one call; each resumption is a span of the same layer."""
        layer = layer or layer_of(fn.__module__)
        name = fn.__qualname__
        enter, exit_ = self._enter, self._exit

        if inspect.isgeneratorfunction(fn):
            def traced(*args, **kwargs):
                frame = enter(layer, name)
                try:
                    gen = fn(*args, **kwargs)
                finally:
                    exit_(frame)
                while True:
                    frame = enter(layer, name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        exit_(frame, 0)
                    yield item
        else:
            def traced(*args, **kwargs):
                frame = enter(layer, name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_(frame)

        traced.__wrapped__ = fn
        traced.__qualname__ = name
        return traced

    # -- install / uninstall -------------------------------------------
    def _patch(self, owner, name: str, value) -> None:
        self._patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def wrap_class(self, cls) -> None:
        """Wrap the constructors cls defines itself, once."""
        if cls in self._classes:
            return
        self._classes.add(cls)
        layer = layer_of(cls.__module__)
        for name in ("__new__", "__init__"):
            value = cls.__dict__.get(name)
            if isinstance(value, staticmethod):
                self._patch(cls, name, staticmethod(self.wrap(value.__func__, layer)))
            elif isinstance(value, FunctionType):
                self._patch(cls, name, self.wrap(value, layer))

    def install(self, classes=()) -> None:
        """Wrap the boundary calls of every loaded layer module, and the
        constructors of `classes` too."""
        mods = [m for k, m in list(sys.modules.items())
                if m is not None and k.startswith("nilcomm.")]
        for mod in mods:
            for name, value in list(vars(mod).items()):
                if isinstance(value, FunctionType):
                    layer = layer_of(value.__module__)
                    if layer and value.__module__ != mod.__name__:
                        self._patch(mod, name, self.wrap(value, layer))
                elif isinstance(value, type):
                    if layer_of(value.__module__) and value.__module__ != mod.__name__:
                        self.wrap_class(value)
                elif (isinstance(value, ModuleType) and value is not mod
                      and layer_of(value.__name__)):
                    self._patch(mod, name, _ModuleProxy(value, self))
        exactla = sys.modules.get("nilcomm.exactla")
        if exactla is not None:
            cls = exactla.ExactMatrix
            self.wrap_class(cls)
            self._patch(cls, "__matmul__", self.wrap(cls.__dict__["__matmul__"], "exactla"))
        for cls in classes:
            self.wrap_class(cls)

    def uninstall(self) -> None:
        while self._patched:
            owner, name, value = self._patched.pop()
            setattr(owner, name, value)
        self._classes.clear()

    # -- results -------------------------------------------------------
    def export(self) -> dict:
        return {"stats": self.stats, "spans": self.spans, "dropped": self.dropped}

    def merge(self, other: dict) -> None:
        for layer, (calls, self_s) in other["stats"].items():
            st = self.stats[layer]
            st[0] += calls
            st[1] += self_s
        room = self.span_cap - len(self.spans)
        self.spans.extend(tuple(s) for s in other["spans"][:room])
        self.dropped += other["dropped"] + max(len(other["spans"]) - room, 0)
