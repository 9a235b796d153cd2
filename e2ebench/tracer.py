"""Layer tracing from outside the program.

:class:`LayerTracer` wraps, for the length of one traced run, every
public function and public method defined in the ``repro`` package, and
every callback that passes through ``Simulator.schedule_at`` and
``Simulator.schedule_batch`` (the dispatch boundary, where private
handlers such as ``_on_message`` run).  Each wrapper records a span: the
layer of the wrapped code, its duration and the part of that duration
covered by nested spans.  A layer's self time is the sum of its spans'
durations minus their children's.

A few boundaries also count what passes through them (message payload
types, pmf samples drawn, snapshot sizes, trace records).  The wrappers
only read clocks and arguments: they draw no random numbers and schedule
nothing, so a traced run produces the same outcomes as an untraced one.
"""

from __future__ import annotations

import functools
import inspect
import pickle
import sys
import time
import types
from collections import Counter
from enum import Enum
from typing import Any, Callable, Optional

from workloads import Patches

#: The layers, named after the package's modules.
LAYERS = (
    "sim",
    "net",
    "groups",
    "core.state",
    "core.handlers",
    "core.replica",
    "core.client",
    "core.prediction",
    "core.selection",
    "stats",
    "obs",
    "workloads",
)
#: ``Trace.emit`` is observability, although it lives beside the kernel.
_MODULE_LAYER = {"repro.sim.tracing": "obs"}
#: Code outside the listed layers: other ``repro`` modules (service
#: assembly, controller, campaigns) and callbacks from elsewhere.
OTHER = "other"
#: The benchmark's own code around the run.
HARNESS = "harness"

SNAPSHOT = "repro.core.state.ReplicatedObject.snapshot"
RESTORE = "repro.core.state.ReplicatedObject.restore"
SAMPLE = "repro.stats.pmf.DiscretePmf.sample"
CONVOLVE = "repro.stats.pmf.DiscretePmf.convolve"
CONVOLVE_ALL = "repro.stats.pmf.convolve_all"


def layer_of(module: Optional[str]) -> str:
    if not module or not module.startswith("repro."):
        return OTHER
    if module in _MODULE_LAYER:
        return _MODULE_LAYER[module]
    name = module[len("repro."):]
    for layer in sorted(LAYERS, key=len, reverse=True):
        if name == layer or name.startswith(layer + "."):
            return layer
    return OTHER


def _callback_module(callback: Any) -> Optional[str]:
    """Module that defines a callback (a bound method's function's)."""
    return getattr(getattr(callback, "__func__", callback), "__module__", None)


class LayerTracer:
    """Spans and boundary counts for one traced run (see module doc)."""

    def __init__(self) -> None:
        self._layers = LAYERS + (OTHER, HARNESS)
        self._index = {layer: i for i, layer in enumerate(self._layers)}
        self._self_ns = [0] * len(self._layers)
        self._spans = [0] * len(self._layers)
        self._stack: list[int] = []  # child time of each open span
        self._scheduled = [0]
        self.fn_ns: Counter = Counter()
        self.fn_calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._patches = Patches()

    @property
    def self_ns(self) -> dict[str, int]:
        return dict(zip(self._layers, self._self_ns))

    @property
    def spans(self) -> dict[str, int]:
        return dict(zip(self._layers, self._spans))

    @property
    def scheduled(self) -> int:
        return self._scheduled[0]

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _span(
        self,
        fn: Callable,
        layer: str,
        key: Optional[str] = None,
        after: Optional[Callable[[Any], None]] = None,
    ) -> Callable:
        """``fn`` wrapped to record one ``layer`` span per call; with a
        ``key``, also its call count and total time, then ``after(result)``."""
        stack, self_ns, spans = self._stack, self._self_ns, self._spans
        i = self._index[layer]
        clock = time.perf_counter_ns
        if key is None:

            def span(*args, **kwargs):
                stack.append(0)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    duration = clock() - start
                    self_ns[i] += duration - stack.pop()
                    spans[i] += 1
                    if stack:
                        stack[-1] += duration

            return span
        fn_ns, fn_calls = self.fn_ns, self.fn_calls

        def measured(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                self_ns[i] += duration - stack.pop()
                spans[i] += 1
                fn_ns[key] += duration
                fn_calls[key] += 1
                if stack:
                    stack[-1] += duration
            if after is not None:
                # Counting work is kept out of every layer's self time.
                begin = clock()
                after(result)
                if stack:
                    stack[-1] += clock() - begin
            return result

        return measured

    def root(self, fn: Callable, *args) -> Any:
        """Run ``fn(*args)`` as the outermost (harness) span."""
        return self._span(fn, HARNESS)(*args)

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def __enter__(self) -> "LayerTracer":
        modules = [
            m for name, m in sorted(sys.modules.items())
            if name.startswith("repro.") and m is not None
        ]
        # Every module binding of each function, so ``from x import f``
        # call sites see the wrapper too.
        bindings: dict[int, list[tuple[types.ModuleType, str]]] = {}
        for module in modules:
            for name, value in vars(module).items():
                if isinstance(value, types.FunctionType):
                    bindings.setdefault(id(value), []).append((module, name))

        for module in modules:
            layer = layer_of(module.__name__)
            for name, value in list(vars(module).items()):
                if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if isinstance(value, types.FunctionType):
                    wrapper = self._public(value, layer, f"{module.__name__}.{name}")
                    for owner, alias in bindings.get(id(value), ()):
                        self._patches.set(owner, alias, wrapper)
                elif inspect.isclass(value) and not issubclass(value, (Enum, BaseException)):
                    self._wrap_class(value, layer)
        self._install_dispatch()
        return self

    def __exit__(self, *exc) -> None:
        self._patches.undo()

    def _public(self, fn: Callable, layer: str, key: str) -> Callable:
        if key in self._measured:
            wrapper = self._span(fn, layer, key, self._measured[key])
        else:
            wrapper = self._span(fn, layer)
        return functools.wraps(fn)(wrapper)

    def _wrap_class(self, cls: type, layer: str) -> None:
        for name, value in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            key = f"{cls.__module__}.{cls.__qualname__}.{name}"
            if isinstance(value, types.FunctionType):
                self._patches.set(cls, name, self._public(value, layer, key))
            elif isinstance(value, (staticmethod, classmethod)):
                wrapped = self._public(value.__func__, layer, key)
                self._patches.set(cls, name, type(value)(wrapped))

    def _install_dispatch(self) -> None:
        """Time callbacks at the kernel's dispatch boundary."""
        from repro.sim.kernel import Simulator

        scheduled = self._scheduled
        layers: dict[Optional[str], str] = {}

        def dispatched(callback):
            module = _callback_module(callback)
            layer = layers.get(module)
            if layer is None:
                layer = layers[module] = layer_of(module)
            return self._span(callback, layer)

        schedule_at = Simulator.schedule_at
        schedule_batch = Simulator.schedule_batch

        def traced_schedule_at(sim, time, callback, *args, priority=0):
            scheduled[0] += 1
            return schedule_at(sim, time, dispatched(callback), *args, priority=priority)

        def traced_schedule_batch(sim, times, callback, args_list=None, priority=0):
            events = schedule_batch(sim, times, dispatched(callback), args_list, priority)
            scheduled[0] += len(events)
            return events

        self._patches.set(Simulator, "schedule_at", traced_schedule_at)
        self._patches.set(Simulator, "schedule_batch", traced_schedule_batch)

    # ------------------------------------------------------------------
    # Boundary counts
    # ------------------------------------------------------------------
    @functools.cached_property
    def _measured(self) -> dict[str, Optional[Callable[[Any], None]]]:
        """Functions timed on their own, with what to count per result."""
        counts = self.counts

        def sent(message):
            payload = message.payload
            kind = type(payload).__name__
            if kind == "GroupDataMsg":
                counts["groups.data"] += 1
                payload = payload.payload
            elif kind == "HeartbeatMsg":
                counts["groups.heartbeats"] += 1
            elif kind == "GroupAckMsg":
                counts["groups.acks"] += 1
            counts["net.sent"] += 1
            if type(payload).__module__ == "repro.core.requests":
                counts["net.protocol"] += 1

        def snapshot(state):
            counts["core.state.snapshots"] += 1
            counts["core.state.snapshot_bytes"] += len(
                pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
            )

        def sampled(values):
            counts["stats.sample_values"] += len(values)

        return {
            "repro.net.network.Network.send": sent,
            SNAPSHOT: snapshot,
            RESTORE: None,
            SAMPLE: sampled,
            CONVOLVE: None,
            CONVOLVE_ALL: None,
        }
