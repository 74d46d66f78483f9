"""Measurement probes installed from outside the simulator.

Three probes, all attached by the benchmark before any machine is built and
all strictly observational (the simulated result is byte-identical with or
without them; ``run.py`` checks this on every traced run):

* :class:`Sampler` -- a ``signal.setitimer`` profiler.  Every tick walks the
  interrupted Python stack to the innermost ``repro/<module>/`` frame and
  counts one sample for that layer.  It sees all host work, including the
  private callbacks the event kernel dispatches, which no entry-point
  wrapper can see.
* :class:`SpanRecorder` -- wrappers around each layer's public entry points.
  Each call records a span (name, start, end, parent by call nesting);
  per-entry call counts and self time (duration minus child spans) are
  aggregated exactly, and the first ``CAP`` spans are kept in memory and
  written out when the benchmark ends.  Self time covers only the entry
  points themselves: work the kernel later dispatches to a private callback
  is not inside any span, so the sampler is the measure of where time goes.
* :class:`DispatchLedger` -- wrappers around the kernel's scheduling API
  (``Environment.call_later/call_at/call_soon/timeout/event``), counting
  every scheduled dispatch keyed by the layer that owns the callback (for
  ``timeout``/``event``, which take no callback, the calling layer).  The
  counts are exact and repeat for a fixed seed.  Paths that append to the
  ready deque directly are invisible to it: ``Event.succeed/fail`` and
  process resumes inside ``sim/engine.py``, the ``sim/queues.py`` hand-offs,
  ``magic/chip.py``'s fused hops and ``processor/cpu.py``'s relay.
"""

from __future__ import annotations

import json
import math
import signal
import sys
import time
from array import array
from pathlib import Path

#: The measured layers: the ``src/repro/`` packages that do work on the
#: benchmark's workloads.  ``pp``, ``msgpass`` and ``faults`` are not used
#: by the default table backend on these workloads and are not measured.
LAYERS = ("sim", "processor", "caches", "magic", "ideal", "protocol",
          "network", "memory", "apps", "stats", "check")

#: Sampler bucket for everything outside ``LAYERS``: other repro modules
#: (``machine.py``, ``node.py``, ``common``, ``harness``, ...), the
#: benchmark itself and the interpreter.
REST = "rest"


#: The sampler's interval: the kernel's scheduler tick on a 250 Hz kernel,
#: about 250 samples per CPU second.  ``ITIMER_PROF`` fires no faster than
#: the tick, so a shorter interval gives no more samples.
INTERVAL_S = 0.004


def layer_of_module(name: str):
    """``'repro.magic.chip'`` -> ``'magic'``; None outside ``LAYERS``."""
    parts = name.split(".")
    if len(parts) > 2 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return None


def layer_of_file(filename: str):
    """``.../repro/magic/chip.py`` -> ``'magic'``; None outside ``LAYERS``."""
    path = filename.replace("\\", "/")
    cut = path.rfind("/repro/")
    if cut < 0:
        return None
    head = path[cut + 7:].split("/", 1)[0]
    return head if head in LAYERS else None


class Sampler:
    """Interval-timer sampler of host time per layer, one sample every
    :data:`INTERVAL_S` of process CPU time.

    ``ITIMER_PROF`` counts process CPU time, so the rate does not depend on
    what else the box is running.  The stated error of each share is its
    binomial standard error, ``sqrt(p * (1 - p) / samples)``.
    """

    def __init__(self):
        self.counts = {layer: 0 for layer in LAYERS}
        self.counts[REST] = 0
        self._by_code = {}
        self._previous = None

    def _on_tick(self, signum, frame) -> None:
        by_code = self._by_code
        while frame is not None:
            code = frame.f_code
            layer = by_code.get(code, False)
            if layer is False:
                layer = by_code[code] = layer_of_file(code.co_filename)
            if layer is not None:
                self.counts[layer] += 1
                return
            frame = frame.f_back
        self.counts[REST] += 1

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self._on_tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)

    @property
    def samples(self) -> int:
        return sum(self.counts.values())

    def shares(self):
        total = self.samples or 1
        return {key: count / total for key, count in self.counts.items()}

    def max_stderr(self) -> float:
        n = self.samples or 1
        return max(math.sqrt(p * (1.0 - p) / n) for p in self.shares().values())


class SpanRecorder:
    """Span wrappers around public entry points, with exact aggregates."""

    #: ints per stored span: id, entry index, start ns, end ns, parent id
    FIELDS = ("id", "entry", "start_ns", "end_ns", "parent")

    #: spans kept in memory and written out; later calls are only counted
    CAP = 200_000

    def __init__(self):
        self.entries = []     # "layer:Class.method"
        self.layers = []      # layer of each entry
        self.calls = []
        self.self_ns = []
        self.spans = array("q")
        self.stored = 0
        self.dropped = 0
        self._next_id = 1
        self._stack = []      # [span id, child ns] per open span
        self._stream_step = None

    def _entry(self, layer: str, name: str) -> int:
        self.entries.append(f"{layer}:{name}")
        self.layers.append(layer)
        self.calls.append(0)
        self.self_ns.append(0)
        return len(self.entries) - 1

    def timed(self, fn, layer: str, name: str):
        """Return ``fn`` wrapped in a span; the wrapper's return value and
        exceptions are exactly ``fn``'s."""
        index = self._entry(layer, name)
        clock = time.perf_counter_ns
        stack = self._stack
        calls = self.calls
        self_ns = self.self_ns
        spans = self.spans
        recorder = self

        def wrapper(*args, **kwargs):
            span_id = recorder._next_id
            recorder._next_id = span_id + 1
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_ns[index] += duration - frame[1]
                calls[index] += 1
                if stack:
                    stack[-1][1] += duration
                if recorder.stored < recorder.CAP:
                    spans.extend((span_id, index, start, end, parent))
                    recorder.stored += 1
                else:
                    recorder.dropped += 1

        return wrapper

    def wrap_methods(self, cls, names, layer: str) -> None:
        """Replace each method on ``cls`` by its span wrapper.  Done before
        any instance is built, so bound methods that hot code caches at
        construction are the wrappers too."""
        for name in names:
            setattr(cls, name, self.timed(cls.__dict__[name], layer,
                                          f"{cls.__name__}.{name}"))

    def wrap_stream(self, stream):
        """An op stream whose ``__next__`` is one ``apps`` span per op."""
        if self._stream_step is None:
            self._stream_step = self.timed(next, "apps", "stream.__next__")
        return _TimedStream(stream, self._stream_step)

    def per_layer(self):
        """``layer -> (calls, self seconds)`` summed over its entries."""
        totals = {layer: [0, 0.0] for layer in LAYERS}
        for layer, calls, ns in zip(self.layers, self.calls, self.self_ns):
            totals[layer][0] += calls
            totals[layer][1] += ns / 1e9
        return totals

    def write(self, directory: Path, stem: str) -> None:
        """Spans as little-endian int64 records, plus a JSON index."""
        directory.mkdir(parents=True, exist_ok=True)
        with open(directory / f"{stem}.spans.bin", "wb") as out:
            self.spans.tofile(out)
        index = {
            "fields": list(self.FIELDS), "entries": self.entries,
            "stored": self.stored, "dropped": self.dropped,
            "calls": dict(zip(self.entries, self.calls)),
            "self_ns": dict(zip(self.entries, self.self_ns)),
            "byteorder": sys.byteorder,
        }
        with open(directory / f"{stem}.spans.json", "w") as out:
            json.dump(index, out, indent=1, sort_keys=True)


class _TimedStream:
    __slots__ = ("_it", "_step")

    def __init__(self, stream, step):
        self._it = iter(stream)
        self._step = step

    def __iter__(self):
        return self

    def __next__(self):
        return self._step(self._it)


class DispatchLedger:
    """Exact count of scheduled dispatches, keyed by owning layer."""

    METHODS = ("call_later", "call_at", "call_soon", "timeout", "event")

    def __init__(self):
        self.counts = {}
        self._owner_by_func = {}

    def _owner(self, callback) -> str:
        func = getattr(callback, "__func__", callback)
        owner = self._owner_by_func.get(func)
        if owner is None:
            module = getattr(func, "__module__", None) \
                or type(callback).__module__
            owner = self._owner_by_func[func] = \
                layer_of_module(module) or REST
        return owner

    def install(self, env_cls, spans: SpanRecorder) -> None:
        """Wrap the scheduling API on the ``Environment`` class, each call
        also a ``sim`` span.  Done before any machine is built."""
        counts = self.counts
        owner_of = self._owner
        getframe = sys._getframe
        module_owner = {}
        for name in self.METHODS:
            original = env_cls.__dict__[name]
            inner = spans.timed(original, "sim", f"Environment.{name}")
            if name in ("timeout", "event"):
                def wrapper(*args, _inner=inner, **kwargs):
                    module = getframe(1).f_globals.get("__name__", "")
                    owner = module_owner.get(module)
                    if owner is None:
                        owner = module_owner[module] = \
                            layer_of_module(module) or REST
                    counts[owner] = counts.get(owner, 0) + 1
                    return _inner(*args, **kwargs)
            else:
                callback_at = 2 if name != "call_soon" else 1

                def wrapper(*args, _inner=inner, _at=callback_at, **kwargs):
                    callback = args[_at] if len(args) > _at \
                        else kwargs["callback"]
                    owner = owner_of(callback)
                    counts[owner] = counts.get(owner, 0) + 1
                    return _inner(*args, **kwargs)
            setattr(env_cls, name, wrapper)

    @property
    def total(self) -> int:
        return sum(self.counts.values())
