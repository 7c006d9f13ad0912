"""Per-layer wall-time budget, measured from outside the program.

The traced run wraps the public entry points of each layer (a function in
a module, or a method on a class) with a timing shim, records one
*exclusive segment* per stretch of time a layer is the innermost active
layer on its thread, and turns the segments into a wall-time budget:

* on the benchmark's own thread, every instant inside a timed operation
  (a *root* frame) belongs to exactly one layer — the innermost one — or
  to ``unattributed`` when no wrapped layer is active;
* while that thread is blocked in ``PipelinedRunner.run``, the instant is
  split evenly among the layers active on the pipeline's stage threads,
  and an instant with no stage work at all (thread start, queue hand-off,
  join) goes to ``pipeline.wait``;
* garbage-collector pauses (``gc.callbacks``) are carved out of whatever
  segment they interrupted and go to ``runtime.gc``.

So the budget sums to the traced end-to-end wall by construction, and
:func:`LayerTracer.budget` checks that it does.  Module-level functions
are rebound in *every* loaded ``repro`` module that imported them by
name, and :meth:`LayerTracer.uninstall` puts every original object back.
"""

from __future__ import annotations

import bisect
import gc
import importlib
import sys
import threading
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

ROOT = "unattributed"
PIPELINE_RUN = "pipeline.run"
PIPELINE_WAIT = "pipeline.wait"
PIPELINE_STAGE = "pipeline.stage"
GC = "runtime.gc"

MIB = float(2**20)


def _nbytes(value) -> int:
    nbytes = getattr(value, "nbytes", None)
    if isinstance(nbytes, int):
        return nbytes
    if isinstance(value, (bytes, bytearray, memoryview)):
        return len(value)
    if isinstance(value, (list, tuple)):
        return sum(_nbytes(v) for v in value)
    return 0


# ----------------------------------------------------------------------
# Count hooks: ``pre(args) -> token`` runs before the call,
# ``post(tracer, args, result, token)`` after it.
# ----------------------------------------------------------------------
def _count_encode(tracer, args, result, token):
    tracer.add("ec.encode_bytes", _nbytes(args[1]))


def _decode_pre(args):
    return args[0].decode_cache_info()


def _count_decode(tracer, args, result, before):
    after = args[0].decode_cache_info()
    hits = after["hits"] - before["hits"]
    tracer.add("ec.decode_cache_hits", hits)
    tracer.add("ec.decode_cache_lookups", hits + after["misses"] - before["misses"])
    tracer.add("ec.decode_bytes", _nbytes(result))


def _count_crc(tracer, args, result, token):
    tracer.add("integrity.crc_bytes", _nbytes(args[0]))


def _count_put(tracer, args, result, token):
    tracer.add("storage.put_bytes", _nbytes(args[3]))


def _count_demote(tracer, args, result, token):
    tracer.add("tier.demote_bytes", result.bytes_to_disk)


def _count_delta(tracer, args, result, token):
    summary = result[1]
    tracer.add("gradrep.dirty_blocks", summary.dirty_blocks)
    tracer.add("gradrep.total_blocks", summary.total_blocks)


def _events_pre(args):
    return args[0].processed


def _count_events(tracer, args, result, before):
    tracer.add("sim.events_processed", args[0].processed - before)


def _sample_resident(tracer, args, result, token):
    engine = args[0].engine
    resident = engine.host.total_bytes
    disk = getattr(engine, "disk", None)
    if disk is not None:
        resident += disk.total_bytes
    tracer.peak("storage.resident_bytes", resident)


@dataclass(frozen=True)
class Target:
    """One wrapped entry point: ``owner`` is ``module`` or ``module:Class``."""

    layer: str
    owner: str
    attr: str
    pre: Callable | None = None
    post: Callable | None = None


TARGETS = (
    Target("protocol.decompose", "repro.core.protocol", "build_worker_checkpoint"),
    Target("protocol.recompose", "repro.core.protocol", "restore_state_dict"),
    Target("protocol.encode_packet", "repro.core.protocol", "encode_packet"),
    Target("protocol.xor_reduce", "repro.core.protocol", "xor_reduce"),
    Target("ec.encode", "repro.ec.threadpool:ThreadPoolEncoder", "encode",
           post=_count_encode),
    Target("ec.decode", "repro.ec.cauchy:CauchyRSCode", "decode_fast",
           pre=_decode_pre, post=_count_decode),
    Target("integrity.crc", "repro.core.integrity", "chunk_digest",
           post=_count_crc),
    Target("integrity.crc", "repro.core.integrity", "verify_chunk",
           post=_count_crc),
    Target(PIPELINE_RUN, "repro.core.pipeline:PipelinedRunner", "run"),
    Target("storage.put", "repro.checkpoint.storage:HostMemoryStore", "put",
           post=_count_put),
    Target("storage.put", "repro.checkpoint.storage:LocalDiskStore", "put",
           post=_count_put),
    Target("storage.get", "repro.checkpoint.storage:HostMemoryStore", "get"),
    Target("storage.get", "repro.checkpoint.storage:LocalDiskStore", "get"),
    Target("tier.demote", "repro.core.eccheck:ECCheckEngine", "demote_version",
           post=_count_demote),
    Target("tier.evict", "repro.core.eccheck:ECCheckEngine", "evict_disk_version"),
    Target("eccheck.save", "repro.core.eccheck:ECCheckEngine", "save"),
    Target("eccheck.restore", "repro.core.eccheck:ECCheckEngine", "restore"),
    Target("elastic.reconfigure", "repro.core.eccheck:ECCheckEngine", "reconfigure"),
    Target("gradrep.save", "repro.gradrep.engine:GradRepEngine", "save"),
    Target("gradrep.save", "repro.gradrep.hybrid:HybridEngine", "save"),
    Target("gradrep.restore", "repro.gradrep.engine:GradRepEngine", "restore"),
    Target("gradrep.restore", "repro.gradrep.hybrid:HybridEngine", "restore"),
    Target("gradrep.replicate", "repro.gradrep.engine:GradRepEngine",
           "replicate_iteration"),
    Target("gradrep.delta", "repro.core.incremental", "packet_delta",
           post=_count_delta),
    Target("gradrep.log_append", "repro.gradrep.gradlog:GradientLog", "append"),
    Target("gradrep.replay", "repro.gradrep.gradlog:GradientLog", "replay_packet"),
    Target("job.create", "repro.checkpoint.job:TrainingJob", "create"),
    Target("job.advance", "repro.checkpoint.job:TrainingJob", "advance"),
    Target("job.snapshot", "repro.checkpoint.job:TrainingJob", "snapshot_states"),
    Target("sim.network", "repro.sim.network:ClusterNetwork", "simulate"),
    Target("sim.event_loop", "repro.sim.events:Simulator", "run",
           pre=_events_pre, post=_count_events),
    Target("sim.arbiter", "repro.sim.network:BandwidthArbiter", "acquire"),
    Target("sim.arbiter", "repro.sim.network:BandwidthArbiter", "release"),
    Target("elastic.on_failure", "repro.elastic.controller:ElasticClusterController",
           "on_failure"),
    Target("elastic.repair", "repro.elastic.controller:ElasticClusterController",
           "run_repair"),
    Target("oracle.judge", "repro.chaos.differential:DifferentialHarness", "predict"),
    Target("oracle.judge", "repro.chaos.differential:DifferentialHarness", "observe"),
    Target("manager.step", "repro.checkpoint.manager:CheckpointManager", "step",
           post=_sample_resident),
    Target("manager.on_failure", "repro.checkpoint.manager:CheckpointManager",
           "on_failure"),
)

#: Every layer a budget line can name, in report order.
BUDGET_LAYERS = tuple(dict.fromkeys(
    [t.layer for t in TARGETS if t.layer != PIPELINE_RUN]
    + [PIPELINE_STAGE, PIPELINE_WAIT, GC, ROOT]
))


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class LayerTracer:
    """Wraps layer entry points and turns their timings into a budget.

    Use as a context manager, or call :meth:`install` / :meth:`uninstall`.
    Only time inside :meth:`root` calls on the installing thread counts;
    calls the benchmark makes for its own checking are passed through.
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.segments: list[tuple[str, int, float, float]] = []
        self.gc_intervals: list[tuple[int, float, float]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.gc_collections = 0
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        #: (owner object, attribute, original value, owner had it in __dict__)
        self._patches: list[tuple[object, str, object, bool]] = []
        self._originals: dict[int, object] = {}
        self.installed = False

    # -- recording -------------------------------------------------------
    def add(self, key: str, amount: float) -> None:
        with self._lock:
            self.counts[key] += amount

    def peak(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] = max(self.counts[key], value)

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def call(self, layer: str, fn, args, kwargs, pre=None, post=None):
        stack = self._stack()
        tid = threading.get_ident()
        if not stack and tid == self._main and layer != ROOT:
            # The benchmark's own checking, outside any timed operation.
            return fn(*args, **kwargs)
        token = pre(args) if pre is not None else None
        start = perf_counter()
        if stack:
            parent = stack[-1]
            self.segments.append((parent[0], tid, parent[1], start))
        frame = [layer, start]
        stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.segments.append((layer, tid, frame[1], end))
            if stack:
                stack[-1][1] = end
            with self._lock:
                self.counts[layer + ".calls"] += 1
                self.inclusive[layer] += end - start
        if post is not None:
            post(self, args, result, token)
        return result

    def root(self, fn, *args, **kwargs):
        """Run one timed operation; returns ``(result, wall_seconds)``."""
        start = perf_counter()
        result = self.call(ROOT, fn, args, kwargs)
        return result, perf_counter() - start

    @property
    def root_wall(self) -> float:
        """Traced end-to-end wall: the summed durations of root frames."""
        return self.inclusive[ROOT]

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._tls.gc_start = perf_counter()
        else:
            start = getattr(self._tls, "gc_start", None)
            if start is not None:
                self.gc_intervals.append(
                    (threading.get_ident(), start, perf_counter())
                )

    # -- install / uninstall ---------------------------------------------
    def _wrap(self, layer, original, pre=None, post=None):
        call = self.call

        def wrapper(*args, **kwargs):
            return call(layer, original, args, kwargs, pre, post)

        wrapper.__name__ = getattr(original, "__name__", layer)
        wrapper.__qualname__ = getattr(original, "__qualname__", layer)
        wrapper.__doc__ = getattr(original, "__doc__", None)
        wrapper.__wrapped__ = original
        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        had_own = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr, getattr(owner, attr)), had_own))
        setattr(owner, attr, value)

    def install(self) -> "LayerTracer":
        if self.installed:
            raise RuntimeError("layer tracer already installed")
        for target in self.targets:
            owner = _resolve(target.owner)
            if isinstance(owner, type):
                self._install_method(owner, target)
            else:
                self._install_function(owner, target)
        self._install_stage_wrapping()
        gc.callbacks.append(self._on_gc)
        self.installed = True
        return self

    def _install_method(self, cls, target: Target) -> None:
        raw = vars(cls).get(target.attr, getattr(cls, target.attr))
        if isinstance(raw, classmethod):
            wrapped = classmethod(
                self._wrap(target.layer, raw.__func__, target.pre, target.post)
            )
        else:
            wrapped = self._wrap(target.layer, raw, target.pre, target.post)
        self._patch(cls, target.attr, wrapped)

    def _install_function(self, module, target: Target) -> None:
        original = getattr(module, target.attr)
        wrapper = self._wrap(target.layer, original, target.pre, target.post)
        self._originals[id(wrapper)] = original
        # Rebind every ``from module import fn`` copy, not just the home one.
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)

    def _install_stage_wrapping(self) -> None:
        from repro.core.pipeline import PipelinedRunner

        original_init = vars(PipelinedRunner)["__init__"]
        wrap = self._wrap

        def __init__(runner, encode, reduce, transfer, *args, **kwargs):
            original_init(
                runner,
                wrap(PIPELINE_STAGE, encode),
                wrap(PIPELINE_STAGE, reduce),
                wrap(PIPELINE_STAGE, transfer),
                *args,
                **kwargs,
            )

        self._patch(PipelinedRunner, "__init__", __init__)

    def uninstall(self) -> None:
        if not self.installed:
            return
        gc.callbacks.remove(self._on_gc)
        for owner, attr, original, had_own in reversed(self._patches):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        # A module imported while tracing copied a wrapper by name.
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                original = self._originals.get(id(value))
                if original is not None:
                    setattr(mod, attr, original)
        self._patches.clear()
        self._originals.clear()
        self.installed = False

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- the budget --------------------------------------------------------
    def budget(self) -> dict[str, float]:
        """Wall seconds per layer; sums to :attr:`root_wall`."""
        by_thread: dict[int, list] = defaultdict(list)
        for layer, tid, start, end in self.segments:
            if end > start:
                by_thread[tid].append((start, end, layer))
        gc_by_thread: dict[int, list] = defaultdict(list)
        for tid, start, end in self.gc_intervals:
            gc_by_thread[tid].append((start, end))
        self.gc_collections = 0
        for tid in by_thread:
            by_thread[tid], pauses = _carve(
                sorted(by_thread[tid]), sorted(gc_by_thread[tid])
            )
            self.gc_collections += pauses

        seconds: dict[str, float] = defaultdict(float)
        windows = []
        for start, end, layer in by_thread.pop(self._main, []):
            if layer == PIPELINE_RUN:
                windows.append((start, end))
            else:
                seconds[layer] += end - start
        workers = [seg for segs in by_thread.values() for seg in segs]
        for layer, amount in _split_windows(windows, workers).items():
            seconds[layer] += amount
        return dict(seconds)


def _carve(segments: list, gcs: list) -> tuple[list, int]:
    """Split GC pauses out of one thread's sorted, disjoint segments.

    Returns the new segments and how many pauses fell inside them.
    """
    if not gcs:
        return segments, 0
    out = []
    hit = set()
    g = 0
    for start, end, layer in segments:
        while g < len(gcs) and gcs[g][1] <= start:
            g += 1
        cursor = start
        j = g
        while j < len(gcs) and gcs[j][0] < end:
            gs, ge = max(gcs[j][0], start), min(gcs[j][1], end)
            if gs > cursor:
                out.append((cursor, gs, layer))
            if ge > gs:
                out.append((gs, ge, GC))
                hit.add(j)
            cursor = max(cursor, ge)
            j += 1
        if end > cursor:
            out.append((cursor, end, layer))
    return out, len(hit)


def _split_windows(windows: list, workers: list) -> dict[str, float]:
    """Share each pipeline window among the stage-thread layers active in it."""
    seconds: dict[str, float] = defaultdict(float)
    if not windows:
        return seconds
    windows.sort()
    starts = [w[0] for w in windows]
    events: dict[int, list] = defaultdict(list)
    for start, end, layer in workers:
        index = bisect.bisect_right(starts, (start + end) / 2) - 1
        if index < 0:
            continue
        ws, we = windows[index]
        start, end = max(start, ws), min(end, we)
        if end > start:
            events[index].append((start, 1, layer))
            events[index].append((end, -1, layer))
    for index, (ws, we) in enumerate(windows):
        active: dict[str, int] = defaultdict(int)
        total = 0
        cursor = ws
        for time, delta, layer in sorted(events.get(index, ()), key=lambda e: (e[0], e[1])):
            _share(seconds, active, total, time - cursor)
            cursor = time
            active[layer] += delta
            total += delta
        _share(seconds, active, total, we - cursor)
    return seconds


def _share(seconds, active, total, dt) -> None:
    if dt <= 0:
        return
    if total <= 0:
        seconds[PIPELINE_WAIT] += dt
        return
    for layer, count in active.items():
        if count:
            seconds[layer] += dt * count / total
