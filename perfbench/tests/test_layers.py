"""The layer tracer: clean install/uninstall and a budget that reconciles."""

import sys
import threading

import numpy as np

import layers
import workloads  # noqa: F401 — loads every module the targets live in
from repro.core import integrity
from repro.core.pipeline import PipelinedRunner


def _module_attributes():
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
        for attr, value in list(vars(module).items())
    }


def _class_attributes():
    out = {}
    for target in layers.TARGETS:
        owner = layers._resolve(target.owner)
        if isinstance(owner, type):
            out[(target.owner, target.attr)] = vars(owner).get(target.attr)
            out[(target.owner, "__init__")] = vars(owner).get("__init__")
    return out


def test_uninstall_restores_every_wrapped_attribute():
    modules, classes = _module_attributes(), _class_attributes()
    tracer = layers.LayerTracer().install()
    try:
        assert integrity.chunk_digest is not modules[("repro.core.integrity", "chunk_digest")]
        import repro.core.eccheck as eccheck

        assert eccheck.build_worker_checkpoint.__wrapped__ is (
            modules[("repro.core.eccheck", "build_worker_checkpoint")]
        )
        assert "__init__" in vars(PipelinedRunner)
    finally:
        tracer.uninstall()
    after_modules, after_classes = _module_attributes(), _class_attributes()
    for key, value in modules.items():
        assert after_modules[key] is value, key
    for key, value in classes.items():
        assert after_classes[key] is value, key
    assert tracer._on_gc not in __import__("gc").callbacks


def test_inherited_methods_are_unshadowed_after_uninstall():
    from repro.checkpoint.storage import HostMemoryStore

    assert "put" not in vars(HostMemoryStore)
    with layers.LayerTracer():
        assert "put" in vars(HostMemoryStore)
    assert "put" not in vars(HostMemoryStore)


def test_calls_outside_a_root_are_not_recorded():
    with layers.LayerTracer() as tracer:
        integrity.chunk_digest(np.zeros(64, dtype=np.uint8))
    assert tracer.segments == []
    assert tracer.budget() == {}


def _pipelined(payload):
    runner = PipelinedRunner(
        lambda x: (integrity.chunk_digest(payload), x)[1],
        lambda x: x,
        lambda x: integrity.chunk_digest(payload),
    )
    return runner.run(list(range(8)))


def test_budget_reconciles_across_pipeline_threads():
    payload = np.arange(1 << 20, dtype=np.uint8)
    with layers.LayerTracer() as tracer:
        for _ in range(3):
            tracer.root(_pipelined, payload)
            tracer.root(integrity.chunk_digest, payload)
    budget = tracer.budget()
    assert abs(sum(budget.values()) - tracer.root_wall) < 1e-9 * max(1.0, tracer.root_wall)
    assert budget["integrity.crc"] > 0
    assert budget[layers.PIPELINE_STAGE] + budget[layers.PIPELINE_WAIT] > 0
    assert layers.PIPELINE_RUN not in budget
    assert tracer.counts["pipeline.run.calls"] == 3
    assert tracer.counts["integrity.crc.calls"] == 3 * 16 + 3


def test_gc_pauses_are_carved_out():
    segments = [(0.0, 1.0, "a"), (1.0, 2.0, "b")]
    carved, pauses = layers._carve(segments, [(0.5, 1.5)])
    assert pauses == 1
    assert carved == [
        (0.0, 0.5, "a"), (0.5, 1.0, layers.GC), (1.0, 1.5, layers.GC), (1.5, 2.0, "b"),
    ]


def test_pipeline_window_is_shared_among_active_stage_layers():
    workers = [(0.0, 2.0, "x"), (1.0, 2.0, "y")]
    shares = layers._split_windows([(0.0, 4.0)], workers)
    assert shares == {"x": 1.5, "y": 0.5, layers.PIPELINE_WAIT: 2.0}


def test_concurrent_callers_lose_no_counts():
    payload = np.zeros(64, dtype=np.uint8)
    calls_per_thread, threads = 300, 8

    def hammer():
        for _ in range(calls_per_thread):
            integrity.chunk_digest(payload)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with layers.LayerTracer() as tracer:
            workers = [threading.Thread(target=hammer) for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(worker.is_alive() for worker in workers)
    assert tracer.counts["integrity.crc.calls"] == calls_per_thread * threads
    assert tracer.counts["integrity.crc_bytes"] == 64 * calls_per_thread * threads
