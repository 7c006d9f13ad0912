"""Wall-clock benchmark of the checkpoint system: save, restore, replicate.

Usage, from the repository root::

    python3 perfbench/run.py --workload ec-bulk --seed 0 --seconds 12 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``ec-bulk``       -- ECCheck engine, 17 MiB of state, a save every
  iteration under a tier policy, a failure after every third save;
* ``stream-sparse`` -- hybrid engine (EC base + gradient tail), 2.3 MiB,
  a save every 8 iterations and replication on the others, sparse
  updates, a failure every 10 iterations;
* ``fleet-churn``   -- back-to-back multi-tenant fleet episodes.

Every operation is timed in plain wall seconds.  The share of the
machine's CPU time the hypervisor stole during the run (``/proc/stat``)
is printed with each run, and a run above ``hostclock.STEAL_WARN_PCT``
is flagged, since noisy neighbours on a shared virtual machine inflate
its times.

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` runs the same workload with every layer entry point wrapped,
prints the per-layer wall budget, then re-runs the same work unwrapped to
report the tracing overhead.  Human-readable lines go first; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every output was correct.
"""

from time import perf_counter

_STARTED = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from hostclock import STEAL_WARN_PCT, StealMeter  # noqa: E402
from inputs import WORKLOADS, make_inputs  # noqa: E402

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"
STATE_DIR = CHECKOUT / ".perfbench_state"

#: Set-up samples per run: this process plus fresh child processes.
SETUP_SAMPLES = 5
#: A p90 is reported only with at least ten samples beyond it.
P90_MIN_SAMPLES = 100

END_TO_END = (
    ("setup_s", "s"),
    ("iters_per_s", "1/s"),
    ("save_ms_p50", "ms"),
    ("peak_rss_mib", "MiB"),
)

PER_LAYER = (
    ("protocol.decompose_s", "s"),
    ("protocol.decompose_calls", "count"),
    ("protocol.recompose_s", "s"),
    ("protocol.encode_packet_s", "s"),
    ("protocol.xor_reduce_s", "s"),
    ("ec.encode_s", "s"),
    ("ec.encode_mib", "MiB"),
    ("ec.decode_s", "s"),
    ("ec.decode_mib", "MiB"),
    ("ec.decode_cache_hit_ratio", "ratio"),
    ("ec.decode_cache_hits", "count"),
    ("ec.decode_cache_lookups", "count"),
    ("ec.autotune_hits", "count"),
    ("ec.autotune_misses", "count"),
    ("integrity.crc_s", "s"),
    ("integrity.crc_mib", "MiB"),
    ("pipeline.run_s", "s"),
    ("pipeline.runs", "count"),
    ("pipeline.stage_s", "s"),
    ("pipeline.wait_s", "s"),
    ("storage.put_s", "s"),
    ("storage.put_mib", "MiB"),
    ("storage.get_s", "s"),
    ("storage.resident_mib", "MiB"),
    ("tier.demote_s", "s"),
    ("tier.demote_mib", "MiB"),
    ("tier.evict_s", "s"),
    ("eccheck.save_s", "s"),
    ("eccheck.restore_s", "s"),
    ("gradrep.save_s", "s"),
    ("gradrep.restore_s", "s"),
    ("gradrep.replicate_s", "s"),
    ("gradrep.delta_s", "s"),
    ("gradrep.log_append_s", "s"),
    ("gradrep.replay_s", "s"),
    ("gradrep.dirty_ratio", "ratio"),
    ("gradrep.replay_ratio", "ratio"),
    ("job.create_s", "s"),
    ("job.advance_s", "s"),
    ("job.snapshot_s", "s"),
    ("sim.network_s", "s"),
    ("sim.network_calls", "count"),
    ("sim.event_loop_s", "s"),
    ("sim.events_processed", "count"),
    ("sim.arbiter_s", "s"),
    ("elastic.on_failure_s", "s"),
    ("elastic.repair_s", "s"),
    ("elastic.reconfigure_s", "s"),
    ("elastic.reconfigures", "count"),
    ("oracle.judge_s", "s"),
    ("manager.step_s", "s"),
    ("manager.on_failure_s", "s"),
    ("runtime.gc_s", "s"),
    ("runtime.gc_collections", "count"),
    ("unattributed_s", "s"),
    ("traced_wall_s", "s"),
    ("tracing_overhead_pct", "%"),
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="internal: set up once, print the set-up time and exit",
    )
    return parser.parse_args(argv)


def _isolate_environment() -> Path:
    """Give the run its own scratch directory inside the checkout.

    It holds the reference snapshots of the correctness gate and the
    run's autotune cache path: a stale ``.repro_autotune.json`` in the
    working directory would switch kernel variants; a fresh, never-written
    path pins the defaults.
    """
    scratch = STATE_DIR / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_AUTOTUNE_CACHE"] = str(scratch / "autotune.json")
    return scratch


def _setup_seconds() -> float:
    """Wall seconds since this process started."""
    return perf_counter() - _STARTED


def _median(values):
    return statistics.median(values) if values else None


def _p90(values):
    if len(values) < P90_MIN_SAMPLES:
        return None
    return statistics.quantiles(values, n=10)[-1]


def _provenance() -> dict:
    from repro.obs.provenance import provenance_stamp

    # Keep git from searching above the checkout.
    os.environ.setdefault("GIT_CEILING_DIRECTORIES", str(CHECKOUT.parent))
    import numpy

    stamp = provenance_stamp(str(CHECKOUT))
    stamp.update(
        nproc=os.cpu_count(),
        python=platform.python_version(),
        numpy=numpy.__version__,
    )
    return stamp


# ----------------------------------------------------------------------
def _setup(workload, inputs):
    import workloads

    if workload == "fleet-churn":
        return workloads.setup_fleet(inputs)
    return workloads.setup_job(workload, inputs)


def _measure(workload, inputs, state, seconds, scratch, root=None, amount=None):
    import workloads

    if workload == "fleet-churn":
        return workloads.run_fleet(inputs, state, seconds, root=root, episodes=amount)
    return workloads.run_job(
        workload, inputs, state, seconds, scratch, root=root, iterations=amount
    )


def _setup_in_children(args, count: int) -> list[float]:
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", args.workload, "--seed", str(args.seed),
                "--setup-probe",
            ],
            cwd=str(CHECKOUT),
            capture_output=True,
            text=True,
            timeout=150,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def _line(name, value, unit, samples=None):
    count = "" if samples is None else f"  (n={samples})"
    if isinstance(value, float):
        value = f"{value:.6g}"
    print(f"  {name:<28} {value:>14} {unit}{count}")


def _untraced(args, inputs, scratch) -> tuple[dict, object]:
    state = _setup(args.workload, inputs)
    setups = [_setup_seconds()]
    setups += _setup_in_children(args, SETUP_SAMPLES - 1)
    result = _measure(args.workload, inputs, state, args.seconds, scratch)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    restores = result.restore_s["decode"] + result.restore_s["survive"]
    metrics = {
        "setup_s": _median(setups),
        "iters_per_s": result.iterations / result.op_wall,
        "save_ms_p50": _ms(_median(result.save_s)),
        "peak_rss_mib": rss_mib,
    }
    print(f"workload {args.workload}  seed {args.seed}  trace 0")
    _line("setup_s", metrics["setup_s"], "s", len(setups))
    _line("iters_per_s", metrics["iters_per_s"], "1/s", result.iterations)
    for name, values in (
        ("save_ms", result.save_s),
        ("replicate_ms", result.replicate_s),
        ("restore_ms", restores),
        ("restore_decode_ms", result.restore_s["decode"]),
        ("restore_survive_ms", result.restore_s["survive"]),
    ):
        if not values:
            continue
        _line(f"{name}_p50", _ms(_median(values)), "ms", len(values))
        if _p90(values) is not None:
            _line(f"{name}_p90", _ms(_p90(values)), "ms", len(values))
    _line("peak_rss_mib", rss_mib, "MiB")
    _line(
        "failed_op_ratio",
        result.failed / result.attempted if result.attempted else 0.0,
        "ratio",
        result.attempted,
    )
    return metrics, result


def _ms(seconds):
    return None if seconds is None else seconds * 1e3


def _traced(args, inputs, scratch) -> tuple[dict, object, list[str]]:
    import layers
    from repro.ec.autotune import autotune_cache_info

    state = _setup(args.workload, inputs)
    autotune_before = autotune_cache_info()
    with layers.LayerTracer() as tracer:
        result = _measure(
            args.workload, inputs, state, args.seconds, scratch, root=tracer.root
        )
    autotune_after = autotune_cache_info()
    del state
    gc.collect()
    amount = result.episodes if args.workload == "fleet-churn" else result.iterations
    baseline = _measure(
        args.workload, inputs, _setup(args.workload, inputs), args.seconds,
        scratch, amount=amount,
    )
    problems = []
    if baseline.digest != result.digest:
        problems.append(
            f"traced digest {result.digest} != untraced digest {baseline.digest}"
        )
    if baseline.failed:
        problems.extend(baseline.errors)

    budget = tracer.budget()
    wall = tracer.root_wall
    gap = wall - sum(budget.values())
    reconciles = abs(gap) <= 1e-6 * max(wall, 1.0)
    if not reconciles:
        problems.append(f"layer budget misses the traced wall by {gap:.3g} s")
    counts = tracer.counts
    metrics = {
        f"{layer}_s": budget.get(layer, 0.0)
        for layer in layers.BUDGET_LAYERS
        if layer not in (layers.ROOT, layers.GC)
    }
    lookups = counts["ec.decode_cache_lookups"]
    total_blocks = counts["gradrep.total_blocks"]
    metrics.update({
        "protocol.decompose_calls": counts["protocol.decompose.calls"],
        "ec.encode_mib": counts["ec.encode_bytes"] / layers.MIB,
        "ec.decode_mib": counts["ec.decode_bytes"] / layers.MIB,
        "ec.decode_cache_hit_ratio": (
            counts["ec.decode_cache_hits"] / lookups if lookups else 0.0
        ),
        "ec.decode_cache_hits": counts["ec.decode_cache_hits"],
        "ec.decode_cache_lookups": lookups,
        "ec.autotune_hits": autotune_after["hits"] - autotune_before["hits"],
        "ec.autotune_misses": autotune_after["misses"] - autotune_before["misses"],
        "integrity.crc_mib": counts["integrity.crc_bytes"] / layers.MIB,
        "pipeline.run_s": tracer.inclusive[layers.PIPELINE_RUN],
        "pipeline.runs": counts[layers.PIPELINE_RUN + ".calls"],
        "storage.put_mib": counts["storage.put_bytes"] / layers.MIB,
        "storage.resident_mib": counts["storage.resident_bytes"] / layers.MIB,
        "tier.demote_mib": counts["tier.demote_bytes"] / layers.MIB,
        "gradrep.dirty_ratio": (
            counts["gradrep.dirty_blocks"] / total_blocks if total_blocks else 0.0
        ),
        "gradrep.replay_ratio": (
            result.replayed / result.replay_window if result.replay_window else 0.0
        ),
        "sim.network_calls": counts["sim.network.calls"],
        "sim.events_processed": counts["sim.events_processed"],
        "elastic.reconfigures": counts["elastic.reconfigure.calls"],
        "runtime.gc_s": budget.get(layers.GC, 0.0),
        "runtime.gc_collections": tracer.gc_collections,
        "unattributed_s": budget.get(layers.ROOT, 0.0),
        "traced_wall_s": wall,
        "tracing_overhead_pct": (
            100.0 * (result.op_wall / baseline.op_wall - 1.0)
            if baseline.op_wall else 0.0
        ),
    })

    print(f"workload {args.workload}  seed {args.seed}  trace 1")
    print(f"layer budget over {wall:.3f} s of traced operation wall time:")
    ranked = sorted(
        ((name, budget.get(name, 0.0)) for name in layers.BUDGET_LAYERS
         if name != layers.ROOT),
        key=lambda item: -item[1],
    )
    for name, seconds in ranked:
        if seconds > 0:
            print(f"  {name:<24} {seconds:10.4f} s  {100 * seconds / wall:6.2f} %")
    unattributed = budget.get(layers.ROOT, 0.0)
    print(f"  {'unattributed':<24} {unattributed:10.4f} s  "
          f"{100 * unattributed / wall:6.2f} %")
    print(f"  budget sum - traced wall = {-gap:.3g} s "
          f"({'reconciles' if reconciles else 'MISMATCH'})")
    print(f"  same work: traced {result.op_wall:.3f} s, untraced "
          f"{baseline.op_wall:.3f} s, tracing overhead "
          f"{metrics['tracing_overhead_pct']:.1f} %")
    return metrics, result, problems


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    scratch = _isolate_environment()
    try:
        return _run(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            STATE_DIR.rmdir()
        except OSError:
            pass  # another run still owns a directory there


def _run(args, scratch) -> int:
    inputs = make_inputs(args.workload, args.seed)
    if args.setup_probe:
        _setup(args.workload, inputs)
        print(json.dumps({"setup_s": _setup_seconds()}))
        return 0
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    problems: list[str] = []
    steal = StealMeter()
    if args.trace:
        metrics, result, problems = _traced(args, inputs, scratch)
        wanted = PER_LAYER
    else:
        metrics, result = _untraced(args, inputs, scratch)
        wanted = END_TO_END
    stolen_pct = steal.percent()
    _line("hypervisor_steal_pct", stolen_pct, "% of machine CPU")
    if stolen_pct > STEAL_WARN_PCT:
        print(f"  WARNING: the hypervisor stole {stolen_pct:.1f} % of the "
              f"machine's CPU time during this run; its wall times are inflated")
    if result.digest is None:
        problems.append("run ended before the digest prefix was complete")
    for name, _ in wanted:
        if metrics.get(name) is None:
            problems.append(f"metric {name} has no samples")
    problems.extend(result.errors)
    print(f"  behaviour digest {result.digest}")
    print(f"  provenance {json.dumps(_provenance(), sort_keys=True)}")
    for problem in problems:
        print(f"  FAILED: {problem}")
    correct = result.failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, result.attempted),
        "failed": result.failed + (0 if correct or result.failed else 1),
        "metrics": {
            name: {"value": metrics.get(name), "unit": unit} for name, unit in wanted
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
