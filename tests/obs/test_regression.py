"""Bench history + regression gate: entries, baselines, noise bounds,
and the CLI exit-code contract CI's perf gate relies on."""

import io
import json

import pytest

from repro.cli import main as cli_main
from repro.errors import ReproError
from repro.obs.regression import (
    TRACKED_PATHS,
    append_history,
    check_ratchet,
    check_regression,
    history_entry,
    load_history,
    render_ratchet,
    render_result,
)


def bench_doc(fast=1000.0, pool=1800.0, decode=900.0, payload=4.0, host=None):
    """A synthetic encode-throughput results document."""
    doc = {
        "benchmark": "encode_throughput",
        "payload_mib": payload,
        "repeats": 2,
        "quick": True,
        "shapes": [
            {
                "k": 12,
                "m": 4,
                "w": 8,
                "throughput_mib_s": {
                    "fast_encode": fast,
                    "pool_encode": pool,
                    "proc_encode": 2.2 * pool,
                    "fast_decode": decode,
                    "reference_encode": 150.0,  # untracked, must be dropped
                },
            }
        ],
    }
    if host is not None:
        doc["provenance"] = {"hostname": host, "git_sha": "0" * 40}
    return doc


class TestHistoryEntry:
    def test_entry_shape_and_provenance(self):
        entry = history_entry(bench_doc())
        assert entry["schema"] == 1
        for key in ("git_sha", "timestamp_utc", "hostname", "python", "numpy"):
            assert key in entry["provenance"], key
        (shape,) = entry["shapes"]
        assert set(shape["throughput_mib_s"]) == set(TRACKED_PATHS)
        assert "payload=4.0" in shape["context"]
        assert "shape=(12,4,8)" in shape["context"]

    def test_rejects_foreign_documents(self):
        with pytest.raises(ReproError):
            history_entry({"benchmark": "something_else"})

    def test_append_and_load_round_trip(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        append_history(bench_doc(fast=1000.0), str(path))
        append_history(bench_doc(fast=1010.0), str(path))
        entries = load_history(str(path))
        assert len(entries) == 2
        assert (
            entries[1]["shapes"][0]["throughput_mib_s"]["fast_encode"] == 1010.0
        )

    def test_load_missing_is_empty(self, tmp_path):
        assert load_history(str(tmp_path / "absent.jsonl")) == []

    def test_load_rejects_corrupt_lines(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        path.write_text('{"ok": 1}\nnot json\n')
        with pytest.raises(ReproError):
            load_history(str(path))


def _history(*fast_values):
    return [history_entry(bench_doc(fast=v)) for v in fast_values]


class TestCheckRegression:
    def test_twenty_percent_slowdown_is_flagged(self):
        result = check_regression(_history(1000.0, 1005.0, 995.0, 800.0))
        assert not result.ok
        (regressed,) = [d for d in result.regressions if d.path == "fast_encode"]
        assert regressed.delta_fraction == pytest.approx(-0.2)
        assert regressed.baseline == pytest.approx(1000.0)

    def test_stable_run_passes(self):
        result = check_regression(_history(1000.0, 1005.0, 995.0, 1002.0))
        assert result.ok
        assert len(result.deltas) == len(TRACKED_PATHS)

    def test_improvement_passes(self):
        assert check_regression(_history(1000.0, 1300.0)).ok

    def test_first_run_is_fresh(self):
        result = check_regression(_history(1000.0))
        assert result.ok
        assert not result.deltas
        assert len(result.fresh) == len(TRACKED_PATHS)

    def test_noise_bound_raises_the_gate(self):
        # Baseline jitters by 20%: an 18% drop from the median must not
        # page (effective threshold = 2 x spread = 40%)...
        noisy = _history(1000.0, 800.0, 1200.0, 820.0)
        result = check_regression(noisy)
        assert result.ok
        delta = [d for d in result.deltas if d.path == "fast_encode"][0]
        assert delta.threshold == pytest.approx(0.4)
        # ...but a slowdown beyond even the widened gate still does.
        assert not check_regression(_history(1000.0, 800.0, 1200.0, 550.0)).ok

    def test_window_limits_the_baseline(self):
        history = _history(2000.0, 1000.0, 1000.0, 700.0)
        # Full window: the stale 2000 run widens the noise bound enough
        # to pass; a window of 2 sees only the stable recent runs and
        # flags the 30% drop.
        assert check_regression(history).ok
        assert not check_regression(history, window=2).ok

    def test_contexts_never_cross_baseline(self):
        history = [
            history_entry(bench_doc(fast=2000.0, payload=64.0)),
            history_entry(bench_doc(fast=1000.0, payload=4.0)),
        ]
        result = check_regression(history)
        assert result.ok
        assert not result.deltas  # different context => fresh, not compared
        assert result.fresh

    def test_empty_history_raises(self):
        with pytest.raises(ReproError):
            check_regression([])

    def test_bad_window_raises(self):
        with pytest.raises(ReproError):
            check_regression(_history(1.0, 2.0), window=0)

    def test_render_mentions_regressions(self):
        result = check_regression(_history(1000.0, 1000.0, 800.0))
        text = render_result(result)
        assert "REGRESS" in text
        assert "regression(s)" in text
        ok_text = render_result(check_regression(_history(1000.0, 1000.0)))
        assert "no regressions" in ok_text


class TestBenchHistoryCli:
    def run(self, *argv):
        out = io.StringIO()
        code = cli_main(list(argv), out=out)
        return code, out.getvalue()

    def _record(self, tmp_path, doc, name="bench.json"):
        input_path = tmp_path / name
        input_path.write_text(json.dumps(doc))
        return self.run(
            "bench-history",
            "--input",
            str(input_path),
            "--history",
            str(tmp_path / "hist.jsonl"),
        )

    def test_synthetic_slowdown_exits_nonzero(self, tmp_path):
        # The acceptance criterion: a 20% throughput drop must fail the gate.
        code, _ = self._record(tmp_path, bench_doc(fast=1000.0))
        assert code == 0
        code, _ = self._record(tmp_path, bench_doc(fast=1003.0))
        assert code == 0
        code, output = self._record(tmp_path, bench_doc(fast=800.0))
        assert code == 1
        assert "REGRESS" in output
        # History keeps all three runs, regression or not.
        assert len(load_history(str(tmp_path / "hist.jsonl"))) == 3

    def test_worker_encode_row_is_recorded_untracked(self, tmp_path):
        # bench-encode's worker_encode path rides along in the document;
        # the history keeps only TRACKED_PATHS, so the gate is unchanged.
        doc = bench_doc()
        doc["shapes"][0]["throughput_mib_s"]["worker_encode"] = 400.0
        code, _ = self._record(tmp_path, doc)
        assert code == 0
        (entry,) = load_history(str(tmp_path / "hist.jsonl"))
        assert set(entry["shapes"][0]["throughput_mib_s"]) == set(TRACKED_PATHS)

    def test_first_run_reports_no_baseline(self, tmp_path):
        code, output = self._record(tmp_path, bench_doc())
        assert code == 0
        assert "recorded run" in output
        assert "no baseline yet" in output

    def test_check_only_gates_without_appending(self, tmp_path):
        self._record(tmp_path, bench_doc(fast=1000.0))
        self._record(tmp_path, bench_doc(fast=790.0))
        history_path = tmp_path / "hist.jsonl"
        before = history_path.read_text()
        code, output = self.run(
            "bench-history", "--check-only", "--history", str(history_path)
        )
        assert code == 1
        assert "REGRESS" in output
        assert history_path.read_text() == before

    def test_missing_input_exits_two(self, tmp_path):
        code, _ = self.run(
            "bench-history",
            "--input",
            str(tmp_path / "absent.json"),
            "--history",
            str(tmp_path / "hist.jsonl"),
        )
        assert code == 2

    def test_check_only_without_history_exits_two(self, tmp_path):
        code, _ = self.run(
            "bench-history",
            "--check-only",
            "--history",
            str(tmp_path / "absent.jsonl"),
        )
        assert code == 2

    def test_threshold_flag_tightens_the_gate(self, tmp_path):
        input_path = tmp_path / "bench.json"
        input_path.write_text(json.dumps(bench_doc(fast=1000.0)))
        history = tmp_path / "hist.jsonl"
        assert (
            self.run(
                "bench-history", "--input", str(input_path), "--history", str(history)
            )[0]
            == 0
        )
        input_path.write_text(json.dumps(bench_doc(fast=920.0)))
        code, _ = self.run(
            "bench-history",
            "--input",
            str(input_path),
            "--history",
            str(history),
            "--threshold",
            "0.05",
        )
        assert code == 1


class TestCheckRatchet:
    def test_drop_below_floor_is_flagged(self):
        result = check_ratchet(_history(1000.0, 1003.0, 880.0))
        assert not result.ok
        (violation,) = [d for d in result.violations if d.path == "fast_encode"]
        assert violation.best == pytest.approx(1003.0)
        assert violation.floor == pytest.approx(902.7)

    def test_slow_drift_passes_rolling_but_not_ratchet(self):
        # Each run ~5% slower than the last: the rolling median follows
        # the drift down and never pages — the ratchet is why it can't.
        drifting = _history(1000.0, 950.0, 900.0, 860.0, 810.0)
        assert check_regression(drifting).ok
        assert not check_ratchet(drifting).ok

    def test_improvement_raises_the_floor(self):
        assert check_ratchet(_history(1000.0, 1500.0, 1400.0)).ok
        assert not check_ratchet(_history(1000.0, 1500.0, 1340.0)).ok

    def test_first_run_is_fresh(self):
        result = check_ratchet(_history(1000.0))
        assert result.ok
        assert not result.deltas
        assert len(result.fresh) == len(TRACKED_PATHS)

    def test_hosts_never_share_a_floor(self):
        history = [
            history_entry(bench_doc(fast=5000.0, host="bench-beast")),
            history_entry(bench_doc(fast=1000.0, host="laptop")),
        ]
        result = check_ratchet(history)
        assert result.ok
        assert not result.deltas  # different host => fresh floor
        # ...but the same host is gated against its own best.
        history.append(history_entry(bench_doc(fast=850.0, host="laptop")))
        assert not check_ratchet(history).ok

    def test_entries_without_hostname_are_skipped(self):
        anon = bench_doc(fast=1000.0)
        anon["provenance"] = {"git_sha": "0" * 40}  # no hostname
        history = [history_entry(anon), history_entry(anon)]
        result = check_ratchet(history)
        assert result.ok
        assert not result.deltas and not result.fresh

    def test_bad_ratio_raises(self):
        with pytest.raises(ReproError):
            check_ratchet(_history(1.0, 2.0), ratio=1.5)

    def test_empty_history_raises(self):
        with pytest.raises(ReproError):
            check_ratchet([])

    def test_render_mentions_violations(self):
        text = render_ratchet(check_ratchet(_history(1000.0, 1000.0, 800.0)))
        assert "RATCHET" in text
        assert "ratchet violation(s)" in text
        ok_text = render_ratchet(check_ratchet(_history(1000.0, 1000.0)))
        assert "ratchet floors hold" in ok_text


class TestRatchetCli:
    def run(self, *argv):
        out = io.StringIO()
        code = cli_main(list(argv), out=out)
        return code, out.getvalue()

    def _record(self, tmp_path, doc, *extra):
        input_path = tmp_path / "bench.json"
        input_path.write_text(json.dumps(doc))
        return self.run(
            "bench-history",
            "--input",
            str(input_path),
            "--history",
            str(tmp_path / "hist.jsonl"),
            *extra,
        )

    def test_within_noise_but_below_floor_exits_nonzero(self, tmp_path):
        assert self._record(tmp_path, bench_doc(fast=1000.0))[0] == 0
        # 12% down: inside the 15% rolling threshold, below the 90% floor.
        code, output = self._record(tmp_path, bench_doc(fast=880.0))
        assert code == 1
        assert "RATCHET" in output

    def test_no_ratchet_flag_skips_the_floor(self, tmp_path):
        assert self._record(tmp_path, bench_doc(fast=1000.0))[0] == 0
        code, output = self._record(
            tmp_path, bench_doc(fast=880.0), "--no-ratchet"
        )
        assert code == 0
        assert "RATCHET" not in output

    def test_ratchet_ratio_flag_loosens_the_floor(self, tmp_path):
        assert self._record(tmp_path, bench_doc(fast=1000.0))[0] == 0
        code, _ = self._record(
            tmp_path, bench_doc(fast=880.0), "--ratchet-ratio", "0.8"
        )
        assert code == 0

    def test_fast_decode_is_gated_too(self, tmp_path):
        assert self._record(tmp_path, bench_doc(decode=900.0))[0] == 0
        code, output = self._record(tmp_path, bench_doc(decode=790.0))
        assert code == 1
        assert "fast_decode" in output
