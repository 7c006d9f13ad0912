"""Plain wall timing, and the hypervisor-steal share printed beside it."""

import pytest

import hostclock


def test_plain_root_returns_result_and_wall():
    result, wall = hostclock.plain_root(lambda x: x + 1, 1)
    assert result == 2
    assert wall >= 0.0


def test_steal_share_is_stolen_over_all_cpu_ticks(monkeypatch):
    readings = iter([(100, 10_000), (150, 11_000)])
    monkeypatch.setattr(hostclock, "cpu_ticks", lambda: next(readings))
    meter = hostclock.StealMeter()
    assert meter.percent() == pytest.approx(5.0)


def test_steal_share_without_counters_is_zero(monkeypatch):
    monkeypatch.setattr(hostclock, "cpu_ticks", lambda: (0, 0))
    assert hostclock.StealMeter().percent() == 0.0


def test_cpu_ticks_are_monotonic():
    stolen, total = hostclock.cpu_ticks()
    later_stolen, later_total = hostclock.cpu_ticks()
    assert later_stolen >= stolen >= 0
    assert later_total >= total >= 0
