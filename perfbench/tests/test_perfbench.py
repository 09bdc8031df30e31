"""Tests of the benchmark's own machinery.

    python3 -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
PERFBENCH = HERE.parent
ROOT = PERFBENCH.parent
sys.path.insert(0, str(PERFBENCH))

import compare  # noqa: E402
import gauge  # noqa: E402
import harness  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402


class FakeClock:
    """Each call advances time by the next step."""

    def __init__(self, steps):
        self.steps = iter(steps)
        self.now = 0.0

    def __call__(self):
        self.now += next(self.steps)
        return self.now


def test_self_time_of_nested_calls():
    # outer(0..10) calls a(1..4) and b(5..9); a calls c(2..3)
    clock = FakeClock([0, 1, 1, 1, 1, 1, 4, 1])
    tracer = spans.Tracer(clock=clock)

    def c():
        return None

    def a():
        tracer.call("c", c, (), {})

    def b():
        return None

    def outer():
        tracer.call("a", a, (), {})
        tracer.call("b", b, (), {})

    tracer.call("outer", outer, (), {})
    by_name = {s.name: s for s in tracer.spans}
    assert [(s.name, s.start, s.end) for s in tracer.spans] == [
        ("outer", 0, 10), ("a", 1, 4), ("c", 2, 3), ("b", 5, 9)]
    assert tracer.spans[by_name["c"].parent].name == "a"
    assert tracer.spans[by_name["a"].parent].name == "outer"
    selfs = dict(zip((s.name for s in tracer.spans), spans.self_times(tracer.spans)))
    assert selfs == {"outer": 10 - 3 - 4, "a": 3 - 1, "c": 1, "b": 4}
    totals = spans.layer_totals(tracer.spans)
    assert totals["outer"]["incl_s"] == 10 and totals["outer"]["self_s"] == 3


def test_overlapping_children_are_covered_once():
    assert spans._covered([(0, 4), (2, 6), (8, 9)]) == 7


def test_tail_percentile_needs_ten_items_beyond():
    assert stats.tail([]) is None
    assert stats.tail(list(range(19))) is None  # p47: below the median, not a tail
    pct, value, n = stats.tail(list(range(20)))
    assert (pct, value, n) == (50.0, 9, 20)
    pct, value, n = stats.tail(list(range(100, 0, -1)))
    assert (pct, value, n) == (90.0, 90, 100)
    assert sum(v > value for v in range(1, 101)) == 10


def test_quartiles_match_statistics():
    assert stats.quartiles([5.0]) == (5.0, 5.0, 5.0)
    assert stats.quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])[1] == 5.5


def _fake_clock(monkeypatch):
    """Make the harness's clock a number that only ``advance`` moves."""
    now = [0.0]
    monkeypatch.setattr(harness, "clock", lambda: now[0])

    def advance(seconds):
        now[0] += seconds
    return advance


def test_set_ups_between_items_are_not_item_time(monkeypatch):
    advance = _fake_clock(monkeypatch)
    set_ups = []
    hook = harness.every(2.5, lambda: (set_ups.append(harness.clock()), advance(5)))
    items = [SimpleNamespace(run=lambda: advance(1))] * 3
    results, elapsed, rounds = harness.run_rounds(items, seconds=5, before_item=hook)
    assert (rounds, elapsed) == (2, 6)
    assert [r.seconds for r in results] == [1] * 6
    assert set_ups == [3]  # before the first item after 2.5 s had passed


def test_traced_rounds_alternate_in_balanced_pairs(monkeypatch):
    advance = _fake_clock(monkeypatch)
    log = []

    def patch(tracer):
        log.append("T")
        return lambda: None

    def run():
        log.append("x")
        advance(1)

    monkeypatch.setattr(harness.spans, "patch", patch)
    items = [SimpleNamespace(run=run)]
    meter = SimpleNamespace(sample=lambda: log.append("g"))
    plain, plain_s, traced, traced_s, pairs = harness.alternate(items, 1.5, spans.Tracer(),
                                                                meter)
    # 1.5 s of plain rounds takes two pairs, and their number must be even anyway;
    # the gauge is read before every round
    assert "".join(log).replace("Tx", "T").replace("x", "P") == "gPgTgTgP"
    assert (pairs, plain_s, traced_s, len(plain), len(traced)) == (2, 2, 2, 2, 2)


def test_gauge_scales_times_to_the_reference_speed():
    meter = gauge.Gauge(gauge.mixed)
    meter.samples = [gauge.NOMINAL_S * x for x in (2, 4, 3)]  # 3x the nominal time
    assert meter.scale() == pytest.approx(1 / 3)
    results = [harness.Result(_Item("a", False), 0.6, "ok", None)] * 2
    raw, _ = harness.end_to_end(results, 1.2, [0.3], 0.0)
    scaled, _ = harness.end_to_end(results, 1.2, [0.3], 0.0, scale=1 / 3)
    assert raw["items_per_s"] == pytest.approx(2 / 1.2)
    assert scaled["items_per_s"] == pytest.approx(2 / 0.4)
    assert scaled["setup_s"] == pytest.approx(0.1)
    assert scaled["item_p50_ms"] == pytest.approx(200)
    assert scaled["peak_rss_mb"] == raw["peak_rss_mb"] and scaled["failed_frac"] == 0.0
    totals = {"exact.det.gf": {"calls": 2, "self_s": 0.6, "incl_s": 0.6, "qty": 30}}
    layer = harness.per_layer(totals, 1, 2, 1.1, 1.0, scale=1 / 3)
    assert layer["exact.det.gf.self_s"] == pytest.approx(0.2)
    assert layer["exact.det.self_s"] == pytest.approx(0.2)
    assert layer["exact.det.gf.ops_per_s"] == pytest.approx(30 / 0.2)
    assert layer["exact.det.gf.calls"] == 2
    assert layer["trace_overhead_frac"] == pytest.approx(0.1)


class _Item:
    def __init__(self, id, seeded):
        self.id, self.seeded = id, seeded


def test_corrupted_expected_value_fails_items():
    expected = {"seed": 0, "items": {"a": "det=0", "b": "det=1"}}
    results = [harness.Result(_Item("a", True), 0.1, "det=0", None),
               harness.Result(_Item("b", False), 0.1, "det=1", None)]
    assert harness.failures(results, expected, seed=0) == []
    corrupted = {"seed": 0, "items": {"a": "det=0", "b": "det=2"}}
    assert len(harness.failures(results, corrupted, seed=0)) == 1
    # a seeded item is compared only at the recorded seed; an unseeded one always
    corrupted_a = {"seed": 0, "items": {"a": "det=9", "b": "det=1"}}
    assert harness.failures(results, corrupted_a, seed=5) == []
    assert len(harness.failures(results, corrupted, seed=5)) == 1


def test_corrupted_expected_value_gives_failed_frac(tmp_path, monkeypatch):
    """A full run of the cheapest workload against a corrupted record."""
    good = json.loads((PERFBENCH / "expected" / "cli-files.json").read_text())
    bad = json.loads(json.dumps(good))
    bad["items"]["layout-csv"] = "exit=0 bytes=1 sha256=0"
    (tmp_path / "cli-files.json").write_text(json.dumps(bad))
    monkeypatch.setattr(harness, "EXPECTED_DIR", tmp_path)
    monkeypatch.setattr(harness, "SETUP_REPEATS", 1)
    record = harness.run_workload("cli-files", 1, 0.01, False, ROOT)
    assert record["failed"] == record["rounds"]  # layout-csv once per round
    assert record["metrics"]["failed_frac"] > 0
    assert any(f.startswith("layout-csv:") for f in record["failures"])


def test_verdicts():
    parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    assert compare.verdict(parent, [v * 1.5 for v in parent], "higher", 0.1)[0] == "better"
    assert compare.verdict(parent, [v * 0.5 for v in parent], "higher", 0.1)[0] == "worse"
    assert compare.verdict(parent, parent[::-1], "higher", 0.1)[0] == "within bound"
    # a loss on every pair that stays inside the bound is not a regression
    assert compare.verdict(parent, [v * 0.97 for v in parent], "higher", 0.1)[0] == "within bound"
    assert compare.verdict(parent, [v * 0.97 for v in parent], "higher", None)[0] == "worse"
    noisy = [50, 150, 80, 120, 100, 60, 140, 90, 110, 100]
    assert compare.verdict(noisy, noisy[::-1], "lower", 0.1)[0] == "unresolved"
    assert compare.verdict([3] * 4, [3] * 4, "lower", None)[0] == "within bound"
    assert compare.verdict([3] * 4, [2] * 4, "lower", None)[0] == "better"


def test_benchmark_json_agrees_with_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert stats.describe(m["name"]) == (m["unit"], m["better"]), m["name"]
    assert {w["name"] for w in spec["workloads"]} == set(harness.WORKLOADS)
