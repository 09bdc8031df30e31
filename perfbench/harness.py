"""Set-up, the timed loop, the traced loop and the metrics they give.

A run repeats whole rounds of a workload's items until ``seconds`` of item
time have passed, so every run measures the same mix of items.  With tracing on, plain
rounds and rounds with the span recorder installed alternate (plain then
traced, then traced then plain, ...), so that neither side gets the warmer
part of the process and the tracing cost is not an effect of run order.
Per-layer figures are given per round, so counts repeat exactly.
"""

from __future__ import annotations

import gc
import importlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import gauge
import spans
import stats
from workloads import WORKLOADS

MODULES = ("exact", "symcomb", "monad", "invariant", "gens", "cli")
# The gauge's reference for each workload whose timings are reported at the
# reference speed, matched to the kind of work its items do.  large-q-gf is
# left out: ~99% of its time is numpy elimination of large matrices, whose
# speed neither reference follows; in a ten-seed set scaling widened its
# spread from 0.05 to 0.17 while it narrowed the others' (0.13-0.17 to
# 0.03-0.08).  Its runs still read the mixed reference, for the record.
REFERENCE = {"orthogonal-sweep": gauge.mixed, "cli-files": gauge.mixed,
             "rational-exact": gauge.fractions}
SETUP_REPEATS = 5    # set-ups timed before the timed loop
SETUP_EVERY_S = 1.5  # and one more each time this much wall time has passed in it
EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
clock = time.perf_counter


class SetupError(RuntimeError):
    """The library could not be imported or the inputs could not be built."""


def import_monadlab(src: Path) -> SimpleNamespace:
    """Import monadlab afresh from ``src``, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "monadlab" or m.startswith("monadlab.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        pkg = importlib.import_module("monadlab")
    except ImportError as e:
        raise SetupError(f"cannot import monadlab from {src}: {e}") from None
    if Path(pkg.__file__).resolve().parent != (src / "monadlab").resolve():
        raise SetupError(f"imported monadlab from {pkg.__file__}, not from {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"monadlab.{m}") for m in MODULES})


def set_up(workload: str, seed: int, src: Path, workdir: Path) -> tuple:
    """Import monadlab afresh, generate the inputs and warm up; (items, seconds).

    The warm-up runs the round's first item once; every workload puts a
    cheap item first.  Garbage left by an earlier set-up is collected before
    the clock starts, so its teardown is not counted as set-up.
    """
    gc.collect()
    t0 = clock()
    ml = import_monadlab(src)
    items = WORKLOADS[workload](ml, seed, workdir)
    items[0].run()
    return items, clock() - t0


@dataclass
class Result:
    item: object
    seconds: float
    outcome: str | None
    error: str | None


def run_rounds(items: list, seconds: float = 0.0, rounds: int | None = None,
               before_item=None) -> tuple:
    """Whole rounds until ``seconds`` of item time have passed, or exactly ``rounds``.

    Only the items are timed, so time spent in ``before_item`` is not counted.
    """
    results = []
    done = 0
    elapsed = 0.0
    while True:
        for item in items:
            if before_item is not None:
                before_item(item)
            t0 = clock()
            try:
                outcome, error = item.run(), None
            except Exception as e:  # an item that raises is a failed item, not a crash
                outcome, error = None, f"{type(e).__name__}: {e}"
            t = clock() - t0
            results.append(Result(item, t, outcome, error))
            elapsed += t
        done += 1
        if done == rounds or (rounds is None and elapsed >= seconds):
            return results, elapsed, done


def every(interval_s: float, action):
    """A ``before_item`` hook that calls ``action`` each time ``interval_s`` has passed."""
    due = clock() + interval_s

    def hook(item):
        nonlocal due
        if clock() >= due:
            action()
            due = clock() + interval_s
    return hook


def load_expected(workload: str) -> dict:
    path = EXPECTED_DIR / f"{workload}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def failures(results: list, expected: dict, seed: int) -> list:
    """Messages for items that raised, failed a check or mismatched the record."""
    out = []
    for r in results:
        if r.error is not None:
            out.append(f"{r.item.id}: {r.error}")
            continue
        if r.item.seeded and seed != expected["seed"]:
            continue
        want = expected["items"].get(r.item.id)
        if want != r.outcome:
            out.append(f"{r.item.id}: outcome {r.outcome!r} != recorded {want!r}")
    return out


def end_to_end(results: list, elapsed: float, setup_times: list, failed_frac: float,
               scale: float = 1.0) -> tuple:
    """The end-to-end metrics and the tail percentile that was used.

    Every time is multiplied by ``scale`` (see :mod:`gauge`).
    """
    ms = [r.seconds * 1e3 * scale for r in results]
    metrics = {
        "items_per_s": len(results) / (elapsed * scale),
        "item_p50_ms": stats.quartiles(ms)[1],
        "setup_s": stats.quartiles(setup_times)[1] * scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failed_frac": failed_frac,
    }
    tail = stats.tail(ms)
    if tail is not None:
        metrics["item_tail_ms"] = tail[1]
    return metrics, tail


def per_layer(totals: dict, rounds: int, items_per_round: int,
              traced_s: float, untraced_s: float, scale: float) -> dict:
    """Per-layer metrics, per round, from ``spans.layer_totals``; times and
    rates are multiplied and divided by ``scale`` (see :mod:`gauge`)."""
    def get(name, key):
        return totals.get(name, {}).get(key, 0) / rounds

    def rate(num, den):
        return num / den if den > 0 else 0.0

    m = {}
    for op in ("det", "rank", "matmul"):
        for f in ("gf", "qq"):
            m[f"exact.{op}.{f}.calls"] = get(f"exact.{op}.{f}", "calls")
            m[f"exact.{op}.{f}.self_s"] = get(f"exact.{op}.{f}", "self_s")
        m[f"exact.{op}.self_s"] = m[f"exact.{op}.gf.self_s"] + m[f"exact.{op}.qq.self_s"]
    m["exact.det.gf.ops"] = get("exact.det.gf", "qty")
    m["exact.det.gf.ops_per_s"] = rate(m["exact.det.gf.ops"], m["exact.det.gf.self_s"])
    m["exact.format_matrix.self_s"] = get("exact.format_matrix", "self_s")
    m["exact.format_matrix.bytes"] = get("exact.format_matrix", "qty")
    for name in ("symcomb.q_layout", "monad.max_rank_probe", "monad.quadratic_defect",
                 "invariant.build_q", "cli.run"):
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.self_s"] = get(name, "self_s")
    m["monad.max_rank_probe.points"] = get("monad.max_rank_probe", "qty")
    m["monad.max_rank_probe.points_per_s"] = rate(m["monad.max_rank_probe.points"],
                                                  get("monad.max_rank_probe", "incl_s"))
    for name in ("symcomb.layout_table", "monad.parse_monad", "monad.format_monad",
                 "invariant.verify_syzygy", "invariant.orthogonal_verdict",
                 "gens.gen_isotropic_orthogonal", "gens.gen_special_symplectic",
                 "gens.search_orthogonal"):
        m[f"{name}.self_s"] = get(name, "self_s")
    for name in ("invariant.det_q", "invariant.build_syzygy"):
        m[f"{name}.calls"] = get(name, "calls")
    for name in ("invariant.det_q", "invariant.build_q", "invariant.build_syzygy",
                 "monad.quadratic_defect"):
        m[f"{name}.calls_per_item"] = get(name, "calls") / items_per_round
    for name in m:
        if name.endswith("self_s"):
            m[name] *= scale
        elif name.endswith("_per_s"):
            m[name] /= scale
    m["trace_overhead_frac"] = traced_s / untraced_s - 1
    return m


def group_rows(untraced: list, traced_spans: list, rounds: int) -> list:
    """Per item group, per round: items, wall ms, and the layers' calls and self time."""
    groups: dict = {}
    for r in untraced:
        g = groups.setdefault(r.item.group, {"group": r.item.group, "items": 0, "ms": 0.0,
                                             "calls": {}, "self_s": {}})
        g["items"] += 1
        g["ms"] += r.seconds * 1e3
    totals = spans.layer_totals(traced_spans, key=lambda s: (s.item.group, s.name))
    for (group, name), row in totals.items():
        g = groups[group]
        g["calls"][name] = row["calls"] / rounds
        g["self_s"][name] = row["self_s"] / rounds
    for g in groups.values():
        g["items"] //= rounds
        g["ms"] /= rounds
    return list(groups.values())


def alternate(items: list, seconds: float, tracer, meter) -> tuple:
    """Plain and traced rounds in pairs, ordered P T, T P, P T, T P, ...

    Pairs run until the plain rounds have taken ``seconds`` and the number of
    pairs is even, so a steady drift of the machine's speed cancels out.
    ``meter`` is read before every round.  Returns the plain results and
    seconds, the traced results and seconds, and the number of pairs.
    """
    plain, traced = [], []
    plain_s = traced_s = 0.0
    pairs = 0
    while plain_s < seconds or pairs % 2:
        for with_spans in ((False, True) if pairs % 2 == 0 else (True, False)):
            meter.sample()
            if not with_spans:
                results, s, _ = run_rounds(items, rounds=1)
                plain += results
                plain_s += s
                continue
            unpatch = spans.patch(tracer)
            try:
                results, s, _ = run_rounds(
                    items, rounds=1, before_item=lambda item: setattr(tracer, "item", item))
            finally:
                unpatch()
            traced += results
            traced_s += s
        pairs += 1
    return plain, plain_s, traced, traced_s, pairs


@contextmanager
def scratch_dir(root: Path):
    """A fresh directory under ``root``, made current for the CLI workload's
    relative paths, and removed afterwards."""
    parent = root / ".perfbench_work"
    parent.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=parent))
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        yield workdir
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            parent.rmdir()
        except OSError:
            pass  # another run still uses it


def run_workload(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    """One run of one workload; returns the full result record.

    ``setup_s`` is the median of ``SETUP_REPEATS`` set-ups before the timed
    loop, the last of which makes the inputs that are measured, and of one
    set-up between items every ``SETUP_EVERY_S`` of the loop.  The shared
    machine has slow spells of a few seconds; set-ups spread over the whole
    run keep one spell from setting the median, as the loop's own figures
    are spread.  Set-ups in the loop are not timed as items, and their
    garbage is collected before the next item.  The traced run has no
    ``setup_s`` to report and times set-ups before its rounds only, so that
    the recorder patches the modules its items use.

    The gauge (:mod:`gauge`) is read before every set-up, between items
    every ``gauge.SAMPLE_EVERY_S`` of the loop, and before every traced-run
    round.  On the workloads in ``REFERENCE`` all timings are reported at
    its reference speed; ``raw`` keeps the unscaled end-to-end figures.
    """
    src = root / "src"
    expected = load_expected(workload)
    meter = gauge.Gauge(REFERENCE.get(workload, gauge.mixed))
    setup_times = []
    with scratch_dir(root) as workdir:
        def timed_set_up():
            meter.sample()
            items, t = set_up(workload, seed, src, workdir)
            setup_times.append(t)
            return items

        # the inputs of all but the last set-up are dropped at once
        for _ in range(SETUP_REPEATS - 1):
            timed_set_up()
        items = timed_set_up()

        read_gauge = every(gauge.SAMPLE_EVERY_S, meter.sample)
        set_up_again = every(SETUP_EVERY_S, lambda: (timed_set_up(), gc.collect()))

        def between_items(item):
            read_gauge(item)
            set_up_again(item)

        layer = groups = None
        if trace:
            tracer = spans.Tracer()
            results, elapsed, traced, traced_s, rounds = alternate(items, seconds, tracer, meter)
            all_results = results + traced
        else:
            results, elapsed, rounds = run_rounds(items, seconds=seconds,
                                                  before_item=between_items)
            all_results = results
    scale = meter.scale() if workload in REFERENCE else 1.0
    if trace:
        totals = spans.layer_totals(tracer.spans)
        layer = per_layer(totals, rounds, len(items), traced_s, elapsed, scale)
        groups = group_rows(results, tracer.spans, rounds)
    failed = failures(all_results, expected, seed)
    failed_frac = len(failed) / len(all_results)
    e2e, tail = end_to_end(results, elapsed, setup_times, failed_frac, scale)
    raw, _ = end_to_end(results, elapsed, setup_times, failed_frac)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "rounds": rounds, "items_per_round": len(items), "set_ups": len(setup_times),
        "attempted": len(all_results), "failed": len(failed), "failures": failed[:20],
        "untraced_round_s": elapsed / rounds,
        "tail": None if tail is None else {"percentile": tail[0], "samples": tail[2]},
        "reference": meter.reference.__name__, "ref_s": meter.ref_s(),
        "ref_samples": len(meter.samples), "scale": scale,
        "raw": {k: raw[k] for k in ("items_per_s", "item_p50_ms", "setup_s")},
        "metrics": {**e2e, **(layer or {})},
    }
    if trace:
        record["layer_totals"] = {name: {k: v / rounds for k, v in row.items()}
                                  for name, row in totals.items()}
        record["traced_round_s"] = traced_s / rounds
        record["groups"] = groups
    return record
