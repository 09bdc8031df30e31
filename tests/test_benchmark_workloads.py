"""One round of every benchmark workload, at seed 0, against its recorded outcomes.

The workloads read the library through its public names and a few result
attributes; a change that breaks one of those reads fails here, not only in
a benchmark run.  The library modules already imported are used as they are:
re-importing ``monadlab`` would split its module objects between tests.
"""

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import harness  # noqa: E402

ML = SimpleNamespace(**{m: importlib.import_module(f"monadlab.{m}") for m in harness.MODULES})


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_workload_round_matches_its_record(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # cli-files runs the CLI on relative paths
    items = harness.WORKLOADS[name](ML, 0, tmp_path)
    results, _, _ = harness.run_rounds(items, rounds=1)
    assert [r.item.id for r in results if r.error is not None] == []
    assert harness.failures(results, harness.load_expected(name), seed=0) == []
