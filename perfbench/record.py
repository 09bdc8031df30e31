"""Record the outcome of every item at the default seed, as expected values.

    python3 perfbench/record.py [WORKLOAD ...]

Run it from the root of a checkout of the commit whose outputs are the
reference; it rewrites ``perfbench/expected/<workload>.json``.  Items whose
inputs do not depend on the seed are compared against these values on every
seed; the rest only on the recorded seed.  Re-record only when a change of
output is intended, and say so in the change that does it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 0


def record(workload: str, root: Path) -> dict:
    with harness.scratch_dir(root) as workdir:
        ml = harness.import_monadlab(root / "src")
        items = WORKLOADS[workload](ml, DEFAULT_SEED, workdir)
        results, _, _ = harness.run_rounds(items, rounds=1)
    errors = [f"{r.item.id}: {r.error}" for r in results if r.error is not None]
    if errors:
        raise SystemExit("refusing to record failed items:\n" + "\n".join(errors))
    return {"seed": DEFAULT_SEED, "items": {r.item.id: r.outcome for r in results}}


def main(argv: list) -> int:
    for workload in argv or list(WORKLOADS):
        expected = record(workload, HERE.parent)
        path = harness.EXPECTED_DIR / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"{workload}: {len(expected['items'])} items -> {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
