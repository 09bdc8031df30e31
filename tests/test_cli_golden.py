"""Golden CLI transcripts: stdout, stderr, exit code and written files, byte for byte.

Each case runs ``monadlab.cli.run`` in-process in a fresh directory holding a
copy of ``golden/cli/inputs``, and its transcript must equal
``golden/cli/<case>.txt``.  The inputs cover GF(101), GF(7) and rational data
whose denominators include the large prime 2**31 - 1.

To re-record after an intended output change, run this file as a script:
``python tests/test_cli_golden.py``.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).parent / "golden" / "cli"
INPUTS = GOLDEN_DIR / "inputs"
BOX_ENV = "MONADLAB_POINT_BOX"

ISO_12 = "iso_n1k2_gf101.mnd"
ISO_22 = "iso_n2k2_gf101.mnd"
SPECIAL_12 = "special_n1k2_gf101.mnd"
SPECIAL_22 = "special_n2k2_gf101.mnd"
ZERO_12 = "zero_n1k2_gf101.mnd"
# the special family with its blocks scaled by 1/(2**31 - 1) and -2/3
SCALED_Q = "special_scaled_n1k2_rational.mnd"
RANDOM_Q = "random_n1k1_rational.mnd"
# block 2 is 2/(2**31 - 1) times block 1, so A(x) has rank 1 everywhere
DEPENDENT_Q = "dependent_n1k2_rational.mnd"

# (case name, argv, MONADLAB_POINT_BOX or None, files the command writes)
CASES = [
    ("gen-special-n1k1-gf101", ["gen", "special", "--n", "1", "--k", "1", "--out", "out.mnd"],
     None, ["out.mnd"]),
    ("gen-special-n2k1-rational", ["gen", "special", "--n", "2", "--k", "1", "--field",
                                   "rational", "--seed", "4", "--out", "out.mnd"],
     None, ["out.mnd"]),
    ("gen-special-n1k2-gf7", ["gen", "special", "--n", "1", "--k", "2", "--field", "gf:7",
                              "--out", "out.mnd"], None, ["out.mnd"]),
    ("gen-isotropic-n1k2-gf101", ["gen", "isotropic", "--n", "1", "--k", "2", "--seed", "5",
                                  "--out", "out.mnd"], None, ["out.mnd"]),
    ("gen-isotropic-n2k1-gf7", ["gen", "isotropic", "--n", "2", "--k", "1", "--field", "gf:7",
                                "--seed", "1", "--out", "out.mnd"], None, ["out.mnd"]),
    ("gen-isotropic-rational", ["gen", "isotropic", "--n", "1", "--k", "2", "--field",
                                "rational", "--out", "out.mnd"], None, []),
    ("gen-isotropic-n0k0", ["gen", "isotropic", "--n", "0", "--k", "0", "--out", "out.mnd"],
     None, []),
    ("gen-isotropic-n0k1", ["gen", "isotropic", "--n", "0", "--k", "1", "--out", "out.mnd"],
     None, []),
    ("gen-isotropic-n1k0", ["gen", "isotropic", "--n", "1", "--k", "0", "--out", "out.mnd"],
     None, []),
    ("build-q-special-n1k2", ["build-q", "--in", SPECIAL_12], None, []),
    ("build-q-random-rational", ["build-q", "--in", RANDOM_Q], None, []),
    ("build-q-scaled-rational-out", ["build-q", "--in", SCALED_Q, "--out", "q.txt"],
     None, ["q.txt"]),
    ("build-q-blocks-only", ["build-q", "--in", ISO_22, "--blocks-only"], None, []),
    ("det-q-special-n2k2", ["det-q", "--in", SPECIAL_22], None, []),
    ("det-q-isotropic-n1k2", ["det-q", "--in", ISO_12], None, []),
    ("det-q-scaled-rational", ["det-q", "--in", SCALED_Q], None, []),
    ("det-q-random-rational", ["det-q", "--in", RANDOM_Q], None, []),
    ("det-q-missing-file", ["det-q", "--in", "missing.mnd"], None, []),
    ("det-q-decimal-rational", ["det-q", "--in", "decimal_n1k1_rational.mnd"], None, []),
    ("det-q-underscore-gf7", ["det-q", "--in", "underscore_n1k1_gf7.mnd"], None, []),
    ("syzygy-verify-isotropic-n2k2", ["syzygy", "--in", ISO_22, "--verify"], None, []),
    ("syzygy-verify-special-n1k2", ["syzygy", "--in", SPECIAL_12, "--verify"], None, []),
    ("syzygy-verify-zero", ["syzygy", "--in", ZERO_12, "--verify"], None, []),
    ("syzygy-verify-random-rational", ["syzygy", "--in", RANDOM_Q, "--verify"], None, []),
    ("syzygy-isotropic-n1k2", ["syzygy", "--in", ISO_12], None, []),
    ("syzygy-verify-truncated", ["syzygy", "--in", "truncated.mnd", "--verify"], None, []),
    ("check-orthogonal-isotropic", ["check", "--in", ISO_12, "--form", "orthogonal"],
     None, []),
    ("check-symplectic-special-n2k2", ["check", "--in", SPECIAL_22, "--form", "symplectic"],
     None, []),
    ("check-orthogonal-special", ["check", "--in", SPECIAL_12, "--form", "orthogonal"],
     None, []),
    ("check-orthogonal-zero", ["check", "--in", ZERO_12, "--form", "orthogonal"], None, []),
    ("check-symplectic-scaled-rational", ["check", "--in", SCALED_Q, "--form", "symplectic",
                                          "--trials", "30", "--seed", "2"], None, []),
    ("check-orthogonal-scaled-rational", ["check", "--in", SCALED_Q, "--form", "orthogonal"],
     None, []),
    ("check-symplectic-random-rational", ["check", "--in", RANDOM_Q, "--form", "symplectic"],
     None, []),
    ("check-orthogonal-dependent-rational", ["check", "--in", DEPENDENT_Q,
                                             "--form", "orthogonal"], None, []),
    ("check-symplectic-dependent-rational", ["check", "--in", DEPENDENT_Q, "--form",
                                             "symplectic", "--trials", "5", "--seed", "3"],
     None, []),
    ("check-box1-symplectic-scaled-rational", ["check", "--in", SCALED_Q, "--form",
                                               "symplectic", "--trials", "30", "--seed", "2"],
     "1", []),
    ("check-box1-symplectic-random-rational", ["check", "--in", RANDOM_Q, "--form",
                                               "symplectic", "--trials", "40"], "1", []),
    ("check-box0", ["check", "--in", SPECIAL_12, "--form", "symplectic"], "0", []),
    ("check-seed-negative", ["check", "--in", SPECIAL_12, "--form", "symplectic",
                             "--seed", "-1"], None, []),
    ("search-n1k2-gf101", ["search-orthogonal", "--n", "1", "--k", "2", "--trials", "6"],
     None, []),
    ("search-n2k2-gf7", ["search-orthogonal", "--n", "2", "--k", "2", "--field", "gf:7",
                         "--trials", "4", "--seed", "3"], None, []),
    ("search-n1k1-gf7", ["search-orthogonal", "--n", "1", "--k", "1", "--field", "gf:7",
                         "--trials", "5", "--seed", "3"], None, []),
    # more trials than one stacked chunk of the search holds
    ("search-n3k4-gf101", ["search-orthogonal", "--n", "3", "--k", "4", "--trials", "60"],
     None, []),
    ("search-n0k0", ["search-orthogonal", "--n", "0", "--k", "0", "--trials", "3"], None, []),
    ("search-n0k1", ["search-orthogonal", "--n", "0", "--k", "1", "--trials", "3"], None, []),
    ("search-n1k0", ["search-orthogonal", "--n", "1", "--k", "0", "--trials", "3"], None, []),
    ("search-n1k-2", ["search-orthogonal", "--n", "1", "--k", "-2", "--trials", "3"], None, []),
    ("search-seed-negative", ["search-orthogonal", "--n", "1", "--k", "2", "--trials", "3",
                              "--seed", "-1"], None, []),
    ("search-rational", ["search-orthogonal", "--n", "1", "--k", "1", "--field", "rational",
                         "--trials", "2"], None, []),
    ("dims-n0k3", ["dims", "--n", "0", "--k", "3"], None, []),
    ("dims-n2k0", ["dims", "--n", "2", "--k", "0"], None, []),
    ("dims-n1k-1", ["dims", "--n", "1", "--k", "-1"], None, []),
]


@contextlib.contextmanager
def _environment(workdir: Path, box: str | None):
    """Run in ``workdir`` with MONADLAB_POINT_BOX set to ``box`` (unset for None)."""
    cwd, saved = os.getcwd(), os.environ.pop(BOX_ENV, None)
    if box is not None:
        os.environ[BOX_ENV] = box
    os.chdir(workdir)
    try:
        yield
    finally:
        os.chdir(cwd)
        os.environ.pop(BOX_ENV, None)
        if saved is not None:
            os.environ[BOX_ENV] = saved


def transcript(argv: list[str], box: str | None, files: list[str], workdir: Path) -> str:
    """Run one command in ``workdir`` (inputs copied in) and render what it did."""
    from monadlab.cli import run

    shutil.copytree(INPUTS, workdir, dirs_exist_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with _environment(workdir, box), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = run(argv)
    parts = [f"$ monadlab {' '.join(argv)}\n"]
    if box is not None:
        parts.append(f"{BOX_ENV}={box}\n")
    parts.append(f"exit: {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}")
    for name in files:
        parts.append(f"--- file {name}\n{(workdir / name).read_text(encoding='ascii')}")
    return "".join(parts)


@pytest.mark.parametrize("name, argv, box, files", CASES, ids=[c[0] for c in CASES])
def test_cli_transcript_matches_golden(tmp_path, name, argv, box, files):
    golden = (GOLDEN_DIR / f"{name}.txt").read_text(encoding="ascii")
    assert transcript(argv, box, files, tmp_path) == golden


def test_golden_files_are_the_cases():
    # a renamed or removed case must not leave its golden file behind
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.txt")) == sorted(c[0] for c in CASES)


def _record():
    for name, argv, box, files in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            text = transcript(argv, box, files, Path(tmp))
        (GOLDEN_DIR / f"{name}.txt").write_text(text, encoding="ascii")
        print(f"recorded {name}")


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    _record()
