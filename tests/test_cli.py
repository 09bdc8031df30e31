"""CLI subcommands: output, exit codes, round trips, golden layout."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import monadlab
from monadlab import format_monad, gen_special_symplectic, parse_monad, GF
from monadlab.cli import run

GOLDEN = Path(__file__).parent / "golden" / "layout_n2_k4.txt"


def test_dims(capsys):
    assert run(["dims", "--n", "2", "--k", "4"]) == 0
    assert capsys.readouterr().out == "120 = 120\n"


def test_chern(capsys):
    assert run(["chern", "--k", "4", "--terms", "5"]) == 0
    assert capsys.readouterr().out == "1 4 10 20 35\n"


def test_layout_table_matches_golden(capsys):
    assert run(["layout", "--n", "2", "--k", "4", "--format", "table"]) == 0
    assert capsys.readouterr().out == GOLDEN.read_text(encoding="ascii")


def test_layout_csv(capsys):
    assert run(["layout", "--n", "1", "--k", "2", "--format", "csv"]) == 0
    assert capsys.readouterr().out == "1,1,1\n2,1,2\n2,2,1\n3,2,2\n"


def test_gen_round_trip(tmp_path, capsys):
    out = tmp_path / "iso.mnd"
    rc = run(["gen", "isotropic", "--n", "1", "--k", "2",
              "--field", "gf:101", "--seed", "5", "--out", str(out)])
    assert rc == 0
    report = capsys.readouterr().out
    assert "defects_ok: yes" in report
    assert "detQ: 0" in report
    text = out.read_text(encoding="ascii")
    assert format_monad(parse_monad(text)) == text  # parse . print = identity

    again = tmp_path / "iso2.mnd"
    run(["gen", "isotropic", "--n", "1", "--k", "2",
         "--field", "gf:101", "--seed", "5", "--out", str(again)])
    assert again.read_text(encoding="ascii") == text  # byte-identical rerun


def test_gen_special_and_check_exit_codes(tmp_path, capsys):
    sp = tmp_path / "sp.mnd"
    iso = tmp_path / "iso.mnd"
    assert run(["gen", "special", "--n", "1", "--k", "2",
                "--field", "gf:101", "--out", str(sp)]) == 0
    assert run(["gen", "isotropic", "--n", "1", "--k", "2",
                "--field", "gf:101", "--seed", "1", "--out", str(iso)]) == 0
    capsys.readouterr()

    # det-q: 0 iff the determinant is nonzero
    assert run(["det-q", "--in", str(sp)]) == 0
    assert capsys.readouterr().out.strip() != "0"
    assert run(["det-q", "--in", str(iso)]) == 1
    assert capsys.readouterr().out.strip() == "0"

    # syzygy --verify: 0 on isotropic data, 1 on symplectic data
    assert run(["syzygy", "--in", str(iso), "--verify"]) == 0
    out = capsys.readouterr().out
    assert "S nonzero: yes" in out and "residual Q*S zero: yes" in out
    assert "det Q = 0 forced" in out
    assert run(["syzygy", "--in", str(sp), "--verify"]) == 1
    capsys.readouterr()

    # check --form: orthogonal verdict vs symplectic verification
    assert run(["check", "--in", str(iso), "--form", "orthogonal"]) == 0
    assert "not an instanton: det Q = 0 by syzygy" in capsys.readouterr().out
    assert run(["check", "--in", str(sp), "--form", "orthogonal"]) == 1
    assert "orthogonal conditions violated" in capsys.readouterr().out
    assert run(["check", "--in", str(sp), "--form", "symplectic",
                "--trials", "10", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "defects: all zero" in out and "rank probe: ok" in out


def test_syzygy_without_verify_prints_matrix(tmp_path, capsys):
    iso = tmp_path / "iso.mnd"
    run(["gen", "isotropic", "--n", "1", "--k", "1",
         "--field", "gf:7", "--seed", "2", "--out", str(iso)])
    capsys.readouterr()
    assert run(["syzygy", "--in", str(iso)]) == 0
    assert capsys.readouterr().out.startswith("matrix rows=4 cols=4 field=gf:7")


def test_build_q_outputs(tmp_path, capsys):
    iso = tmp_path / "iso.mnd"
    run(["gen", "isotropic", "--n", "1", "--k", "2",
         "--field", "gf:13", "--seed", "0", "--out", str(iso)])
    capsys.readouterr()

    assert run(["build-q", "--in", str(iso)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("matrix rows=12 cols=12 field=gf:13")

    qfile = tmp_path / "q.mat"
    assert run(["build-q", "--in", str(iso), "--out", str(qfile)]) == 0
    capsys.readouterr()
    assert qfile.read_text(encoding="ascii") == out

    assert run(["build-q", "--in", str(iso), "--blocks-only"]) == 0
    table = capsys.readouterr().out
    assert "i_1^2" in table and "M_1" in table


def test_search_orthogonal_output(capsys):
    assert run(["search-orthogonal", "--n", "1", "--k", "1", "--field", "gf:7",
                "--trials", "4", "--seed", "0"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "seed defects_ok detQ_zero rank_counterexample"
    assert len(out) == 6
    assert out[-1].startswith("trials=4 detQ_zero=4 ")
    assert "instanton_candidates=0" in out[-1]


def test_bad_inputs_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.mnd"
    bad.write_text("garbage\n", encoding="ascii")
    assert run(["det-q", "--in", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err

    assert run(["det-q", "--in", str(tmp_path / "missing.mnd")]) == 2
    capsys.readouterr()

    # isotropic generation over the rationals is impossible
    assert run(["gen", "isotropic", "--n", "1", "--k", "2",
                "--field", "rational", "--out", str(tmp_path / "x.mnd")]) == 2
    capsys.readouterr()

    # argparse rejects unknown flags with status 2
    assert run(["dims", "--n", "2"]) == 2
    assert run(["not-a-command"]) == 2
    assert run(["layout", "--n", "2", "--k", "4", "--format", "yaml"]) == 2
    capsys.readouterr()


def test_check_rational_field_and_box_override(tmp_path, capsys, monkeypatch):
    sp = tmp_path / "sp.mnd"
    assert run(["gen", "special", "--n", "1", "--k", "1",
                "--field", "rational", "--out", str(sp)]) == 0
    capsys.readouterr()
    monkeypatch.setenv("MONADLAB_POINT_BOX", "3")
    assert run(["check", "--in", str(sp), "--form", "symplectic",
                "--trials", "15", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "rank probe: ok at 15 points" in out

    monkeypatch.setenv("MONADLAB_POINT_BOX", "not-a-number")
    assert run(["check", "--in", str(sp), "--form", "symplectic"]) == 2


@pytest.mark.parametrize("box", ["0", "-1"])
def test_check_rejects_point_box_below_one(tmp_path, capsys, box):
    # over Q a box of 0 only ever draws the zero point, so the probe used to
    # redraw forever; a subprocess with a timeout turns a hang into a failure
    sp = tmp_path / "sp.mnd"
    assert run(["gen", "special", "--n", "1", "--k", "1",
                "--field", "rational", "--out", str(sp)]) == 0
    capsys.readouterr()
    env = {**os.environ, "MONADLAB_POINT_BOX": box,
           "PYTHONPATH": str(Path(monadlab.__file__).parent.parent)}
    proc = subprocess.run(
        [sys.executable, "-m", "monadlab.cli", "check", "--in", str(sp),
         "--form", "symplectic"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr == f"error: point box must be >= 1, got {box}\n"


def test_console_script_target_runs():
    # pyproject's [project.scripts] entry names a callable that exists, and
    # the module it lives in runs as a program with the same main
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    assert scripts == {"monadlab": "monadlab.cli:main"}
    module, name = scripts["monadlab"].split(":")
    assert getattr(importlib.import_module(module), name) is monadlab.cli.main
    env = {**os.environ, "PYTHONPATH": str(Path(monadlab.__file__).parent.parent)}
    proc = subprocess.run([sys.executable, "-m", module, "dims", "--n", "2", "--k", "4"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "120 = 120\n", "")


def test_runtime_error_exits_2_with_one_line(tmp_path, capsys, request):
    # the verdict's det Q = 0 rests on the per-shape lemma: a layout that
    # breaks it is a bug, reported in one line
    iso = tmp_path / "iso.mnd"
    assert run(["gen", "isotropic", "--n", "1", "--k", "2", "--out", str(iso)]) == 0
    capsys.readouterr()
    request.getfixturevalue("broken_lemma")
    assert run(["check", "--in", str(iso), "--form", "orthogonal"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: syzygy argument violated: quadratic conditions hold "
                   "but Q*S != 0; this is a bug\n")


def test_memory_error_exits_2_with_one_line(capsys, monkeypatch):
    # a failed allocation, e.g. det-q on a huge monad, is a message, not a traceback
    def fail(args):
        raise MemoryError("Unable to allocate 18.0 GiB")

    monkeypatch.setitem(monadlab.cli._HANDLERS, "dims", fail)
    assert run(["dims", "--n", "2", "--k", "4"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: out of memory: Unable to allocate 18.0 GiB\n"
    assert "Traceback" not in err


def test_truncated_monad_file_exit_2(tmp_path, capsys):
    sp = tmp_path / "sp.mnd"
    run(["gen", "special", "--n", "1", "--k", "2", "--field", "gf:101",
         "--out", str(sp)])
    text = sp.read_text(encoding="ascii")
    sp.write_text(text[:len(text) // 2], encoding="ascii")
    capsys.readouterr()
    assert run(["syzygy", "--in", str(sp), "--verify"]) == 2
    assert "error:" in capsys.readouterr().err
