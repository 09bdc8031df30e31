"""The four benchmark workloads.

Each workload function takes the freshly imported library modules ``ml``, the
workload seed and a scratch directory, generates its inputs, and returns the
list of items of one round.  An item does its work through the library's
public functions, checks the invariants that hold for every seed (raising
:class:`CheckFailed` otherwise) and returns an outcome text.  The runner
compares that text with the outcome recorded at the seed commit when the
item's inputs do not depend on the seed, or when the seed is the recorded one.

All calls go through module attributes (``ml.invariant.build_q``), so the
span recorder in :mod:`spans` sees them once it has patched those attributes.
"""

from __future__ import annotations

import hashlib
import io
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

P_ORTH = 101      # isotropic candidates need p = 1 mod 4 for a large isotropic span
P_LARGE = 32003   # the ROADMAP's field for large Q
PROBE_POINTS = 50
# The special family is deterministic; a fixed probe seed keeps its items
# independent of the workload seed, so their times and outcomes repeat.
SPECIAL_PROBE_SEED = 0


class CheckFailed(AssertionError):
    """An invariant of the certificate did not hold."""


def require(cond, message: str):
    if not cond:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Item:
    id: str
    group: str      # per-group rows in traced results; many candidates share one
    seeded: bool    # whether the outcome text depends on the workload seed
    run: Callable[[], str]


def _yn(flag) -> str:
    return "yes" if flag else "no"


def _probe_text(probe) -> str:
    if probe.ok:
        return f"ok/{probe.points_tested}"
    ce = probe.counterexample
    return (f"{ce.which_map}:{ce.observed_rank}@{','.join(map(str, ce.point.coords))}"
            f"/{probe.points_tested}")


# -- orthogonal-sweep ------------------------------------------------------------

def _candidate(ml, n: int, k: int, cseed: int) -> str:
    inv = ml.invariant
    report = ml.gens.gen_isotropic_orthogonal(n, k, P_ORTH, cseed)
    d = report.data
    q = inv.build_q(d).matrix
    s = inv.build_syzygy(d).matrix
    require((q @ s).is_zero(), "Q*S != 0")
    require(not s.is_zero(), "S = 0")
    require(report.defects_ok, "orthogonal defects nonzero")
    require(report.det_q_value == 0, f"det Q = {report.det_q_value}, not 0")
    verdict = inv.orthogonal_verdict(d)
    require(verdict.excluded and verdict.status == inv.DET_ZERO_BY_SYZYGY,
            f"verdict {verdict.status}")
    return (f"det={report.det_q_value} verdict={verdict.status} "
            f"probe={_probe_text(report.rank_probe)}")


def _search(ml, n: int, k: int, seed: int) -> str:
    summary = ml.gens.search_orthogonal(n, k, P_ORTH, 25, seed)
    rows = summary.rows
    require(len(rows) == 25 and summary.det_zero_count == 25, "a trial has det Q != 0")
    require(summary.instanton_candidates == 0, "an orthogonal candidate survived")
    require(all(r.defects_ok for r in rows), "a trial has nonzero defects")
    return " ".join(f"{r.seed}:{int(r.perturbed)}{int(r.det_q_zero)}{int(r.rank_counterexample)}"
                    for r in rows)


def orthogonal_sweep(ml, seed: int, workdir: Path) -> list:
    """Criterion 3 and 4: many tiny Q, where the rank probe dominates.

    At seed 0 the candidate seeds are exactly those of acceptance criterion 3
    and the searches those of criterion 4.
    """
    items = []
    for n in (1, 2, 3):
        for k in (1, 2, 3, 4):
            for s in range(50):
                cseed = 1009 * (s + 50 * seed) + 13 * n + k
                items.append(Item(f"n{n}k{k}#{s}", f"n{n}k{k}", True,
                                  lambda n=n, k=k, c=cseed: _candidate(ml, n, k, c)))
    for n in (2, 3):
        items.append(Item(f"search-n{n}k4", f"search-n{n}k4", True,
                          lambda n=n: _search(ml, n, 4, 25 * seed)))
    return items


# -- large-q-gf -------------------------------------------------------------------

LARGE_SHAPES = [(3, 4), (2, 6), (3, 6), (4, 5)]  # Q orders 280, 336, 1008, 1260
LARGE_RANDOM = {(3, 4), (2, 6), (3, 6)}


def _certify_gf(ml, d, form, probe_seed: int, special: bool) -> str:
    defects = ml.monad.quadratic_defect(d, form)
    probe = ml.monad.max_rank_probe(d, form, PROBE_POINTS, probe_seed)
    q = ml.invariant.build_q(d).matrix
    det = q.det()
    rank = q.rank()
    syz = ml.invariant.verify_syzygy(d)
    skew_zero = ml.monad.defects_vanish(defects)
    require((det != 0) == (rank == q.rows), f"det {det} but rank {rank} of {q.rows}")
    require(syz.residual_is_zero == syz.defects_all_zero, "Q*S = 0 disagrees with the defects")
    require(not syz.syzygy_is_zero, "S = 0")
    if special:
        require(skew_zero, "special family has a nonzero skew defect")
        require(probe.ok, "special family dropped rank")
        require(det == 1, f"special family det Q = {det}, not 1")
    return (f"order={q.rows} det={det} rank={rank} skew_defects_zero={_yn(skew_zero)} "
            f"probe={_probe_text(probe)} residual_zero={_yn(syz.residual_is_zero)}")


def large_q_gf(ml, seed: int, workdir: Path) -> list:
    """det and rank of large Q over GF(32003): banded special family and
    random blocks that fill in during elimination."""
    field = ml.exact.GF(P_LARGE)
    rng = np.random.default_rng(seed)
    items = []
    for n, k in LARGE_SHAPES:
        form = ml.monad.canonical_j(ml.monad.SYMPLECTIC_CANONICAL, n, k, field)
        order = (2 * n + 2 * k) * math.comb(k + n - 1, n)
        special = ml.gens.gen_special_symplectic(n, k, field, probe_trials=1,
                                                 compute_det=False).data
        items.append(Item(f"special-{order}", f"special-{order}", False,
                          lambda d=special, f=form: _certify_gf(ml, d, f, SPECIAL_PROBE_SEED, True)))
        if (n, k) in LARGE_RANDOM:
            data = _random_monad(ml, n, k, field, rng)
            items.append(Item(f"random-{order}", f"random-{order}", True,
                              lambda d=data, f=form: _certify_gf(ml, d, f, seed, False)))
    return items


def _random_monad(ml, n: int, k: int, field, rng):
    blocks = tuple(ml.exact.ExactMatrix.random(field, 2 * n + 2, 2 * n + 2 * k, rng)
                   for _ in range(k))
    return ml.monad.MonadData(n, k, field, blocks)


# -- rational-exact -----------------------------------------------------------------

RATIONAL_SPECIAL = [(1, 2), (1, 3), (2, 2), (1, 4), (3, 2), (2, 3), (1, 6), (2, 4)]  # 12..120
RATIONAL_RANDOM = [(1, 2), (1, 4), (2, 3), (3, 3), (3, 4)]                           # 12..280
RATIONAL_RANK_LIMIT = 60  # Fraction RREF beyond this order costs more than the rest


def _certify_qq(ml, d, form, probe_seed: int, special: bool) -> str:
    inv = ml.invariant
    det = inv.det_q(d)
    verdict = inv.orthogonal_verdict(d)
    probe = ml.monad.max_rank_probe(d, form, PROBE_POINTS, probe_seed)
    syz = inv.verify_syzygy(d)
    order = (2 * d.n + 2 * d.k) * math.comb(d.k + d.n - 1, d.n)
    rank = inv.build_q(d).matrix.rank() if order <= RATIONAL_RANK_LIMIT else None
    require(syz.residual_is_zero == syz.defects_all_zero, "Q*S = 0 disagrees with the defects")
    expected = inv.DET_ZERO_BY_SYZYGY if syz.defects_all_zero else inv.DEFECT_NONZERO
    require(verdict.status == expected, f"verdict {verdict.status}, expected {expected}")
    if syz.defects_all_zero:
        require(det == 0, f"defects vanish but det Q = {det}")
    if rank is not None:
        require((det != 0) == (rank == order), f"det {det} but rank {rank} of {order}")
    if special:
        require(det in (1, -1), f"special family det Q = {det}, not +-1")
        require(probe.ok, "special family dropped rank")
    return (f"order={order} det={det} verdict={verdict.status} probe={_probe_text(probe)} "
            f"rank={'-' if rank is None else rank}")


def rational_exact(ml, seed: int, workdir: Path) -> list:
    """Exact QQ: Bareiss det, Fraction matmul and RREF, no GF work at all."""
    field = ml.exact.QQ
    rng = np.random.default_rng(seed)
    items = []
    for n, k in RATIONAL_SPECIAL:
        form = ml.monad.canonical_j(ml.monad.SYMPLECTIC_CANONICAL, n, k, field)
        data = ml.gens.gen_special_symplectic(n, k, field, probe_trials=1,
                                              compute_det=False).data
        items.append(Item(f"special-n{n}k{k}", f"special-n{n}k{k}", False,
                          lambda d=data, f=form: _certify_qq(ml, d, f, SPECIAL_PROBE_SEED, True)))
    for n, k in RATIONAL_RANDOM:
        form = ml.monad.canonical_j(ml.monad.SYMPLECTIC_CANONICAL, n, k, field)
        data = _random_monad(ml, n, k, field, rng)
        items.append(Item(f"random-n{n}k{k}", f"random-n{n}k{k}", True,
                          lambda d=data, f=form: _certify_qq(ml, d, f, seed, False)))
    return items


# -- cli-files -------------------------------------------------------------------------

def _invoke(ml, argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = ml.cli.run(argv)
    return rc, out.getvalue()


def _cli_item(ml, argv: list, check: Callable) -> Callable[[], str]:
    def run() -> str:
        rc, out = _invoke(ml, argv)
        check(rc, out)
        digest = hashlib.sha256(out.encode()).hexdigest()
        return f"exit={rc} bytes={len(out)} sha256={digest}"
    return run


def _expect(rc_want: int, text: str | None = None):
    def check(rc, out):
        require(rc == rc_want, f"exit {rc}, expected {rc_want}")
        if text is not None:
            require(out == text, "stdout differs from the library's own rendering")
    return check


def cli_files(ml, seed: int, workdir: Path) -> list:
    """``monadlab.cli.run`` in-process on monad files in ``workdir``.

    Paths are relative, so stdout does not depend on where the run happens;
    the runner makes ``workdir`` the current directory.
    """
    ex, mo, inv, sym = ml.exact, ml.monad, ml.invariant, ml.symcomb
    gf101, gf32003 = ex.GF(P_ORTH), ex.GF(P_LARGE)
    iso120 = ml.gens.gen_isotropic_orthogonal(2, 4, P_ORTH, seed).data
    iso280 = ml.gens.gen_isotropic_orthogonal(3, 4, P_ORTH, seed).data
    sp280 = ml.gens.gen_special_symplectic(3, 4, gf32003, probe_trials=1, compute_det=False).data
    sp_small = ml.gens.gen_special_symplectic(1, 2, gf101, probe_trials=1, compute_det=False).data
    sp_text = mo.format_monad(sp280)
    small_lines = mo.format_monad(sp_small).splitlines()
    small_lines[2] = "x" + small_lines[2][1:]
    files = {
        "iso120.mnd": mo.format_monad(iso120),
        "iso280.mnd": mo.format_monad(iso280),
        "sp280.mnd": sp_text,
        "bad_header.mnd": "monad n=2 k=two field=gf:101\n",
        "bad_trunc.mnd": sp_text[: len(sp_text) // 2],
        "bad_entry.mnd": "\n".join(small_lines) + "\n",
        "bad_field.mnd": "monad n=1 k=2 field=gf:100\nblock 1\n",
    }
    for name, text in files.items():
        (workdir / name).write_text(text, encoding="ascii")

    q280 = ex.format_matrix(inv.build_q(iso280).matrix)
    syz280 = ex.format_matrix(inv.build_syzygy(iso280).matrix)

    def gen_iso_check(rc, out):
        lines = out.splitlines()
        require(rc == 0 and lines[:2] == ["wrote out_iso.mnd", "defects_ok: yes"]
                and lines[2] in ("rank_probe: ok", "rank_probe: counterexample")
                and lines[3:] == ["detQ: 0"], f"gen isotropic printed {out!r}")
        require((workdir / "out_iso.mnd").read_text(encoding="ascii") == files["iso120.mnd"],
                "gen isotropic wrote other data")

    def gen_special_check(rc, out):
        _expect(0, "wrote out_sp.mnd\ndefects_ok: yes\nrank_probe: ok\ndetQ: 1\n")(rc, out)
        require((workdir / "out_sp.mnd").read_text(encoding="ascii") == sp_text,
                "gen special wrote other data")

    def build_q_out_check(rc, out):
        _expect(0, "wrote 280x280 matrix to q280.mat\n")(rc, out)
        require((workdir / "q280.mat").read_text(encoding="ascii") == q280,
                "build-q --out wrote another matrix")

    def check_orth_check(rc, out):
        lines = out.splitlines()
        require(rc == 0 and len(lines) == 3 and lines[0] == "defects: all zero"
                and lines[1].startswith("rank probe: ")
                and lines[2] == "verdict: not an instanton: det Q = 0 by syzygy",
                f"check --form orthogonal printed {out!r}")

    def search_check(rc, out):
        lines = out.splitlines()
        rows = [line.split() for line in lines[1:-1]]
        ce = sum(r[3] == "yes" for r in rows)
        require(rc == 0 and lines[0] == "seed defects_ok detQ_zero rank_counterexample"
                and len(rows) == 25 and all(r[1:3] == ["yes", "yes"] for r in rows)
                and lines[-1] == (f"trials=25 detQ_zero=25 rank_counterexamples={ce} "
                                  "instanton_candidates=0"),
                "search-orthogonal summary is wrong")

    verified = ("S shape: 280x8\nS nonzero: yes\nresidual Q*S zero: yes\n"
                "orthogonal defects zero: yes\nverdict: det Q = 0 forced\n")
    symplectic = ("defects: all zero\nrank probe: ok at 50 points\ndetQ: 1\n"
                  "verdict: symplectic conditions verified\n")
    s = str(seed)
    commands = [
        ("gen-isotropic", True, ["gen", "isotropic", "--n", "2", "--k", "4", "--field", "gf:101",
                                 "--seed", s, "--out", "out_iso.mnd"], gen_iso_check),
        ("gen-special", False, ["gen", "special", "--n", "3", "--k", "4", "--field", "gf:32003",
                                "--seed", s, "--out", "out_sp.mnd"], gen_special_check),
        ("build-q-out", False, ["build-q", "--in", "iso280.mnd", "--out", "q280.mat"],
         build_q_out_check),
        ("build-q-stdout", True, ["build-q", "--in", "iso280.mnd"], _expect(0, q280)),
        ("build-q-blocks", False, ["build-q", "--in", "iso120.mnd", "--blocks-only"],
         _expect(0, sym.layout_table(sym.q_layout(2, 4)))),
        ("det-q-isotropic", False, ["det-q", "--in", "iso280.mnd"], _expect(1, "0\n")),
        ("det-q-special", False, ["det-q", "--in", "sp280.mnd"], _expect(0, "1\n")),
        ("syzygy", True, ["syzygy", "--in", "iso280.mnd"], _expect(0, syz280)),
        ("syzygy-verify", False, ["syzygy", "--in", "iso280.mnd", "--verify"],
         _expect(0, verified)),
        ("check-orthogonal", True, ["check", "--in", "iso120.mnd", "--form", "orthogonal",
                                    "--seed", s], check_orth_check),
        ("check-symplectic", False, ["check", "--in", "sp280.mnd", "--form", "symplectic",
                                     "--trials", "50", "--seed", s], _expect(0, symplectic)),
        ("layout-table", False, ["layout", "--n", "3", "--k", "4", "--format", "table"],
         _expect(0, sym.layout_table(sym.q_layout(3, 4)))),
        ("layout-csv", False, ["layout", "--n", "3", "--k", "4", "--format", "csv"],
         _expect(0, sym.layout_csv(sym.q_layout(3, 4)))),
        ("search-orthogonal", True, ["search-orthogonal", "--n", "2", "--k", "4", "--field",
                                     "gf:101", "--trials", "25", "--seed", str(25 * seed)],
         search_check),
        ("bad-header", False, ["det-q", "--in", "bad_header.mnd"], _expect(2, "")),
        ("bad-truncated", False, ["build-q", "--in", "bad_trunc.mnd"], _expect(2, "")),
        ("bad-entry", False, ["check", "--in", "bad_entry.mnd", "--form", "symplectic"],
         _expect(2, "")),
        ("bad-field", False, ["syzygy", "--in", "bad_field.mnd"], _expect(2, "")),
        ("missing-file", False, ["det-q", "--in", "missing.mnd"], _expect(2, "")),
    ]
    return [Item(name, name, seeded, _cli_item(ml, argv, check))
            for name, seeded, argv, check in commands]


WORKLOADS = {
    "orthogonal-sweep": orthogonal_sweep,
    "large-q-gf": large_q_gf,
    "rational-exact": rational_exact,
    "cli-files": cli_files,
}
