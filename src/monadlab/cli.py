"""Command-line front end with deterministic, golden-file-friendly output.

Exit codes: 0 = success / property verified, 1 = verification failed
(nonzero defect, nonzero residual, zero determinant for det-q), 2 = bad
input or malformed file.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from .exact import MatrixFormatError, format_matrix, parse_field
from .gens import gen_isotropic_orthogonal, gen_special_symplectic, search_orthogonal
from .invariant import (DEFECT_NONZERO, build_q, build_syzygy, det_q, dimension_identity,
                        orthogonal_verdict, verify_syzygy)
from .monad import (ORTHOGONAL_IDENTITY, SYMPLECTIC_CANONICAL, _nonzero_defects, canonical_j,
                    chern_coefficients, format_monad, max_rank_probe, parse_monad)
from .symcomb import layout_csv, layout_table, q_layout

BOX_ENV = "MONADLAB_POINT_BOX"


@functools.cache  # the parser depends on nothing in argv, so one serves every run
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monadlab",
        description="Exact matrix constructions for instanton monads: block "
                    "layouts, the multiplication matrix, its determinant, and "
                    "the syzygy that rules out orthogonal candidates.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("layout", help="print the block layout with monomial labels")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--format", choices=["table", "csv"], default="table")

    p = sub.add_parser("dims", help="print both sides of the dimension identity")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("build-q", help="assemble the big matrix from a monad file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile")
    p.add_argument("--blocks-only", action="store_true",
                   help="print the labeled block pattern instead of entries")

    p = sub.add_parser("det-q", help="determinant of the assembled matrix; "
                                     "exit 0 if nonzero, 1 if zero")
    p.add_argument("--in", dest="infile", required=True)

    p = sub.add_parser("syzygy", help="build the syzygy; with --verify, check "
                                      "Q*S = 0 and S != 0")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--verify", action="store_true")

    p = sub.add_parser("check", help="quadratic defects, rank probe and verdict")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--form", choices=["orthogonal", "symplectic"], required=True)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("gen", help="generate monad data and write it to a file")
    p.add_argument("kind", choices=["special", "isotropic"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--field", default="gf:101")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("search-orthogonal",
                       help="run the orthogonal-candidate harness and tabulate failures")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--field", default="gf:101")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("chern", help="leading coefficients of the Chern series")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--terms", type=int, required=True)

    return parser


def _read_monad(path: str):
    try:
        text = Path(path).read_text(encoding="ascii")
    except OSError as e:
        raise MatrixFormatError(f"cannot read {path}: {e}") from None
    return parse_monad(text)


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def _cmd_layout(args) -> int:
    layout = q_layout(args.n, args.k)
    render = layout_table if args.format == "table" else layout_csv
    sys.stdout.write(render(layout))
    return 0


def _cmd_dims(args) -> int:
    lhs, rhs, _ = dimension_identity(args.n, args.k)
    print(f"{lhs} = {rhs}")
    return 0


def _cmd_build_q(args) -> int:
    data = _read_monad(args.infile)
    if args.blocks_only:
        sys.stdout.write(layout_table(q_layout(data.n, data.k)))
        return 0
    q = build_q(data)
    text = format_matrix(q.matrix)
    if args.outfile:
        Path(args.outfile).write_text(text, encoding="ascii")
        print(f"wrote {q.matrix.rows}x{q.matrix.cols} matrix to {args.outfile}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_det_q(args) -> int:
    data = _read_monad(args.infile)
    det = det_q(data)
    print(det)
    return 0 if det != 0 else 1


def _cmd_syzygy(args) -> int:
    data = _read_monad(args.infile)
    if not args.verify:
        sys.stdout.write(format_matrix(build_syzygy(data).matrix))
        return 0
    report = verify_syzygy(data)
    print(f"S shape: {dimension_identity(data.n, data.k)[0]}x{data.block_rows}")  # Q's order
    print(f"S nonzero: {_yes(not report.syzygy_is_zero)}")
    print(f"residual Q*S zero: {_yes(report.residual_is_zero)}")
    print(f"orthogonal defects zero: {_yes(report.defects_all_zero)}")
    if report.syzygy_is_zero:
        print("verdict: degenerate (all blocks zero)")
    elif report.det_zero_forced:
        print("verdict: det Q = 0 forced")
    else:
        print("verdict: syzygy does not annihilate Q")
    return 0 if report.det_zero_forced else 1


def _cmd_check(args) -> int:
    data = _read_monad(args.infile)
    box = int(os.environ.get(BOX_ENV, "10"))
    kind = ORTHOGONAL_IDENTITY if args.form == "orthogonal" else SYMPLECTIC_CANONICAL
    form = canonical_j(kind, data.n, data.k, data.field)
    bad = _nonzero_defects(data, kind)
    probe = max_rank_probe(data, form, args.trials, args.seed, box=box)
    if args.form == "orthogonal":
        verdict = orthogonal_verdict(data)
    else:
        det = det_q(data)
    if bad:
        print(f"defects nonzero at: {' '.join(f'({a},{b})' for a, b in bad)}")
    else:
        print("defects: all zero")
    if probe.ok:
        print(f"rank probe: ok at {probe.points_tested} points")
    else:
        ce = probe.counterexample
        print(f"rank probe: counterexample, map alpha has rank "
              f"{ce.observed_rank} at [{', '.join(map(str, ce.point.coords))}]")
    if args.form == "orthogonal":
        print(f"verdict: {verdict.message}")
        return 0 if verdict.status != DEFECT_NONZERO else 1
    print(f"detQ: {det}")
    ok = not bad and probe.ok
    print(f"verdict: {'symplectic conditions verified' if ok else 'not a symplectic candidate'}")
    return 0 if ok else 1


def _cmd_gen(args) -> int:
    field = parse_field(args.field)
    if args.kind == "special":
        report = gen_special_symplectic(args.n, args.k, field, seed=args.seed)
    else:
        if not field.is_prime_field:
            raise MatrixFormatError("isotropic generation needs a prime field (--field gf:P)")
        report = gen_isotropic_orthogonal(args.n, args.k, field.p, args.seed)
    Path(args.out).write_text(format_monad(report.data), encoding="ascii")
    print(f"wrote {args.out}")
    print("defects_ok: yes")  # a generator that fails its self-check raises
    print(f"rank_probe: {'ok' if report.rank_probe.ok else 'counterexample'}")
    print(f"detQ: {report.det_q_value}")
    return 0


def _cmd_search(args) -> int:
    field = parse_field(args.field)
    if not field.is_prime_field:
        raise MatrixFormatError("search needs a prime field (--field gf:P)")
    summary = search_orthogonal(args.n, args.k, field.p, args.trials, args.seed)
    print("seed defects_ok detQ_zero rank_counterexample")
    for row in summary.rows:
        print(f"{row.seed} {_yes(row.defects_ok)} {_yes(row.det_q_zero)} "
              f"{_yes(row.rank_counterexample)}")
    print(f"trials={len(summary.rows)} detQ_zero={summary.det_zero_count} "
          f"rank_counterexamples={summary.rank_counterexample_count} "
          f"instanton_candidates={summary.instanton_candidates}")
    return 0


def _cmd_chern(args) -> int:
    print(" ".join(str(c) for c in chern_coefficients(args.k, args.terms)))
    return 0


_HANDLERS = {
    "layout": _cmd_layout,
    "dims": _cmd_dims,
    "build-q": _cmd_build_q,
    "det-q": _cmd_det_q,
    "syzygy": _cmd_syzygy,
    "check": _cmd_check,
    "gen": _cmd_gen,
    "search-orthogonal": _cmd_search,
    "chern": _cmd_chern,
}


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    try:
        return _HANDLERS[args.command](args)
    except (MatrixFormatError, RuntimeError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 2


def main(argv=None):
    sys.exit(run(argv))


if __name__ == "__main__":
    main()
