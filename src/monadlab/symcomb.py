"""Monomial bases of symmetric powers and the block layout they induce.

A degree-d monomial in the variables i_1, ..., i_k is an exponent tuple of
length k.  A basis is a tuple of them in the lexicographic order induced by
i_1 > i_2 > ... > i_k, so i_1^d comes first and i_k^d last.

Block (i, j) of the big multiplication matrix built in
:mod:`monadlab.invariant` is M_alpha exactly when basis element eta_i of
degree n+1 equals zeta_j * i_alpha, and zero otherwise.  The labels i_alpha
and M_alpha, and the block positions the renderers print (table and CSV),
are 1-based, as in the paper.  The layout's ``table`` is a 0-based array:
``table[j, alpha]`` is the block row of zeta_{j+1} * i_{alpha+1}.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import combinations_with_replacement

import numpy as np

Monomial = tuple[int, ...]


def multiply_by_var(m: Monomial, alpha: int) -> Monomial:
    """Multiply by the variable i_alpha (1-based)."""
    if not 1 <= alpha <= len(m):
        raise ValueError(f"variable index {alpha} out of range 1..{len(m)}")
    return m[:alpha - 1] + (m[alpha - 1] + 1,) + m[alpha:]


def monomial_label(m: Monomial) -> str:
    """Render like the basis labels: i_1^2i_3, or '1' for the empty product."""
    parts = []
    for v, e in enumerate(m, start=1):
        if e == 1:
            parts.append(f"i_{v}")
        elif e > 1:
            parts.append(f"i_{v}^{e}")
    return "".join(parts) if parts else "1"


def sym_basis(k: int, d: int) -> tuple[Monomial, ...]:
    """All degree-d monomials in k variables, largest first in the induced lex order."""
    if k < 1:
        raise ValueError("need at least one variable")
    if d < 0:
        raise ValueError("degree must be non-negative")
    monomials = []
    for combo in combinations_with_replacement(range(k), d):
        exps = [0] * k
        for v in combo:
            exps[v] += 1
        monomials.append(tuple(exps))
    return tuple(monomials)


@dataclass(frozen=True)
class QLayout:
    """Block pattern of Q: block column j holds M_{alpha+1} in block row
    ``table[j, alpha]``, and zero blocks elsewhere (all 0-based)."""

    row_basis: tuple[Monomial, ...]  # degree n+1, size r
    col_basis: tuple[Monomial, ...]  # degree n, size s
    table: np.ndarray = field(compare=False)  # (s x k), read-only

    @property
    def block_rows(self) -> int:
        return len(self.row_basis)

    @property
    def block_cols(self) -> int:
        return len(self.col_basis)


@functools.lru_cache(maxsize=32)
def q_layout(n: int, k: int) -> QLayout:
    """Layout induced by multiplication from degree n to degree n+1.

    Memoised on (n, k): callers share one layout, whose table is read-only.
    """
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    cols = sym_basis(k, n)
    rows = sym_basis(k, n + 1)
    position = {eta: i for i, eta in enumerate(rows)}
    table = np.array([[position[multiply_by_var(zeta, alpha)] for alpha in range(1, k + 1)]
                      for zeta in cols])
    table.flags.writeable = False
    return QLayout(rows, cols, table)


# -- renderers ---------------------------------------------------------------


def layout_table(layout: QLayout) -> str:
    """Fixed-width table with monomial labels on both axes; '.' marks zero blocks."""
    col_labels = list(map(monomial_label, layout.col_basis))
    row_labels = list(map(monomial_label, layout.row_basis))
    cells = [["."] * layout.block_cols for _ in row_labels]
    for j, rows in enumerate(layout.table.tolist()):
        for alpha, i in enumerate(rows, start=1):
            cells[i][j] = f"M_{alpha}"
    width = max(len(s) for s in col_labels + [c for row in cells for c in row])
    stub = max(len(s) for s in row_labels)
    lines = [" " * stub + "  " + " ".join(s.ljust(width) for s in col_labels)]
    for label, row in zip(row_labels, cells):
        lines.append(label.ljust(stub) + "  " + " ".join(c.ljust(width) for c in row))
    return "\n".join(line.rstrip() for line in lines) + "\n"


def layout_csv(layout: QLayout) -> str:
    """One 1-based 'i,j,alpha' triple per line, sorted by (i, j)."""
    triples = sorted((i + 1, j + 1, alpha) for j, rows in enumerate(layout.table.tolist())
                     for alpha, i in enumerate(rows, start=1))
    return "".join(f"{i},{j},{alpha}\n" for i, j, alpha in triples)
