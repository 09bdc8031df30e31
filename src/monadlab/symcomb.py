"""Monomial bases of symmetric powers and the block layout they induce.

A degree-d monomial in the variables i_1, ..., i_k is an exponent tuple of
length k.  Bases are listed in the lexicographic order induced by
i_1 > i_2 > ... > i_k, so i_1^d comes first and i_k^d last; all indices
exposed here are 1-based to match that labelling.

The block layout records, for the degree-n and degree-(n+1) bases, which
single-variable multiplications connect them: entry (i, j) = alpha exactly
when basis element eta_i of degree n+1 equals zeta_j * i_alpha.  This is the
nonzero-block pattern of the big multiplication matrix built in
:mod:`monadlab.invariant`.
"""

from __future__ import annotations

import functools
import math
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


@dataclass(frozen=True)
class SymBasis:
    """Ordered monomial basis of the degree-d symmetric power in k variables."""

    k: int
    degree: int
    monomials: tuple[Monomial, ...]
    _index: dict[Monomial, int] = field(repr=False, compare=False, hash=False, default_factory=dict)

    def __len__(self) -> int:
        return len(self.monomials)

    def __iter__(self):
        return iter(self.monomials)

    def monomial(self, i: int) -> Monomial:
        """The i-th basis element, 1-based."""
        return self.monomials[i - 1]

    def index(self, m: Monomial) -> int:
        """1-based position of ``m``; errors if degree or arity mismatch."""
        if len(m) != self.k or sum(m) != self.degree:
            raise ValueError(f"monomial {m} is not in the ({self.k}, {self.degree}) basis")
        return self._index[m]

    def label(self, i: int) -> str:
        return monomial_label(self.monomial(i))


def sym_basis(k: int, d: int) -> SymBasis:
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
    basis = SymBasis(k, d, tuple(monomials))
    basis._index.update({m: i for i, m in enumerate(monomials, start=1)})
    assert len(basis) == math.comb(k + d - 1, d)
    return basis


@dataclass(frozen=True)
class QLayout:
    """Sparse block pattern: (block row i, block col j) -> variable index alpha."""

    n: int
    k: int
    row_basis: SymBasis  # degree n+1, size r
    col_basis: SymBasis  # degree n, size s
    entries: dict[tuple[int, int], int]

    @property
    def block_rows(self) -> int:
        return len(self.row_basis)

    @property
    def block_cols(self) -> int:
        return len(self.col_basis)

    @functools.cached_property
    def _entry_index(self) -> np.ndarray:
        """Read-only (s x k) table, 0-based: (j, alpha) -> block row of zeta_j * i_alpha.

        q_layout adds the entries block column by block column, with alpha = 1..k
        inside each column, so their block rows fill the table row by row."""
        table = np.array([i for i, _ in self.entries]).reshape(self.block_cols, self.k) - 1
        table.flags.writeable = False
        return table

    def entry(self, i: int, j: int) -> int | None:
        return self.entries.get((i, j))


@functools.lru_cache(maxsize=32)
def q_layout(n: int, k: int) -> QLayout:
    """Layout induced by multiplication from degree n to degree n+1.

    Memoised on (n, k): callers share one layout and must not mutate it.
    """
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    cols = sym_basis(k, n)
    rows = sym_basis(k, n + 1)
    entries: dict[tuple[int, int], int] = {}
    for j, zeta in enumerate(cols, start=1):
        for alpha in range(1, k + 1):
            i = rows.index(multiply_by_var(zeta, alpha))
            entries[(i, j)] = alpha
    return QLayout(n, k, rows, cols, entries)


# -- renderers ---------------------------------------------------------------


def layout_table(layout: QLayout) -> str:
    """Fixed-width table with monomial labels on both axes; '.' marks zero blocks."""
    col_labels = [layout.col_basis.label(j) for j in range(1, layout.block_cols + 1)]
    row_labels = [layout.row_basis.label(i) for i in range(1, layout.block_rows + 1)]
    cells = [[f"M_{a}" if (a := layout.entry(i, j)) else "."
              for j in range(1, layout.block_cols + 1)]
             for i in range(1, layout.block_rows + 1)]
    width = max(len(s) for s in col_labels + [c for row in cells for c in row])
    stub = max(len(s) for s in row_labels)
    lines = [" " * stub + "  " + " ".join(s.ljust(width) for s in col_labels)]
    for label, row in zip(row_labels, cells):
        lines.append(label.ljust(stub) + "  " + " ".join(c.ljust(width) for c in row))
    return "\n".join(line.rstrip() for line in lines) + "\n"


def layout_csv(layout: QLayout) -> str:
    """One 'i,j,alpha' triple per line, sorted by (i, j)."""
    lines = [f"{i},{j},{a}" for (i, j), a in sorted(layout.entries.items())]
    return "\n".join(lines) + "\n"
