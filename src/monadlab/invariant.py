"""The big multiplication matrix Q, its determinant, and the explicit syzygy.

Q is the square matrix of the map  W tensor S^n I  ->  V tensor S^{n+1} I
induced by the block data: in the block partition indexed by the two monomial
bases, block (i, j) is M_alpha when eta_i = zeta_j * i_alpha and zero
otherwise.  Both sides have dimension (2n+2k)*C(k+n-1, n) = (2n+2)*C(k+n, n+1).

The syzygy S stacks M_1^t..M_k^t over zero blocks, so Q*S needs only Q's
first k block columns, and only those are assembled for it; the rest meet
zero rows of S.  Row block i of Q*S equals M_a*M_b^t + M_b*M_a^t (or
M_a*M_a^t on the diagonal) for the rows indexed by monomials i_1^{n-1} i_a i_b,
and vanishes identically elsewhere: only these k(k+1)/2 row blocks are
multiplied.  Hence when the identity-pairing quadratic conditions hold,
Q*S = 0 with S != 0 and Q is singular.
:func:`orthogonal_verdict` packages that chain of implications.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exact import ExactMatrix
from .monad import ORTHOGONAL_IDENTITY, MonadData, _nonzero_defects, _side_by_side
from .symcomb import q_layout


def dimension_identity(n: int, k: int) -> tuple[int, int, bool]:
    """Dimensions of both sides of the map; they agree for every n, k >= 1."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    lhs = (2 * n + 2 * k) * math.comb(k + n - 1, n)
    rhs = (2 * n + 2) * math.comb(k + n, n + 1)
    return lhs, rhs, lhs == rhs


@dataclass(frozen=True)
class QMatrix:
    matrix: ExactMatrix


@dataclass(frozen=True)
class SyzygyMatrix:
    matrix: ExactMatrix


def _q_columns(d: MonadData, count: int) -> ExactMatrix:
    """Q's first ``count`` block columns.

    Block column j holds M_alpha in the block row of zeta_j * i_alpha for
    every alpha, so all blocks go in with one broadcast assignment on the
    storage viewed as (block row, row, block column, column).
    """
    layout = q_layout(d.n, d.k)
    br, bc = d.block_rows, d.block_cols
    a = d.field.zeros(layout.block_rows * br, count * bc)
    a.reshape(layout.block_rows, br, count, bc)[
        layout.table[:count], :, np.arange(count)[:, None], :] = d.stack
    return ExactMatrix._wrap(d.field, a)


def build_q(d: MonadData) -> QMatrix:
    """Assemble the square matrix: all of its block columns."""
    return QMatrix(_q_columns(d, math.comb(d.k + d.n - 1, d.n)))


def det_q(d: MonadData):
    """Exact determinant of the assembled matrix; computed once per data."""
    if "det_q" not in d._memo:
        d._memo["det_q"] = build_q(d).matrix.det()
    return d._memo["det_q"]


def build_syzygy(d: MonadData) -> SyzygyMatrix:
    """Stack M_1^t..M_k^t over s-k zero blocks; shape ((2n+2k)*s) x (2n+2)."""
    s = math.comb(d.k + d.n - 1, d.n)
    a = d.field.zeros(s * d.block_cols, d.block_rows)
    a[:d.k * d.block_cols] = _side_by_side(d.stack).T
    return SyzygyMatrix(ExactMatrix._wrap(d.field, a))


@dataclass(frozen=True)
class SyzygyReport:
    residual: ExactMatrix
    residual_is_zero: bool
    syzygy_is_zero: bool  # all blocks zero: the singularity argument is vacuous
    defects_all_zero: bool

    @property
    def det_zero_forced(self) -> bool:
        return self.residual_is_zero and not self.syzygy_is_zero


def verify_syzygy(d: MonadData) -> SyzygyReport:
    """Residual Q*S, identity-pairing defects, and whether singularity is forced.

    Only Q's first k block columns meet S's nonzero rows, M_1^t..M_k^t, so only
    they are assembled, and only their k(k+1)/2 block rows that hold a block are
    multiplied: at n=4, k=5, 90 of 1260 columns and 15 of 126 block rows (all at n=1).
    """
    q, br = _q_columns(d, d.k)._a, d.block_rows
    # sorted(set()), not np.unique: that one's first call imports numpy.ma
    used = np.array(sorted(set(q_layout(d.n, d.k).table[:d.k].flat)))
    rows = (used[:, None] * br + np.arange(br)).ravel()
    residual = d.field.zeros(q.shape[0], br)
    residual[rows] = d.field.matmul(q[rows], _side_by_side(d.stack).T)
    return SyzygyReport(
        residual=ExactMatrix._wrap(d.field, residual),
        residual_is_zero=not residual.any(),
        syzygy_is_zero=d.is_zero(),
        defects_all_zero=not _nonzero_defects(d, ORTHOGONAL_IDENTITY),
    )


DET_ZERO_BY_SYZYGY = "det-zero-by-syzygy"
DEFECT_NONZERO = "defect-nonzero"
DEGENERATE = "degenerate"


@dataclass(frozen=True)
class OrthogonalVerdict:
    """Outcome of testing data against the orthogonal-instanton requirements."""

    status: str
    message: str

    @property
    def excluded(self) -> bool:
        """True when the data provably cannot define an instanton bundle."""
        return self.status in (DET_ZERO_BY_SYZYGY, DEGENERATE)


def orthogonal_verdict(d: MonadData) -> OrthogonalVerdict:
    """Executable form of the non-existence argument for one candidate.

    If the identity-pairing quadratic conditions hold and the syzygy is
    nonzero, the determinant is computed exactly and must be zero, so the
    candidate fails the non-degeneracy requirement and cannot define an
    instanton bundle.  Otherwise the violated condition is reported.
    """
    if d.is_zero():
        return OrthogonalVerdict(DEGENERATE, "degenerate: A = 0, never of maximal rank")
    bad = _nonzero_defects(d, ORTHOGONAL_IDENTITY)
    if bad:
        a, b = bad[0]
        return OrthogonalVerdict(DEFECT_NONZERO, "orthogonal conditions violated at "
                                 f"(alpha,beta)=({a},{b})")
    det = det_q(d)
    if det != 0:
        raise RuntimeError("syzygy argument violated: quadratic conditions hold "
                           f"but det = {det}; this is a bug")
    return OrthogonalVerdict(DET_ZERO_BY_SYZYGY, "not an instanton: det Q = 0 by syzygy")
