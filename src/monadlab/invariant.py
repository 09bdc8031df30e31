"""The big multiplication matrix Q, its determinant, and the explicit syzygy.

Q is the square matrix of the map  W tensor S^n I  ->  V tensor S^{n+1} I
induced by the block data: in the block partition indexed by the two monomial
bases, block (i, j) is M_alpha when eta_i = zeta_j * i_alpha and zero
otherwise.  Both sides have dimension (2n+2k)*C(k+n-1, n) = (2n+2)*C(k+n, n+1).

The syzygy S stacks M_1^t..M_k^t over zero blocks, so Q*S needs only Q's
first k block columns.  Row block i of Q*S sums M_a*M_b^t over the pairs
(a, b) with M_a in row block i of block column b; the layout gives each row
block that holds a block exactly the pairs {(a, a)} or {(a, b), (b, a)}, at
the monomials i_1^{n-1} i_a i_b, so it is M_a*M_a^t or M_a*M_b^t + M_b*M_a^t,
the identity-pairing defect D_ab (halved on the diagonal, and p is odd).
Hence when the identity-pairing quadratic conditions hold, Q*S = 0 with
S != 0 and Q is singular over any field.  :func:`_syzygy_rows` checks that
lemma on the layout once per (n, k), and :func:`orthogonal_verdict` reads
it: det Q = 0 follows from nonzero data with zero defects, and neither Q nor
Q*S is formed there.  Only :func:`verify_syzygy` multiplies Q*S, over the
k(k+1)/2 row blocks that hold a block, on the integer ``stack`` (L times
the blocks, so L**2 times Q*S).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .exact import ExactMatrix, Field
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


def _place(a: np.ndarray, table: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """Put block alpha of ``stack``, a (k, r, c) array, into block row
    table[j, alpha] of block column j of the zero array ``a``, for every
    j < len(table) and alpha: one broadcast assignment on ``a`` viewed as
    (block row, row, block column, column)."""
    count, (_, br, bc) = len(table), stack.shape
    # the indexed axes come out first: (j, alpha, row, column)
    a.reshape(-1, br, count, bc)[table, :, np.arange(count)[:, None], :] = stack
    return a


def build_q(d: MonadData) -> QMatrix:
    """Q: M_alpha in block row zeta_j * i_alpha of block column j, over ``scale``."""
    layout = q_layout(d.n, d.k)
    a = np.zeros((layout.block_rows * d.block_rows, len(layout.table) * d.block_cols),
                 d.stack.dtype)
    return QMatrix(ExactMatrix._wrap(d.field, _place(a, layout.table, d.stack), d.scale))


def det_q(d: MonadData):
    """Exact determinant of the assembled matrix; computed once per data."""
    if "det_q" not in d._memo:
        d._memo["det_q"] = build_q(d).matrix.det()
    return d._memo["det_q"]


def build_syzygy(d: MonadData) -> SyzygyMatrix:
    """Stack M_1^t..M_k^t over s-k zero blocks; shape ((2n+2k)*s) x (2n+2)."""
    s = math.comb(d.k + d.n - 1, d.n)
    a = np.zeros((s * d.block_cols, d.block_rows), d.stack.dtype)
    a[:d.k * d.block_cols] = _side_by_side(d.stack).T
    return SyzygyMatrix(ExactMatrix._wrap(d.field, a, d.scale))


@dataclass(frozen=True)
class SyzygyReport:
    residual_is_zero: bool
    syzygy_is_zero: bool  # all blocks zero: the singularity argument is vacuous
    defects_all_zero: bool

    @property
    def det_zero_forced(self) -> bool:
        return self.residual_is_zero and not self.syzygy_is_zero


@functools.lru_cache(maxsize=32)
def _syzygy_rows(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The row blocks of Q*S that hold a product, in order, and the place among
    them of each block of Q's first k block columns: read-only, made once per
    (n, k).  S holds M_b^t in block row b < k, so M_a * M_b^t lands in row
    block table[b, a]; that k x k table is symmetric with k(k+1)/2 distinct
    entries, so each such row block is M_a*M_a^t or M_a*M_b^t + M_b*M_a^t,
    and zero identity-pairing defects give Q*S = 0 for every data of the
    shape.  That is the lemma :func:`orthogonal_verdict` reads; a layout that
    breaks it raises ``RuntimeError``."""
    table = q_layout(n, k).table[:k]
    used = np.array(sorted(set(table.flat)))  # np.unique's first call imports numpy.ma
    if not (table == table.T).all() or len(used) != k * (k + 1) // 2:
        raise RuntimeError("syzygy argument violated: quadratic conditions hold "
                           "but Q*S != 0; this is a bug")
    places = np.searchsorted(used, table)
    used.flags.writeable = places.flags.writeable = False
    return used, places


def _q_s(field: Field, stack: np.ndarray) -> np.ndarray:
    """Q*S in the row blocks of :func:`_syzygy_rows`, from the data's
    ``stack``, a (k, r, c) array: mod p over GF(p), over Q exactly, which is
    L**2 times Q*S; a (used * r, r) array."""
    k, br, bc = stack.shape
    used, places = _syzygy_rows(br // 2 - 1, k)
    # Q's first k block columns, in the used block rows only
    q = _place(np.zeros((len(used) * br, k * bc), stack.dtype), places, stack)
    return field.matmul(q, _side_by_side(stack).T)


def verify_syzygy(d: MonadData) -> SyzygyReport:
    """Whether Q*S = 0, S = 0 and the identity-pairing defects vanish.

    Only Q's first k block columns meet S's nonzero rows, M_1^t..M_k^t, so only
    they are assembled, and only their k(k+1)/2 block rows that hold a block are
    multiplied: at n=4, k=5, 90 of 1260 columns and 15 of 126 block rows (all at n=1).
    Both factors come from ``d.stack``: over Q their integer product is L**2
    times Q*S, which has the same zeros.
    """
    return SyzygyReport(
        residual_is_zero=not _q_s(d.field, d.stack).any(),
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


def _verdict(n: int, k: int, zero: bool, bad: tuple[tuple[int, int], ...]) -> OrthogonalVerdict:
    """The verdict on data of shape (n, k) that are ``zero`` or not, with
    nonzero-defect pairs ``bad``: for nonzero data whose defects vanish,
    det Q = 0 by the lemma of :func:`_syzygy_rows`."""
    if zero:
        return OrthogonalVerdict(DEGENERATE, "degenerate: A = 0, never of maximal rank")
    if bad:
        a, b = bad[0]
        return OrthogonalVerdict(DEFECT_NONZERO, "orthogonal conditions violated at "
                                 f"(alpha,beta)=({a},{b})")
    _syzygy_rows(n, k)  # the shape's lemma: raises if the layout breaks it
    return OrthogonalVerdict(DET_ZERO_BY_SYZYGY, "not an instanton: det Q = 0 by syzygy")


def orthogonal_verdict(d: MonadData) -> OrthogonalVerdict:
    """Executable form of the non-existence argument for one candidate.

    If the identity-pairing quadratic conditions hold and the syzygy is
    nonzero, Q*S = 0 by the per-shape lemma of :func:`_syzygy_rows`, which
    proves det Q = 0 without forming Q or Q*S, so the candidate fails the
    non-degeneracy requirement and cannot define an instanton bundle.
    Otherwise the violated condition is reported.
    """
    zero = d.is_zero()
    bad = () if zero else _nonzero_defects(d, ORTHOGONAL_IDENTITY)
    return _verdict(d.n, d.k, zero, bad)
