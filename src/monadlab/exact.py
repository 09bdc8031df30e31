"""Exact dense linear algebra over the rationals and over prime fields GF(p).

Scalars are plain Python values: ``fractions.Fraction`` over the rationals
(always in lowest terms with positive denominator) and canonical ``int``
representatives in ``[0, p)`` over GF(p).  Matrices are immutable after
construction.  GF(p) data lives in int64 numpy arrays with the prime bounded
by 2**31 so every intermediate product fits in 64-bit arithmetic; rational
data lives in object arrays of Fractions.  :class:`Field` owns everything
that differs between the two: storage, reduction, products and elimination.

Rational products are computed over Z, as FLINT's ``fmpq_mat_mul_cleared``
does: each row of the left factor and each column of the right one is
multiplied by the lcm of its denominators, the integer arrays are
multiplied, and only the entries of the result become Fractions.  For the
order-280 Q times its syzygy S that is about 60 ms, against about 3 s with
a Fraction operation for every scalar step.

Each field has one forward elimination, returning the echelon form, the
pivot columns and the determinant; ``det``, ``rank`` and ``kernel_basis``
read what they need from it.  Over GF(p) it is ordinary elimination that
touches only the rows with a nonzero entry in the pivot column, with
delayed modular reduction: the rank-1 updates accumulate in int64 and the
trailing block is reduced mod p only when one more update could overflow
(Dumas, Giorgi and Pernet, FFLAS-FFPACK, arXiv:cs/0601133).  Over the
rationals it is fraction-free (Bareiss) elimination on a denominator-cleared
integer matrix, which keeps intermediate entries at minor size instead of
exploding and gives the rank as well as the determinant.  A matrix keeps the
scalars of its first elimination, never the echelon array, so ``det`` and
``rank`` of one matrix eliminate it once unless ``det`` stopped early.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Sequence

import numpy as np

_PRIME_LIMIT = 2**31
# chunk the contraction axis so partial dot products stay below 2**62
_INT64_BUDGET = 2**62


class MatrixFormatError(ValueError):
    """Malformed matrix or monad text input."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class Field:
    """An exact coefficient field: the rationals or GF(p) for an odd prime p.

    Besides scalars, a field owns the storage of matrices over it: the array
    type, reduction to canonical entries, products and elimination.
    """

    __slots__ = ("p",)

    def __init__(self, p: int | None = None):
        if p is not None:
            if p % 2 == 0 or p >= _PRIME_LIMIT or not _is_prime(p):
                raise ValueError(f"field modulus must be an odd prime < 2**31, got {p}")
        self.p = p

    @property
    def is_prime_field(self) -> bool:
        return self.p is not None

    @property
    def spec(self) -> str:
        """Header token used by the text formats: 'rational' or 'gf:P'."""
        return "rational" if self.p is None else f"gf:{self.p}"

    def coerce(self, x):
        """Canonical field element from an int, Fraction or string token."""
        if self.p is None:
            return Fraction(x)
        if isinstance(x, Fraction):
            if x.denominator != 1:
                raise ValueError(f"cannot coerce {x} into GF({self.p})")
            x = x.numerator
        return int(x) % self.p

    def one(self):
        return self.coerce(1)

    def div(self, x, y):
        """x / y for integers or field elements x and y != 0."""
        if self.p is None:
            return Fraction(x) / y
        return x * pow(y, -1, self.p) % self.p

    def sample(self, rng: np.random.Generator, size, box: int) -> np.ndarray:
        """Uniform entries of shape ``size`` (one entry for None): all of GF(p),
        or integers in [-box, box] over Q."""
        if self.p is not None:
            return rng.integers(0, self.p, size=size, dtype=np.int64)
        ints = rng.integers(-box, box + 1, size=size)
        fractions = [Fraction(x) for x in ints.ravel().tolist()]
        return np.array(fractions, dtype=object).reshape(ints.shape)

    # -- storage arrays ---------------------------------------------------------

    def zeros(self, rows: int, cols: int) -> np.ndarray:
        """Zero storage array: int64 over GF(p), Fractions over Q."""
        if self.p is None:
            return np.full((rows, cols), Fraction(0), dtype=object)
        return np.zeros((rows, cols), dtype=np.int64)

    def array(self, rows: list, cols: int) -> np.ndarray:
        """Storage array of ``rows``, each a list of ``cols`` canonical entries."""
        a = self.zeros(len(rows), cols)
        if rows:
            a[...] = rows
        return a

    def reduce(self, a: np.ndarray) -> np.ndarray:
        """Make the entries of a sum, difference or scalar product canonical, in place."""
        if self.p is not None:
            a %= self.p
        return a

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.p is None:
            return _matmul_qq(a, b)
        return _matmul_gf(a, b, self.p)

    def echelon(self, a: np.ndarray, det_only: bool = False):
        """Forward elimination: (echelon form, pivot columns, determinant).

        The echelon form has the right kernel of ``a``; its first
        ``len(pivots)`` rows hold the pivots.  The determinant is only
        meaningful for square ``a``, and is zero when a column has no pivot;
        with ``det_only`` elimination stops at that column, and over GF(p)
        the rows below the last pivot may then hold entries outside [0, p).
        """
        if self.p is None:
            return _echelon_qq(a, det_only)
        return _echelon_gf(a, self.p, det_only)

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("monadlab.Field", self.p))

    def __repr__(self):
        return "QQ" if self.p is None else f"GF({self.p})"


QQ = Field()


def GF(p: int) -> Field:
    return Field(p)


def parse_field(spec: str) -> Field:
    """Inverse of ``Field.spec``."""
    spec = spec.strip()
    if spec == "rational":
        return QQ
    m = re.fullmatch(r"gf:(\d+)", spec)
    if not m:
        raise MatrixFormatError(f"unknown field spec {spec!r}")
    try:
        return GF(int(m.group(1)))
    except ValueError as e:
        raise MatrixFormatError(str(e)) from None


def _check_same_field(a: "ExactMatrix", b: "ExactMatrix"):
    if a.field != b.field:
        raise ValueError(f"field mismatch: {a.field} vs {b.field}")


class ExactMatrix:
    """Immutable dense matrix with all entries in one exact field."""

    __slots__ = ("field", "_a", "_elim")  # _elim: see _eliminate

    def __init__(self, field: Field, rows: Sequence[Sequence]):
        rows = [list(r) for r in rows]
        cols = len(rows[0]) if rows else 0
        if any(len(r) != cols for r in rows):
            raise ValueError("ragged rows")
        self._adopt(field, field.array([[field.coerce(x) for x in r] for r in rows], cols))

    def _adopt(self, field: Field, a: np.ndarray):
        self.field = field
        self._a = a
        self._elim = None
        a.flags.writeable = False

    @classmethod
    def _wrap(cls, field: Field, a: np.ndarray) -> "ExactMatrix":
        """Adopt an ndarray that is already canonical for ``field``."""
        m = cls.__new__(cls)
        m._adopt(field, a)
        return m

    # -- constructors -----------------------------------------------------

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "ExactMatrix":
        return cls._wrap(field, field.zeros(rows, cols))

    @classmethod
    def identity(cls, field: Field, n: int) -> "ExactMatrix":
        a = field.zeros(n, n)
        np.fill_diagonal(a, field.one())
        return cls._wrap(field, a)

    @classmethod
    def random(cls, field: Field, rows: int, cols: int, rng: np.random.Generator,
               box: int = 10) -> "ExactMatrix":
        """Uniform entries: all of GF(p), or integers in [-box, box] over Q."""
        return cls._wrap(field, field.sample(rng, (rows, cols), box))

    # -- shape and access --------------------------------------------------

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._a.shape  # type: ignore[return-value]

    def __getitem__(self, ij):
        return self._a.item(*ij)

    def row_list(self, i: int) -> list:
        return self._a[i].tolist()

    def tolist(self) -> list[list]:
        return self._a.tolist()

    def block(self, i: int, j: int, block_rows: int, block_cols: int) -> "ExactMatrix":
        """The (i, j) block (0-based) of the block partition with given sizes."""
        sub = self._a[i * block_rows:(i + 1) * block_rows,
                      j * block_cols:(j + 1) * block_cols]
        return ExactMatrix._wrap(self.field, sub.copy())

    # -- arithmetic ---------------------------------------------------------

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        _check_same_field(self, other)
        if self.cols != other.rows:
            raise ValueError(f"dimension mismatch: {self.shape} @ {other.shape}")
        return ExactMatrix._wrap(self.field, self.field.matmul(self._a, other._a))

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        _check_same_field(self, other)
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} + {other.shape}")
        return ExactMatrix._wrap(self.field, self.field.reduce(self._a + other._a))

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix._wrap(self.field, self.field.reduce(-self._a))

    def scale(self, s) -> "ExactMatrix":
        return ExactMatrix._wrap(self.field, self.field.reduce(self._a * self.field.coerce(s)))

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix._wrap(self.field, self._a.T.copy())

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._a.any()

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.field == other.field and self.shape == other.shape
                and bool(np.array_equal(self._a, other._a)))

    def __hash__(self):
        return hash((self.field, self.shape, tuple(self._a.flat)))

    def __repr__(self):
        return f"ExactMatrix({self.field!r}, {self.tolist()!r})"

    # -- elimination-based operations -----------------------------------------

    def _eliminate(self, det_only: bool = False):
        """(echelon, pivots); keeps (pivot count, det, pivot count is rank) in ``_elim``."""
        echelon, pivots, det = self.field.echelon(self._a, det_only)
        self._elim = (len(pivots), det, not det_only or len(pivots) == self.rows)
        return echelon, pivots

    def det(self):
        """Exact determinant; elimination stops at the first column without a pivot."""
        if self.rows != self.cols:
            raise ValueError(f"determinant of non-square {self.shape} matrix")
        if self._elim is None:
            self._eliminate(det_only=True)
        return self._elim[1]

    def rank(self) -> int:
        if self._elim is None or not self._elim[2]:
            self._eliminate()
        return self._elim[0]

    def kernel_basis(self) -> list["ExactMatrix"]:
        """Basis of the right null space, as column vectors; [] iff full column rank.

        One vector per free column f: entry f is 1, the other free entries are
        0, and the pivot entries follow by back-substitution.
        """
        echelon, pivots = self._eliminate()
        rows = echelon[:len(pivots)].tolist()
        basis = []
        for f in sorted(set(range(self.cols)) - set(pivots)):
            v = [0] * self.cols
            v[f] = 1
            for row, c in reversed(list(zip(rows, pivots))):
                tail = sum(x * y for x, y in zip(row[c + 1:], v[c + 1:]))
                v[c] = self.field.div(-tail, row[c])
            basis.append(ExactMatrix(self.field, [[x] for x in v]))
        return basis


def _stack(mats: Sequence[ExactMatrix], axis: int, mismatch: str) -> ExactMatrix:
    """Join matrices along ``axis``; the other dimension must agree."""
    first = mats[0]
    for m in mats[1:]:
        _check_same_field(first, m)
        if m.shape[1 - axis] != first.shape[1 - axis]:
            raise ValueError(mismatch)
    return ExactMatrix._wrap(first.field, np.concatenate([m._a for m in mats], axis=axis))


def hstack(mats: Sequence[ExactMatrix]) -> ExactMatrix:
    return _stack(mats, 1, "hstack row mismatch")


def vstack(mats: Sequence[ExactMatrix]) -> ExactMatrix:
    return _stack(mats, 0, "vstack column mismatch")


# -- GF(p) kernels -------------------------------------------------------------


def _matmul_gf(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    n = a.shape[1]
    chunk = max(1, _INT64_BUDGET // ((p - 1) ** 2))
    if chunk >= n:
        return (a @ b) % p
    acc = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for s in range(0, n, chunk):
        acc = (acc + a[:, s:s + chunk] @ b[s:s + chunk, :]) % p
    return acc


def _echelon_gf(a: np.ndarray, p: int, det_only: bool) -> tuple[np.ndarray, list[int], int]:
    """Row echelon form over GF(p); see :meth:`Field.echelon`.

    Delayed reduction: the rank-1 update subtracts factor * pivot row with
    no ``% p``.  Both are canonical, so an update moves an entry by less than
    p**2, and ``budget`` updates fit in int64 on top of a canonical entry
    (about 9e9 at p = 32003, 8 just below 2**30, 2 just below 2**31).
    ``pending`` counts updates since the trailing block was last canonical;
    before the update that would exceed the budget the trailing block's
    ``touched`` rows, the only ones an update has moved, are reduced.
    Sooner than that, only what elimination reads is reduced:

    - the stored nonzeros of the pivot column, since a nonzero multiple of
      p is zero and must not become the pivot (when nothing is pending the
      entries are canonical and this is skipped);
    - the pivot row, if an update touched it since it was last canonical.

    Entries that elimination makes zero are stored as exact zeros: the
    eliminated column of the updated rows, and pivot-column entries that
    reduce to zero.  Pivot rows are canonical once chosen and every other
    entry is such a zero, so the result needs no final reduction and is the
    array that reducing at every step gives.  When ``det_only`` stops early,
    the rows it did not finish are left as they are, right only mod p.
    """
    a = a.copy()
    rows, cols = a.shape
    budget = (2**63 - 1 - p) // p**2
    pending = 0  # updates since the trailing block was last reduced
    touched = np.zeros(rows, dtype=bool)  # rows updated since then
    pivots: list[int] = []
    det = 1
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        col = a[r:, c]
        nz = col.nonzero()[0]
        vals = col[nz]
        if pending:
            vals %= p
            keep = vals.nonzero()[0]
            if keep.size < nz.size:
                col[nz] = vals
                nz, vals = nz[keep], vals[keep]
        if nz.size == 0:
            det = 0
            if det_only:
                break
            continue
        if nz[0]:
            i = r + int(nz[0])
            row = a[i, c:].copy()
            a[i, c:] = a[r, c:]
            a[r, c:] = row
            touched[r], touched[i] = touched[i], touched[r]
            det = -det
        if touched[r]:
            a[r, c:] %= p
        piv = int(vals[0])
        det = det * piv % p
        if nz.size > 1:
            if pending == budget:
                stale = r + 1 + np.flatnonzero(touched[r + 1:])
                a[stale, c + 1:] %= p
                pending = 0
                touched[:] = False
            # after the swap the rows below r with a nonzero in column c are
            # exactly r + nz[1:]; every other row is left as it is.  A run of
            # consecutive rows is updated through a view, with no gather
            below = r + nz[1:]
            if below[-1] - below[0] == below.size - 1:
                below = slice(below[0], below[-1] + 1)
            factors = vals[1:] * pow(piv, -1, p) % p
            a[below, c + 1:] -= factors[:, None] * a[r, c + 1:]
            col[nz[1:]] = 0
            pending += 1
            touched[below] = True
        pivots.append(c)
    return a, pivots, det


def _full_row_rank_gf(a: np.ndarray, p: int) -> np.ndarray:
    """For a stack of T matrices (T x r x c, entries in [0, p)): which have rank r.

    One elimination for the whole stack, r row steps and no row swaps: step i
    takes the first nonzero entry of row i as its pivot and clears that column
    from the rows below by row <- piv * row - x * (row i).  Scaling a row by
    the nonzero pivot keeps the row span, so no pivot inverse is needed, and
    both products stay below 2**62.  A row that is zero when its step comes
    is a combination of the rows above it.
    """
    a = a.copy()
    t = np.arange(a.shape[0])
    full = np.ones(a.shape[0], dtype=bool)
    for i in range(a.shape[1]):
        row = a[:, i, :]
        col = (row != 0).argmax(axis=1)
        piv = row[t, col]
        full &= piv != 0
        below = a[:, i + 1:, :]
        x = below[t, :, col]
        below[...] = (piv[:, None, None] * below - x[:, :, None] * row[:, None, :]) % p
    return full


# -- rational kernels ------------------------------------------------------------


def _cleared_rows(a: np.ndarray) -> tuple[list[list[int]], list[int]]:
    """Each row of a Fraction array times the lcm of its denominators: the
    integer rows and, for each, its lcm."""
    rows, scales = [], []
    for row in a.tolist():
        scale = math.lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (scale // x.denominator) for x in row])
        scales.append(scale)
    return rows, scales


def _matmul_qq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over Q, multiplied over Z (FLINT's ``fmpq_mat_mul_cleared``).

    Row i of ``a`` is cleared by r_i and column j of ``b`` by c_j, so entry
    (i, j) of the integer product is r_i * c_j times that of ``a @ b``; only
    the result's entries become Fractions.
    """
    ia, row_scales = _cleared_rows(a)
    ib, col_scales = _cleared_rows(b.T)
    prod = (np.array(ia, dtype=object).reshape(a.shape)
            @ np.array(ib, dtype=object).reshape(b.shape[::-1]).T)
    out = [[Fraction(x, r * c) for x, c in zip(row, col_scales)]
           for row, r in zip(prod.tolist(), row_scales)]
    return np.array(out, dtype=object).reshape(prod.shape)


def _echelon_qq(a: np.ndarray, det_only: bool) -> tuple[np.ndarray, list[int], Fraction]:
    """Fraction-free (Bareiss) row echelon form over Q; see :meth:`Field.echelon`.

    Each row is first scaled by the lcm of its denominators, which keeps the
    kernel and multiplies the determinant by the product of the scales.  The
    echelon entries are integers.
    """
    rows, cols = a.shape
    m, scales = _cleared_rows(a)
    denom = math.prod(scales)
    pivots: list[int] = []
    sign = 1
    prev = 1
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        i = next((i for i in range(r, rows) if m[i][c]), None)
        if i is None:
            if det_only:
                break
            continue
        if i != r:
            m[r], m[i] = m[i], m[r]
            sign = -sign
        row_r = m[r]
        piv = row_r[c]
        for row in m[r + 1:]:
            x = row[c]
            for j in range(c + 1, cols):
                # exact division: the quotient is a minor determinant
                row[j] = (row[j] * piv - x * row_r[j]) // prev
            row[c] = 0
        prev = piv
        pivots.append(c)
    det = sign * prev if len(pivots) == rows == cols else 0
    return np.array(m, dtype=object).reshape(rows, cols), pivots, Fraction(det, denom)


# -- text format ------------------------------------------------------------------
#
# line 1:  matrix rows=<R> cols=<C> field=<rational|gf:P>
# then R lines of C whitespace-separated entries; '#' lines are comments.
# An entry is an integer over GF(p), and an integer or a/b over Q.

_MATRIX_HEADER = re.compile(r"matrix rows=(\d+) cols=(\d+) field=(\S+)")
# one entry and one row of entries, keyed by Field.is_prime_field
_ENTRY = {True: re.compile(r"-?[0-9]+"), False: re.compile(r"-?[0-9]+(?:/[0-9]+)?")}
_ENTRY_ROW = {prime: re.compile(rf"{e.pattern}(?:\s+{e.pattern})*")
              for prime, e in _ENTRY.items()}


def format_matrix(m: ExactMatrix) -> str:
    lines = [f"matrix rows={m.rows} cols={m.cols} field={m.field.spec}"]
    for i in range(m.rows):
        lines.append(" ".join(map(str, m.row_list(i))))
    return "\n".join(lines) + "\n"


def content_lines(text: str) -> list[str]:
    """Non-comment, non-blank lines."""
    out = []
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append(line)
    return out


def parse_entry_row(field: Field, line: str, expected: int) -> list:
    """The entries of one stripped line; the whole row is matched at once."""
    toks = line.split()
    if len(toks) != expected:
        raise MatrixFormatError(f"expected {expected} entries, got {len(toks)}: {line!r}")
    prime = field.is_prime_field
    if not _ENTRY_ROW[prime].fullmatch(line):
        bad = next(t for t in toks if not _ENTRY[prime].fullmatch(t))
        raise MatrixFormatError(f"bad entry {bad!r} in {line!r}")
    try:
        return [field.coerce(t) for t in toks]
    except ZeroDivisionError as e:
        raise MatrixFormatError(f"bad entry in {line!r}: {e}") from None


def parse_matrix(text: str) -> ExactMatrix:
    lines = content_lines(text)
    if not lines:
        raise MatrixFormatError("empty matrix input")
    m = _MATRIX_HEADER.fullmatch(lines[0])
    if not m:
        raise MatrixFormatError(f"bad matrix header: {lines[0]!r}")
    rows, cols = int(m.group(1)), int(m.group(2))
    field = parse_field(m.group(3))
    if len(lines) - 1 != rows:
        raise MatrixFormatError(f"expected {rows} entry rows, got {len(lines) - 1}")
    data = [parse_entry_row(field, line, cols) for line in lines[1:]]
    return ExactMatrix._wrap(field, field.array(data, cols))
