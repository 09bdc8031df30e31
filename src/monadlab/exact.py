"""Exact dense linear algebra over the rationals and over prime fields GF(p).

Scalars are plain Python values: ``fractions.Fraction`` over the rationals
(always in lowest terms with positive denominator) and canonical ``int``
representatives in ``[0, p)`` over GF(p).  Matrices are immutable after
construction.  A matrix is an integer array over one positive denominator
(FLINT's ``fmpq_mat_get_fmpz_mat_matwise``): residues over 1 for GF(p), with
p < 2**31 so every product of two fits in 64-bit arithmetic; over Q the
numerators over the lcm of the entries' denominators, so no prime divides
the denominator and every entry.  The array is int64 when every entry fits
in it, Python ints otherwise.  Fractions are made only by ``coerce`` (entries
of rational files, point coordinates), ``m[i, j]``, ``tolist`` and ``det``; a
GF(p) file's entries are read as one integer array, and text is written from
the integer array alone (``entry_text``).  :class:`Field` owns what differs
between the fields: products, det, rank and kernel of integer arrays.
Rational products are ``_matmul_zz`` over the product of the denominators.

There is one elimination, over GF(p), and one peel before it that det,
rank and kernel share: round after round, every row with one nonzero in
the columns left is taken with that column (singletons, the first step of
sparse LU; Davis, Direct Methods for Sparse Linear Systems, 2006), and only
the rest is eliminated.  The special family's Q, a permuted unitriangular
matrix, is never eliminated.  Elimination touches only the rows with a
nonzero entry in the pivot column, and in them only the columns between the
pivot row's first and last nonzero right of the pivot (George and Liu's
envelope; Q's blocks leave most of a row zero).  When int64 holds every
update an entry can get, as at p = 32003, reduction is delayed: updates
accumulate unreduced (Dumas, Giorgi and Pernet, arXiv:cs/0601133).
Otherwise each update is reduced as it is made.  Over the rationals ``det``,
``rank`` and ``kernel_basis`` work modulo CRT primes on the integer array
with each row divided by its content: ``det`` by the CRT on GF(p) dets up to
twice the Hadamard bound (for the random order-280 Q, 49-50 primes, about
0.6 s), ``kernel_basis`` by rational reconstruction of the joined modular
kernels, checked exactly, and ``rank`` as the pivot count of that verified
kernel.  A matrix keeps its det and rank, never an echelon array; a nonzero
det shows full rank, so ``rank`` after ``det`` eliminates again only when
det is zero.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

_PRIME_LIMIT = 2**31
# int64 headroom for sums of products below p**2: ``_matmul_gf`` chunks its
# sums to it, and ``_echelon_gf`` delays reduction only while updates fit in it
_INT64_BUDGET = 2**62


class MatrixFormatError(ValueError):
    """Malformed matrix or monad text input."""


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the bases 2, 3, ..., 37, which is exact for every
    n < 3.3 * 10**24; fields and CRT primes stay below 2**31."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n < _MR_BASES[-1] ** 2:  # no prime factor up to its square root
        return True
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**s with d odd
    d = (n - 1) >> s
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """An exact coefficient field: the rationals or GF(p) for an odd prime p.

    Besides scalars, a field owns the work on the integer arrays of matrices
    over it: storage of entries, reduction, products, det, rank and kernel.
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

    def element(self, x: int, den: int = 1):
        """x / den for an integer x: a Fraction over Q, x itself over GF(p)."""
        return x if self.p is not None else Fraction(x, den)

    def sample(self, rng: np.random.Generator, size, box: int) -> np.ndarray:
        """Uniform int64 entries of shape ``size`` (one entry for None): all of
        GF(p), or integers in [-box, box] over Q."""
        low, high = (0, self.p) if self.p is not None else (-box, box + 1)
        return rng.integers(low, high, size=size, dtype=np.int64)

    # -- integer arrays ---------------------------------------------------------

    def store(self, rows: list, cols: int) -> tuple[np.ndarray, int]:
        """The integer array and denominator of ``rows``, lists of ``cols``
        canonical entries: over Q, the lcm of the Fractions' denominators."""
        if self.p is not None:
            return np.array(rows, dtype=np.int64).reshape(len(rows), cols), 1
        pairs = [x.as_integer_ratio() for row in rows for x in row]
        den = math.lcm(*(d for _, d in pairs))
        ints = _fit(np.array([x * (den // d) for x, d in pairs], dtype=object))
        return ints.reshape(len(rows), cols), den

    def reduce(self, a: np.ndarray) -> np.ndarray:
        """Make the entries of a sum, difference or scalar product canonical, in place."""
        if self.p is not None:
            a %= self.p
        return a

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a @ b for integer arrays, mod p or by ``_matmul_zz``; stacks pairwise."""
        if self.p is None:
            return _matmul_zz(a, b)
        return _matmul_gf(a, b, self.p)

    def det(self, a: np.ndarray) -> int:
        """Determinant of a square integer array: over GF(p) ``_det_gf``,
        expansion along ``_peel``'s rows and then elimination of what is
        left, stopped at the first column without a pivot; over Q the Chinese
        remainder theorem on such determinants."""
        if self.p is None:
            return _det_qq(a)
        return _det_gf(a, self.p)

    def rank(self, a: np.ndarray) -> int:
        """Over GF(p) the rows ``_peel`` takes plus the pivots of the core's
        elimination, or over Q the pivot count of the verified kernel of
        ``a`` or ``a``'s transpose, whichever has fewer columns: the rank is
        the same and the kernel to lift is smaller."""
        if self.p is None:
            return len(_kernel_qq(a if a.shape[1] <= a.shape[0] else a.T)[0])
        return len(_pivots_gf(a, self.p)[0])

    def kernel(self, a: np.ndarray) -> tuple[list[int], np.ndarray, list[int]]:
        """Pivot columns, an integer array whose columns are a right kernel
        basis, and each column's denominator: ``_kernel_gf``, the core's
        kernel with zeros at ``_peel``'s columns, over Q ``_kernel_qq``."""
        if self.p is None:
            return _kernel_qq(a)
        pivots, basis = _kernel_gf(a, self.p)
        return pivots, basis, [1] * basis.shape[1]

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
    """Immutable dense matrix over one exact field: the array ``_a`` over ``_den``."""

    __slots__ = ("field", "_a", "_den", "_det", "_rank")  # scalars kept once computed

    def __init__(self, field: Field, rows: Sequence[Sequence]):
        rows = [list(r) for r in rows]
        cols = len(rows[0]) if rows else 0
        if any(len(r) != cols for r in rows):
            raise ValueError("ragged rows")
        self._adopt(field, *field.store([[field.coerce(x) for x in r] for r in rows], cols))

    def _adopt(self, field: Field, a: np.ndarray, den: int):
        self.field = field
        self._a, self._den = a, den
        self._det = self._rank = None
        a.flags.writeable = False

    @classmethod
    def _wrap(cls, field: Field, a: np.ndarray, den: int = 1) -> "ExactMatrix":
        """Adopt the integer array ``a`` over ``den``, already in the form the
        module docstring says (``_lowest`` puts a computed one in it)."""
        m = cls.__new__(cls)
        m._adopt(field, a, den)
        return m

    # -- constructors -----------------------------------------------------

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "ExactMatrix":
        return cls._wrap(field, np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def identity(cls, field: Field, n: int) -> "ExactMatrix":
        return cls._wrap(field, np.identity(n, dtype=np.int64))

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
        return self.field.element(self._a.item(*ij), self._den)

    def tolist(self) -> list[list]:
        rows = self._a.tolist()
        if self.field.is_prime_field:
            return rows
        return [[Fraction(x, self._den) for x in row] for row in rows]

    # -- arithmetic ---------------------------------------------------------

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        """self @ other over their one field.  An inner index whose row of
        ``other`` is zero adds only a·0, so ``Field.matmul`` multiplies only
        views up to ``other``'s last nonzero row: for Q·S at most Q's first k
        block columns, since S is zero below its first k block rows.  Every
        entry is the full sum's."""
        _check_same_field(self, other)
        if self.cols != other.rows:
            raise ValueError(f"dimension mismatch: {self.shape} @ {other.shape}")
        a, b = self._a, other._a
        rows = b.any(axis=1).nonzero()[0]
        inner = int(rows[-1]) + 1 if rows.size else 0
        if inner < len(b):
            a, b = a[:, :inner], b[:inner]
        return ExactMatrix._wrap(self.field, *_lowest(self.field.matmul(a, b),
                                                      self._den * other._den))

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix._wrap(self.field, self._a.T.copy(), self._den)

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._a.any()

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.field == other.field and self.shape == other.shape
                and self._den == other._den and bool(np.array_equal(self._a, other._a)))

    def __hash__(self):
        return hash((self.field, self.shape, self._den, tuple(self._a.flat)))

    def __repr__(self):
        return f"ExactMatrix({self.field!r}, {self.tolist()!r})"

    # -- elimination-based operations -----------------------------------------

    def det(self):
        """:meth:`Field.det` of ``_a`` over ``_den`` to the order, kept once
        computed; a nonzero one also gives the rank.  It is never read off the
        elimination ``rank`` runs, so over GF(p) ``rank`` then ``det`` eliminates
        twice, unless ``_peel`` leaves nothing."""
        if self.rows != self.cols:
            raise ValueError(f"determinant of non-square {self.shape} matrix")
        if self._det is None:
            self._det = self.field.element(self.field.det(self._a), self._den ** self.rows)
            if self._det:
                self._rank = self.rows
        return self._det

    def rank(self) -> int:
        """Exact rank by :meth:`Field.rank` (modular over Q), kept once computed."""
        if self._rank is None:
            self._rank = self.field.rank(self._a)
        return self._rank

    def kernel_basis(self) -> list["ExactMatrix"]:
        """Basis of the right null space, as column vectors; [] iff full column rank.

        One vector per free column f: entry f is 1, the other free entries are
        0, and the pivot entries follow by back-substitution (:meth:`Field.kernel`).
        """
        pivots, basis, dens = self.field.kernel(self._a)
        self._rank = len(pivots)
        return [ExactMatrix._wrap(self.field, *_lowest(basis[:, [j]], den))
                for j, den in enumerate(dens)]


# -- integer arrays --------------------------------------------------------------


def _fit(a: np.ndarray) -> np.ndarray:
    """An integer array as int64 when every entry fits in it, else as it is."""
    if a.dtype == object and -2**63 <= a.min(initial=0) and a.max(initial=0) < 2**63:
        return a.astype(np.int64)
    return a


def _lowest(a: np.ndarray, den: int) -> tuple[np.ndarray, int]:
    """a / den with both divided by gcd(den, entries), which leaves a zero
    array over 1, and the array ``_fit``."""
    if den != 1:
        g = math.gcd(den, int(np.gcd.reduce(a, axis=None)))
        if g != 1:
            # a zero array's gcd is den itself, which need not fit in int64
            a, den = a // g if a.any() else np.zeros(a.shape, dtype=np.int64), den // g
    return _fit(a), den


# -- GF(p) kernels -------------------------------------------------------------


def _matmul_gf(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for entries in [0, p); stacks multiply pairwise, as with ``@``."""
    n = a.shape[-1]
    chunk = max(1, _INT64_BUDGET // ((p - 1) ** 2))
    if chunk >= n:
        return (a @ b) % p
    acc = 0
    for s in range(0, n, chunk):
        acc = (acc + a[..., s:s + chunk] @ b[..., s:s + chunk, :]) % p
    return acc


def _echelon_gf(a: np.ndarray, p: int, det_only: bool) -> tuple[np.ndarray, list[int], int]:
    """Row echelon form over GF(p), pivot columns and, for square ``a``, the
    determinant (zero once a column has no pivot); the kernel is ``a``'s.

    The rank-1 update of the rows below covers only the columns [lo, hi)
    from the pivot row's first to its last nonzero right of the pivot: the
    pivot row is canonical, so elsewhere it would subtract factor * 0.  A
    pivot row with no such nonzero updates nothing, and only the pivot
    column of the rows below is cleared.

    Reduction is decided once: an update moves an entry by less than p**2,
    since the factor and the pivot row are canonical, and an entry gets at
    most one per pivot.  When min(rows, cols) updates fit in
    ``_INT64_BUDGET`` (``delayed``: at any size for p = 32003, up to order
    16 at the CRT primes, order 1 just below 2**31) none is reduced, and
    only what elimination reads is: the stored nonzeros of the pivot column,
    since a nonzero multiple of p must not become the pivot, and the pivot
    row.  Otherwise every update is reduced as it is made, and nothing on read.

    Entries that elimination makes zero are stored as exact zeros: the
    eliminated column of the updated rows, and pivot-column entries that
    reduce to zero.  Pivot rows are canonical once chosen and every other
    entry is such a zero, so the result needs no final reduction and is the
    array that reducing at every step gives.  When ``det_only`` stops early,
    the rows it did not finish are left as they are, right only mod p.
    """
    a = a.copy()
    rows, cols = a.shape
    delayed = _INT64_BUDGET // p**2 >= min(rows, cols)
    pivots: list[int] = []
    det = 1
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        col = a[r:, c]
        nz = col.nonzero()[0]
        vals = col[nz]
        if delayed:
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
            det = -det
        if delayed:
            a[r, c:] %= p
        piv = int(vals[0])
        det = det * piv % p
        if nz.size > 1:
            span = a[r, c + 1:].nonzero()[0]
            if span.size:
                lo, hi = c + 1 + int(span[0]), c + 2 + int(span[-1])
                # after the swap the rows below r with a nonzero in column c
                # are exactly r + nz[1:]; every other row is left as it is.  A
                # run of consecutive rows is updated through a view, with no gather
                below = r + nz[1:]
                if below[-1] - below[0] == below.size - 1:
                    below = slice(below[0], below[-1] + 1)
                factors = vals[1:] * pow(piv, -1, p) % p
                if delayed:
                    a[below, lo:hi] -= factors[:, None] * a[r, lo:hi]
                else:
                    a[below, lo:hi] = (a[below, lo:hi] - factors[:, None] * a[r, lo:hi]) % p
            col[nz[1:]] = 0
        pivots.append(c)
    return a, pivots, det


def _peel(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Rows of one nonzero, peeled with their columns, and the core they leave.

    Round after round, every row with one nonzero among the columns left is
    peeled with that column, one row per column; a row left with no nonzero
    there, a zero row at once, is dropped.  With the peeled rows and columns
    first ``a`` is [[T, 0], [X, C]], T permuted triangular with a nonzero
    diagonal, and a dropped row, nonzero only in T's columns, is a
    combination of T's rows: the rank is T's order plus C's, and the kernel
    is C's, zero at T's columns.  Returns the peeled rows and their columns,
    the core's rows and columns in their original order, and C: ``a`` itself
    when nothing was peeled or dropped."""
    nz = a != 0
    count = nz.sum(axis=1, dtype=np.int32)  # each row's nonzeros in the columns left
    row_of = np.full(a.shape[1], -1)  # the row each column is peeled with
    while (single := (count == 1).nonzero()[0]).size:
        cols = (nz[single] & (row_of < 0)).argmax(axis=1)
        row_of[cols] = single
        cols = cols[row_of[cols] == single]  # of rows sharing a column, the one written
        count -= nz[:, cols].sum(axis=1, dtype=np.int32)
    cols, core_rows, core_cols = (x.nonzero()[0] for x in (row_of >= 0, count, row_of < 0))
    core = a if core_rows.size == len(a) else a[core_rows[:, None], core_cols]
    return row_of[cols], cols, core_rows, core_cols, core


def _det_gf(a: np.ndarray, p: int) -> int:
    """Determinant over GF(p) of a square array with canonical entries:
    Laplace expansion along ``_peel``'s rows, 0 if it dropped one, times
    ``_echelon_gf``'s det of the core.  Block triangular with the peeled rows
    and columns first, the matrix's det is sign(row order) * sign(column
    order) * det T * det C: the sign is that of the pairing of rows with
    columns.  The special family's Q, permuted triangular, is never
    eliminated; a matrix with no row of one nonzero is eliminated as it is."""
    rows, cols, core_rows, core_cols, core = _peel(a)
    if rows.size + core_rows.size < len(a):
        return 0
    det = 1
    for x in a[rows, cols].tolist():
        det = det * x % p
    if core_rows.size:
        det = det * _echelon_gf(core, p, det_only=True)[2] % p
    col_of = np.empty(len(a), dtype=np.int64)
    col_of[rows], col_of[core_rows] = cols, core_cols
    return det if not rows.size or _is_even(col_of.tolist()) else -det % p


def _is_even(perm: list[int]) -> bool:
    """Whether a permutation of range(len(perm)) is even: len(perm) minus
    its number of cycles is even."""
    seen = bytearray(len(perm))
    cycles = 0
    for start in range(len(perm)):
        if not seen[start]:
            cycles += 1
            j = start
            while not seen[j]:
                seen[j] = 1
                j = perm[j]
    return (len(perm) - cycles) % 2 == 0


def _pivots_gf(a: np.ndarray, p: int) -> tuple[list[int], np.ndarray | None, list[int],
                                               np.ndarray]:
    """Pivot columns over GF(p): ``_peel``'s columns and those of the core's
    elimination.  Also that elimination's echelon form (None when the peel
    leaves no row) and pivots, and the core's columns."""
    _, cols, core_rows, core_cols, core = _peel(a)
    echelon, core_pivots = None, []
    if core_rows.size:
        echelon, core_pivots, _ = _echelon_gf(core, p, det_only=False)
    pivots = sorted(cols.tolist() + core_cols[core_pivots].tolist())
    return pivots, echelon, core_pivots, core_cols


def _kernel_gf(a: np.ndarray, p: int) -> tuple[list[int], np.ndarray]:
    """Pivot columns and right kernel basis over GF(p), the basis as the
    columns of an int64 array: for each free column f, 1 at f and 0 at the
    other free columns.  The free columns are the core's (``_peel``), so the
    basis is the core's, with zeros at the peeled columns.  Back-substitution
    runs over the core's pivot rows from the last, one product per row for
    all the vectors at once."""
    pivots, echelon, core_pivots, core_cols = _pivots_gf(a, p)
    free = sorted(set(range(core_cols.size)) - set(core_pivots))
    vecs = np.zeros((core_cols.size, len(free)), dtype=np.int64)
    vecs[free, range(len(free))] = 1
    if free:
        for i, c in reversed(list(enumerate(core_pivots))):
            tail = _matmul_gf(echelon[i:i + 1, c + 1:], vecs[c + 1:], p)
            vecs[c] = tail[0] * (-pow(int(echelon[i, c]), -1, p) % p) % p
    basis = np.zeros((a.shape[1], len(free)), dtype=np.int64)
    basis[core_cols] = vecs
    return pivots, basis


def _full_row_rank_gf(a: np.ndarray, p: int) -> np.ndarray:
    """For a stack of T matrices (T x r x c, r >= 1, entries in [0, p)): which
    have rank r.

    One elimination for the whole stack, r row steps and no row swaps: step i
    takes the first nonzero entry of row i as its pivot and clears that column
    from the rows below by row <- piv * row - x * (row i).  Scaling a row by
    the nonzero pivot keeps the row span, so no pivot inverse is needed, and
    both products stay below 2**62.  A row that is zero when its step comes
    is a combination of the rows above it.  The last row has no rows below
    to clear, so its step only tests it for a nonzero; with r = 1 that test
    is the whole screen, on ``a`` itself rather than a copy.
    """
    last = a.shape[1] - 1
    a = a.copy() if last else a
    t = np.arange(a.shape[0])
    full = np.ones(a.shape[0], dtype=bool)
    for i in range(last):
        row = a[:, i, :]
        col = (row != 0).argmax(axis=1)
        piv = row[t, col]
        full &= piv != 0
        below = a[:, i + 1:, :]
        x = below[t, :, col]
        below[...] = (piv[:, None, None] * below - x[:, :, None] * row[:, None, :]) % p
    return full & a[:, last, :].any(axis=1)


# -- rational kernels ------------------------------------------------------------


def _matmul_zz(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for integer arrays, int64 or object, exactly: in int64 when
    inner * max|a| * max|b| < ``_INT64_BUDGET`` bounds every partial sum,
    otherwise in Python ints.  A zero factor counts as max 1 in the bound,
    so each factor alone fits when int64 is taken.  Stacks multiply
    pairwise, as with ``@``."""
    top_a, top_b = (max(int(x.max(initial=0)), -int(x.min(initial=0)), 1) for x in (a, b))
    if a.shape[-1] * top_a * top_b < _INT64_BUDGET:
        return a.astype(np.int64, copy=False) @ b.astype(np.int64, copy=False)
    return a.astype(object) @ b.astype(object)


# CRT primes: the largest primes below this bound, in descending order.  From
# 2**27 to 2**31 the order-280 det takes about as long (54 to 47 primes).  At
# these primes elimination delays reduction up to order 16, and the rational
# rank probe, which screens modulo the first of them, has ``_matmul_gf`` sum
# 16 residue products per int64 step (1 below 2**31).
_CRT_PRIME_TOP = 2**29
_CRT_PRIMES: list[int] = []


def _crt_primes():
    """The CRT primes one after another; the ones found are kept for the next call."""
    for i in itertools.count():
        if i == len(_CRT_PRIMES):
            q = (_CRT_PRIMES[-1] if _CRT_PRIMES else _CRT_PRIME_TOP + 1) - 2
            while not _is_prime(q):
                q -= 2
            _CRT_PRIMES.append(q)
        yield _CRT_PRIMES[i]


def _crt_images(ints: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """(p, the integer array ``ints`` mod p) for CRT prime after prime,
    without end.  The nonzero entries are gathered once, so each prime costs
    one ``%`` on them."""
    flat = ints.ravel()
    index = flat.nonzero()[0]
    values = flat[index]
    for p in _crt_primes():
        residues = np.zeros(flat.size, dtype=np.int64)
        residues[index] = values % p
        yield p, residues.reshape(ints.shape)


def _primitive(a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Each row of an integer array divided by its content, the gcd of its
    entries, and the contents; a zero row has content 0 and stays as it is."""
    contents = np.gcd.reduce(a, axis=1).tolist()
    divisors = np.array([c or 1 for c in contents], dtype=a.dtype)
    return a // divisors[:, None], contents


def _det_qq(a: np.ndarray) -> int:
    """Determinant of an integer array from determinants over GF(p) and the
    Chinese remainder theorem (Abbott, Bronstein and Mulders, ISSAC 1999).

    Dividing each row by its content divides det by the product of the
    contents.  The det D of the primitive rows has |D| <= B =
    prod(isqrt(row norm**2) + 1) (Hadamard), so once the primes' product m
    exceeds 2B, D mod m in (-m/2, m/2] is D: the result is exact."""
    ints, contents = _primitive(a)
    if not all(contents):
        return 0
    bound = math.prod(math.isqrt(sum(x * x for x in row)) + 1 for row in ints.tolist())
    det, m = 0, 1
    for p, residues in _crt_images(ints):
        r = _det_gf(residues, p)
        det += m * ((r - det) * pow(m, -1, p) % p)
        m *= p
        if m > 2 * bound:
            break
    if det > m // 2:
        det -= m
    return det * math.prod(contents)


def _rational(u: int, m: int) -> tuple[int, int] | None:
    """The unique (r, s), s > 0, with r/s = u mod m and |r|, s <= sqrt(m/2), if
    any, by Euclid on (m, u) to the first remainder within the bound (Wang 1981)."""
    bound = math.isqrt(m // 2)
    r0, r1, s0, s1 = m, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if abs(s1) > bound or math.gcd(r1, s1) != 1:
        return None
    return (r1, s1) if s1 > 0 else (-r1, -s1)


def _lift(joined: np.ndarray, m: int) -> tuple[np.ndarray, list[int]] | None:
    """``_rational`` of every entry of ``joined``, or None if one has none, as
    an integer array whose column j is over the j-th denominator returned.

    The entries of a kernel vector share a denominator, so each column keeps
    the lcm d of the denominators found so far.  When d and u * d mod m, taken
    in (-m/2, m/2], are both within the bound, u * d / d is the fraction Wang
    would find (it is unique), and Euclid runs only for the other entries.
    The column's denominator is its last d."""
    bound = math.isqrt(m // 2)
    lifted, dens = np.empty(joined.shape, dtype=object), []
    for j, column in enumerate(joined.T.tolist()):
        d, pairs = 1, []
        for u in column:
            x = u * d % m
            if x > m // 2:
                x -= m
            if d <= bound and abs(x) <= bound:
                pairs.append((x, d))
                continue
            r = _rational(u, m)
            if r is None:
                return None
            pairs.append(r)
            d = math.lcm(d, r[1])
        lifted[:, j] = [x * (d // s) for x, s in pairs]
        dens.append(d)
    return lifted, dens


def _kernel_qq(a: np.ndarray) -> tuple[list[int], np.ndarray, list[int]]:
    """``_kernel_gf`` over Q, with each column's denominator: the primitive
    rows' kernels mod CRT primes, joined by the CRT and reconstructed
    (Monagan, ISSAC 2004).  A prime can lose or delay pivots, never gain
    them, so only the most and earliest are joined.  A v = 0 is checked
    exactly, as one integer product of the rows and the basis over its
    column denominators (scales change no zero); v is nonzero only at f and
    at pivots before f, so then f is free over Q too.  Full column rank mod
    p is full column rank over Q: such a prime returns at once, with nothing
    to lift or check.  The entries are ratios of minors, at most the
    Hadamard bound B, so the loop ends once the joined primes pass 2B**2."""
    ints = _primitive(a)[0]
    pivots, joined, m = None, None, 1
    for p, residues in _crt_images(ints):
        piv, vecs = _kernel_gf(residues, p)
        if len(piv) == a.shape[1]:
            return piv, vecs, []
        if pivots is None or (len(piv), pivots) > (len(pivots), piv):  # more or earlier
            pivots, joined, m = piv, np.zeros(vecs.shape, dtype=object), 1
        elif piv != pivots:
            continue
        joined += m * ((vecs.astype(object) - joined) * pow(m, -1, p) % p)
        m *= p
        lifted = _lift(joined, m)
        if lifted is not None and not _matmul_zz(ints, lifted[0]).any():
            return pivots, *lifted


# -- text format ------------------------------------------------------------------
#
# A matrix file (written, never read):  line 1  matrix rows=<R> cols=<C> field=<rational|gf:P>,
# then R lines of C space-separated entries.  Entry rows are read in monad files, where
# '#' lines are comments.  An entry is an integer over GF(p), and an integer or a/b over Q.

# one entry, keyed by Field.is_prime_field
_ENTRY = {True: re.compile(r"-?[0-9]+"), False: re.compile(r"-?[0-9]+(?:/[0-9]+)?")}
# bytes of padded rows ``entry_text`` lays out at once; it writes larger matrices a slice
# of rows at a time
_TEXT_BYTES = 2**17


def _put_digits(out: np.ndarray, end: np.ndarray, x: np.ndarray):
    """Write the decimal digits of the positive integers ``x`` into the byte
    array ``out``, each number's last digit at its ``end``: one digit of
    every int64 number not yet done per pass.  Python ints are split into
    their last 18 digits, written as int64 with leading zeros where the
    quotient is nonzero, and the quotient, written the same way."""
    if x.dtype == object:
        x, low = x // 10**18, (x % 10**18).astype(np.int64)
        wide = x.nonzero()[0]
        out[end[wide, None] - np.arange(18)] = ord("0")
        _put_digits(out, end, low)
        return _put_digits(out, end[wide] - 18, _fit(x[wide]))
    while x.size:
        out[end] = x % 10 + ord("0")
        x = x // 10
        live = x.nonzero()[0]
        end, x = end[live] - 1, x[live]


def entry_text(a: np.ndarray, den: int) -> str:
    """The rows of the integer array ``a`` over ``den`` as text, one line per
    row: each entry x / den in lowest terms, as ``str`` of that Fraction
    prints it, separated by single spaces.

    Every entry gets a field of one width, padded with NUL bytes that one
    ``bytes.translate`` deletes: the sign, the numerator's digits, '/' and
    the denominator's if an entry needs them, and the separator.  Only the
    nonzero entries get text, all in one byte array, with one ``np.gcd`` for
    their lowest terms; int64 and Python-int arrays take the same path.  A
    zero entry is the byte '0'.  The rows are laid out a slice at a time in
    at most ``_TEXT_BYTES`` (or one row), so one wide entry cannot make the
    padding of the zeros rows x cols times its width at once."""
    rows, cols = a.shape
    if not cols:
        return "\n" * rows
    flat = a.ravel()
    nz = flat.nonzero()[0]
    x = flat[nz]
    if x.dtype != object and (den >= 2**63 or x.min(initial=0) == -2**63):
        x = x.astype(object)  # den, or |x| for x = -2**63, does not fit in int64
    neg = x < 0
    x = abs(x)
    if den != 1:
        x, d = x // (g := np.gcd(x, den)), den // g
        frac = d != 1
    # a field: the sign if any entry has one, the numerator's digits ending at
    # num_end, '/' and the denominator's ending at den_end, the separator
    num_end = int(neg.any()) + len(str(x.max(initial=0))) - 1
    den_end = num_end + (1 + len(str(d.max(initial=1))) if den != 1 else 0)
    width = den_end + 2
    texts = np.zeros((x.size, width), dtype=np.uint8)  # a field per nonzero entry
    out = texts.reshape(-1)
    first = np.arange(x.size) * width  # each field's first byte
    out[first[neg]] = ord("-")
    _put_digits(out, first + num_end, x)
    if den != 1:
        first = first[frac]
        out[first + num_end + 1] = ord("/")
        _put_digits(out, first + den_end, d[frac])
    step = max(1, _TEXT_BYTES // (cols * width))  # rows per slice
    cuts = np.searchsorted(nz, np.arange(0, rows + step, step) * cols).tolist()
    parts = []
    for r0, s, e in zip(range(0, rows, step), cuts, cuts[1:]):  # nz[s:e] are in the slice
        fields = np.zeros((min(step, rows - r0) * cols, width), dtype=np.uint8)
        fields[:, num_end] = ord("0")
        fields[nz[s:e] - r0 * cols] = texts[s:e]
        fields[:, -1] = ord(" ")
        fields[cols - 1::cols, -1] = ord("\n")
        parts.append(fields.tobytes().translate(None, b"\0").decode("ascii"))
    return "".join(parts)


def format_matrix(m: ExactMatrix) -> str:
    header = f"matrix rows={m.rows} cols={m.cols} field={m.field.spec}"
    return f"{header}\n{entry_text(m._a, m._den)}"


def content_lines(text: str) -> list[str]:
    """Non-comment, non-blank lines."""
    out = []
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append(line)
    return out


@functools.lru_cache(maxsize=64)
def _rows_pattern(prime: bool, rows: int, cols: int) -> re.Pattern:
    """``rows`` lines of ``cols`` entries each, joined by newlines."""
    e = _ENTRY[prime].pattern
    row = rf"{e}(?:[^\S\n]+{e}){{{cols - 1}}}"
    return re.compile(rf"{row}(?:\n{row}){{{rows - 1}}}")


def _check_row(field: Field, line: str, expected: int):
    """Raise the error of one stripped line: its entry count, an entry outside
    the grammar, or an entry int() or Fraction() cannot read."""
    toks = line.split()
    if len(toks) != expected:
        raise MatrixFormatError(f"expected {expected} entries, got {len(toks)}: {line!r}")
    for t in toks:
        if not _ENTRY[field.is_prime_field].fullmatch(t):
            raise MatrixFormatError(f"bad entry {t!r} in {line!r}")
    try:
        for t in toks:
            field.coerce(t)
    except ZeroDivisionError as e:
        raise MatrixFormatError(f"bad entry in {line!r}: {e}") from None


def parse_entry_rows(field: Field, lines: list[str], cols: int) -> tuple[np.ndarray, int]:
    """The integer array and denominator of stripped lines of ``cols``
    entries each, as ``Field.store`` gives them.

    One pattern checks all the lines at once.  Over GF(p) one conversion
    reads every token, as int64 or, if one overflows it, as Python ints, and
    one ``%`` reduces them; over Q ``Field.coerce`` reads each.  Only when
    the pattern fails, or a rational entry has a zero denominator, are the
    lines checked one by one, and the first bad one raises what a reader of
    one line after another would."""
    text = "\n".join(lines)
    if _rows_pattern(field.is_prime_field, len(lines), cols).fullmatch(text):
        tokens = text.split()
        if field.is_prime_field:
            try:
                ints = np.array(tokens, dtype=np.int64)
            except OverflowError:
                ints = np.array([int(t) for t in tokens], dtype=object)
            return (ints % field.p).astype(np.int64, copy=False).reshape(len(lines), cols), 1
        try:
            values = [field.coerce(t) for t in tokens]
        except ZeroDivisionError:
            pass
        else:
            ints, den = field.store([values], len(values))
            return ints.reshape(len(lines), cols), den
    for line in lines:
        _check_row(field, line, cols)
    raise AssertionError("no bad line in lines the pattern rejects")
