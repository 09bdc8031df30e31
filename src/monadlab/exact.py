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
multiplied, and only the nonzero entries of the result become Fractions.

There is one elimination, over GF(p): it touches only the rows with a
nonzero entry in the pivot column, and in them only the columns between the
pivot row's first and last nonzero right of the pivot (George and Liu's
envelope; Q's blocks leave most of a row zero).  When int64 holds every
update an entry can get, as at p = 32003, reduction is delayed: updates
accumulate unreduced (Dumas, Giorgi and Pernet, arXiv:cs/0601133).
Otherwise each update is reduced as it is made.  The GF(p) det first
expands along every row with one nonzero in the columns left, round after
round, and eliminates only the rest: the special family's Q, a permuted
unitriangular matrix, is never eliminated.  Over the rationals ``det``,
``rank`` and ``kernel_basis`` work on the denominator-cleared rows modulo
CRT primes: ``det`` by the CRT on GF(p) dets up to twice the Hadamard
bound (for the random order-280 Q, 49-50 primes, about 0.6 s),
``kernel_basis`` by rational reconstruction of the joined modular kernels,
checked exactly, and ``rank`` as the pivot count of that verified kernel.
A matrix keeps its det and rank, never an echelon array; a nonzero det
shows full rank, so ``rank`` after ``det`` eliminates again only when det
is zero.
"""

from __future__ import annotations

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

    Besides scalars, a field owns the storage of matrices over it: the array
    type, reduction to canonical entries, products, det, rank and kernel.
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

    def det(self, a: np.ndarray):
        """Determinant of a square storage array: over GF(p) ``_det_gf``,
        expansion along rows of one nonzero and then elimination of what is
        left, stopped at the first column without a pivot; over Q the Chinese
        remainder theorem on such determinants."""
        if self.p is None:
            return _det_qq(a)
        return _det_gf(a, self.p)

    def rank(self, a: np.ndarray) -> int:
        """GF(p) elimination's pivot count, or over Q the pivot count of the
        verified kernel of ``a`` or ``a``'s transpose, whichever has fewer
        columns: the rank is the same and the kernel to lift is smaller."""
        if self.p is None:
            return len(_kernel_qq(a if a.shape[1] <= a.shape[0] else a.T)[0])
        return len(_echelon_gf(a, self.p, det_only=False)[1])

    def kernel(self, a: np.ndarray) -> tuple[list[int], np.ndarray]:
        """Pivot columns and a storage array whose columns are a right kernel
        basis: ``_kernel_gf``, over Q ``_kernel_qq``."""
        if self.p is None:
            return _kernel_qq(a)
        return _kernel_gf(a, self.p)

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

    __slots__ = ("field", "_a", "_det", "_rank")  # scalars kept once computed

    def __init__(self, field: Field, rows: Sequence[Sequence]):
        rows = [list(r) for r in rows]
        cols = len(rows[0]) if rows else 0
        if any(len(r) != cols for r in rows):
            raise ValueError("ragged rows")
        self._adopt(field, field.array([[field.coerce(x) for x in r] for r in rows], cols))

    def _adopt(self, field: Field, a: np.ndarray):
        self.field = field
        self._a = a
        self._det = self._rank = None
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

    def tolist(self) -> list[list]:
        return self._a.tolist()

    # -- arithmetic ---------------------------------------------------------

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        _check_same_field(self, other)
        if self.cols != other.rows:
            raise ValueError(f"dimension mismatch: {self.shape} @ {other.shape}")
        return ExactMatrix._wrap(self.field, self.field.matmul(self._a, other._a))

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

    def det(self):
        """Exact determinant by :meth:`Field.det`, kept once computed; a nonzero
        one also gives the rank.  It is never read off the elimination ``rank``
        runs, so over GF(p) ``rank`` then ``det`` eliminates twice, unless
        expansion along rows of one nonzero leaves ``det`` nothing to eliminate."""
        if self.rows != self.cols:
            raise ValueError(f"determinant of non-square {self.shape} matrix")
        if self._det is None:
            self._det = self.field.det(self._a)
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
        pivots, basis = self.field.kernel(self._a)
        self._rank = len(pivots)
        return [ExactMatrix._wrap(self.field, basis[:, [j]]) for j in range(basis.shape[1])]


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


def _det_gf(a: np.ndarray, p: int) -> int:
    """Determinant over GF(p) of a square array with canonical entries.

    Laplace expansion comes first: every row with exactly one nonzero among
    the columns still left is expanded along at once; its entry multiplies
    the det and its row and column are dropped, round after round until no
    such row is left.  A row left with no nonzero, or two rows expanded
    along one column, make the det zero.  The rest, rows and columns in
    their original order, goes to ``_echelon_gf``.  With the expanded rows
    and their columns ordered first the matrix is block lower triangular,
    so the sign is the parity of that row order times that of the column
    order.  A permuted triangular matrix, such as the special family's Q,
    is never eliminated; one with no such row is eliminated as it is.
    """
    nz = a != 0
    count = nz.sum(axis=1)  # each row's nonzeros in the columns left
    least = count.min(initial=2)  # a 0 x 0 array has no row to expand along
    if least != 1:
        return 0 if least == 0 else _echelon_gf(a, p, det_only=True)[2]
    order = len(a)
    rows_left = np.ones(order, dtype=bool)
    cols_left = np.ones(order, dtype=bool)
    col_of = np.empty(order, dtype=np.int64)  # the column paired with each row
    det = 1
    while True:
        rows = np.flatnonzero(rows_left & (count == 1))
        if not rows.size:
            break
        cols = (nz[rows] & cols_left).argmax(axis=1)
        if np.bincount(cols, minlength=order).max() > 1:
            return 0
        for x in a[rows, cols].tolist():
            det = det * x % p
        rows_left[rows] = cols_left[cols] = False
        col_of[rows] = cols
        count -= nz[:, cols].sum(axis=1)
        if not count[rows_left].all():
            return 0
    core_rows, core_cols = np.flatnonzero(rows_left), np.flatnonzero(cols_left)
    if core_rows.size:
        det = det * _echelon_gf(a[np.ix_(core_rows, core_cols)], p, det_only=True)[2] % p
    col_of[core_rows] = core_cols
    # sign(row order) * sign(column order) is the sign of the pairing
    return det if _is_even(col_of.tolist()) else -det % p


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


def _kernel_gf(a: np.ndarray, p: int) -> tuple[list[int], np.ndarray]:
    """Pivot columns and right kernel basis over GF(p), the basis as the
    columns of an int64 array: for each free column f, 1 at f and 0 at the
    other free columns.  Back-substitution runs over the pivot rows from the
    last, one product per row for all the vectors at once."""
    echelon, pivots, _ = _echelon_gf(a, p, det_only=False)
    cols = a.shape[1]
    free = sorted(set(range(cols)) - set(pivots))
    basis = np.zeros((cols, len(free)), dtype=np.int64)
    basis[free, range(len(free))] = 1
    if free:
        for i, c in reversed(list(enumerate(pivots))):
            tail = _matmul_gf(echelon[i:i + 1, c + 1:], basis[c + 1:], p)
            basis[c] = tail[0] * (-pow(int(echelon[i, c]), -1, p) % p) % p
    return pivots, basis


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
    integer rows and, for each, its lcm.  Each entry is read once."""
    rows, scales = [], []
    for row in a.tolist():
        nums, dens = list(zip(*map(Fraction.as_integer_ratio, row))) or ((), ())
        scale = math.lcm(*dens)
        rows.append([n * (scale // d) for n, d in zip(nums, dens)] if scale > 1 else list(nums))
        scales.append(scale)
    return rows, scales


def _matmul_qq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over Q, multiplied over Z (FLINT's ``fmpq_mat_mul_cleared``).

    Row i of ``a`` is cleared by r_i and column j of ``b`` by c_j, so entry
    (i, j) of the integer product is r_i * c_j times that of ``a @ b``; only
    the result's nonzero entries become new Fractions, the zeros share one.
    """
    ia, row_scales = _cleared_rows(a)
    ib, col_scales = _cleared_rows(b.T)
    prod = (np.array(ia, dtype=object).reshape(a.shape)
            @ np.array(ib, dtype=object).reshape(b.shape[::-1]).T)
    zero = Fraction(0)
    out = [[Fraction(x, r * c) if x else zero for x, c in zip(row, col_scales)]
           for row, r in zip(prod.tolist(), row_scales)]
    return np.array(out, dtype=object).reshape(prod.shape)


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


def _crt_images(rows: list[list[int]], shape: tuple) -> Iterator[tuple[int, np.ndarray]]:
    """(p, ``rows`` mod p) for CRT prime after prime, without end.  The
    nonzero entries are gathered once into an object array, so each prime
    costs one ``%`` on it."""
    flat = np.array(list(itertools.chain.from_iterable(rows)), dtype=object)
    index = flat.nonzero()[0]
    values = flat[index]
    for p in _crt_primes():
        residues = np.zeros(flat.size, dtype=np.int64)
        residues[index] = values % p
        yield p, residues.reshape(shape)


def _det_qq(a: np.ndarray) -> Fraction:
    """Determinant over Q from determinants over GF(p) and the Chinese
    remainder theorem (Abbott, Bronstein and Mulders, ISSAC 1999).

    Clearing the rows multiplies det by the scales.  The integer det D has
    |D| <= B = prod(isqrt(row norm**2) + 1) (Hadamard), so once the primes'
    product m exceeds 2B, D mod m in (-m/2, m/2] is D: the result is exact."""
    rows, scales = _cleared_rows(a)
    if not all(map(any, rows)):
        return Fraction(0)
    bound = math.prod(math.isqrt(sum(x * x for x in row)) + 1 for row in rows)
    det, m = 0, 1
    for p, residues in _crt_images(rows, a.shape):
        r = _det_gf(residues, p)
        det += m * ((r - det) * pow(m, -1, p) % p)
        m *= p
        if m > 2 * bound:
            break
    if det > m // 2:
        det -= m
    return Fraction(det, math.prod(scales))


def _rational(u: int, m: int) -> Fraction | None:
    """The unique r/s = u mod m with |r|, s <= sqrt(m/2), if any, by Euclid on
    (m, u) to the first remainder within the bound (Wang 1981)."""
    bound = math.isqrt(m // 2)
    r0, r1, s0, s1 = m, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if abs(s1) > bound or math.gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


def _lift(joined: np.ndarray, m: int) -> np.ndarray | None:
    """``_rational`` of every entry of ``joined``, or None if one has none.

    The entries of a kernel vector share a denominator, so each column keeps
    the lcm d of the denominators found so far.  When d and u * d mod m, taken
    in (-m/2, m/2], are both within the bound, u * d / d is the fraction Wang
    would find (it is unique), and Euclid runs only for the other entries."""
    bound = math.isqrt(m // 2)
    lifted = np.empty(joined.shape, dtype=object)
    for j, column in enumerate(joined.T.tolist()):
        d = 1
        for i, u in enumerate(column):
            x = u * d % m
            if x > m // 2:
                x -= m
            if d <= bound and abs(x) <= bound:
                lifted[i, j] = Fraction(x, d)
                continue
            r = _rational(u, m)
            if r is None:
                return None
            lifted[i, j] = r
            d = math.lcm(d, r.denominator)
    return lifted


def _kernel_qq(a: np.ndarray) -> tuple[list[int], np.ndarray]:
    """``_kernel_gf`` over Q: the cleared rows' kernels mod CRT primes, joined
    by the CRT and reconstructed (Monagan, ISSAC 2004).  A prime can lose or
    delay pivots, never gain them, so only the most and earliest are joined.
    A v = 0 is checked exactly; v is nonzero only at f and at pivots before f,
    so then f is free over Q too.  No vector to check means full column rank
    mod p, hence over Q.  The entries are ratios of minors, at most the
    Hadamard bound B, so the loop ends once the joined primes pass 2B**2."""
    pivots, joined, m = None, None, 1
    for p, residues in _crt_images(_cleared_rows(a)[0], a.shape):
        piv, vecs = _kernel_gf(residues, p)
        if pivots is None or (len(piv), pivots) > (len(pivots), piv):  # more or earlier
            pivots, joined, m = piv, np.zeros(vecs.shape, dtype=object), 1
        elif piv != pivots:
            continue
        joined += m * ((vecs.astype(object) - joined) * pow(m, -1, p) % p)
        m *= p
        basis = _lift(joined, m)
        if basis is not None and (not basis.size or not _matmul_qq(a, basis).any()):
            return pivots, basis


# -- text format ------------------------------------------------------------------
#
# A matrix file (written, never read):  line 1  matrix rows=<R> cols=<C> field=<rational|gf:P>,
# then R lines of C space-separated entries.  Entry rows are read in monad files, where
# '#' lines are comments.  An entry is an integer over GF(p), and an integer or a/b over Q.

# one entry and one row of entries, keyed by Field.is_prime_field
_ENTRY = {True: re.compile(r"-?[0-9]+"), False: re.compile(r"-?[0-9]+(?:/[0-9]+)?")}
_ENTRY_ROW = {prime: re.compile(rf"{e.pattern}(?:\s+{e.pattern})*")
              for prime, e in _ENTRY.items()}


def entry_lines(m: ExactMatrix) -> list[str]:
    """One line of space-separated entries per row of ``m``.  Only a row's
    nonzero entries go through ``str``; the rest stay "0", which is also
    what a zero Fraction prints as."""
    lines = []
    for row in m._a:
        cells = ["0"] * len(row)
        nz = row.nonzero()[0]
        for j, x in zip(nz.tolist(), map(str, row[nz].tolist())):
            cells[j] = x
        lines.append(" ".join(cells))
    return lines


def format_matrix(m: ExactMatrix) -> str:
    header = f"matrix rows={m.rows} cols={m.cols} field={m.field.spec}"
    return "\n".join([header, *entry_lines(m)]) + "\n"


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
