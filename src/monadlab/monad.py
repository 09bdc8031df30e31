"""Monad block data, the pairing matrix J, quadratic conditions and rank probes.

The central object is :class:`MonadData`: k blocks M_1, ..., M_k, each a
(2n+2) x (2n+2k) matrix over an exact field.  Block j packages row j of the
linear-form matrix A via  row_j(A) = x^t * M_j,  where x runs over the 2n+2
homogeneous coordinates.  The blocks are copied once into one (k, 2n+2, 2n+2k)
array, ``stack``; every arrangement of them is a reshape or transpose of it.
A pairing is given by its matrix J alone, an :class:`ExactMatrix`: the
identity for orthogonal data, the canonical skew form for symplectic data
(:func:`canonical_j`).  The quadratic condition A*J*A^t = 0 holds
identically in x iff every symmetrised block product

    D_ab = M_a * J * M_b^t + (M_a * J * M_b^t)^t

vanishes; those defects are what :func:`quadratic_defect` computes.  Maximal
rank of A on all of projective space is probed at random points only: a
passing probe is evidence, a failing point is a certificate.  The probe
requires J to be nondegenerate, so B = A*J has A's rank at every point and
needs no test of its own.

The probe works on batches: it draws all its points as one integer array,
evaluates A at every point with one product against [M_1 | ... | M_k],
and tests full row rank of the whole stack with one elimination modulo a
prime q.  Over GF(p), q = p and the batch test is exact.  Over Q, q is the
largest prime below 2**29 and the batch test is a screen on the data cleared
of denominators: full rank mod q implies full rank over Q, and a point that
fails it is tested again exactly.
Either way the first point in draw order that fails goes through
:func:`evaluate_a` and exact elimination, so a counterexample is still an
exact certificate, with exact field-element coordinates.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from typing import ClassVar, Iterator, Optional

import numpy as np

from .exact import (ExactMatrix, Field, MatrixFormatError, _cleared_rows, _crt_images,
                    _full_row_rank_gf, _matmul_gf, content_lines, entry_lines, parse_entry_row,
                    parse_field)

ORTHOGONAL_IDENTITY = "orthogonal-identity"
SYMPLECTIC_CANONICAL = "symplectic-canonical"

# Points screened per elimination; bounds the probe's working memory.
_PROBE_BATCH = 1024


@dataclass(frozen=True)
class MonadData:
    """Blocks M_1..M_k of size (2n+2) x (2n+2k), all over one field."""

    n: int
    k: int
    field: Field
    blocks: tuple[ExactMatrix, ...]
    # the blocks copied once into one read-only (k, 2n+2, 2n+2k) array; Q, S, V, A(x) read it
    stack: np.ndarray = field(init=False, compare=False, repr=False)
    # det Q and the nonzero canonical defects once computed; never Q or a product
    _memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.n < 1 or self.k < 1:
            raise ValueError("need n >= 1 and k >= 1")
        if len(self.blocks) != self.k:
            raise ValueError(f"expected {self.k} blocks, got {len(self.blocks)}")
        shape = (self.block_rows, self.block_cols)
        for j, b in enumerate(self.blocks, start=1):
            if b.field != self.field:
                raise ValueError(f"block {j} is over {b.field}, data is over {self.field}")
            if b.shape != shape:
                raise ValueError(f"block {j} has shape {b.shape}, expected {shape}")
        object.__setattr__(self, "stack", np.array([b._a for b in self.blocks]))
        self.stack.flags.writeable = False

    @property
    def block_rows(self) -> int:
        return 2 * self.n + 2

    @property
    def block_cols(self) -> int:
        return 2 * self.n + 2 * self.k

    def is_zero(self) -> bool:
        return not self.stack.any()


def _side_by_side(stack: np.ndarray) -> np.ndarray:
    """[M_1 | ... | M_k] from a (k, rows, cols) stack of blocks."""
    return stack.transpose(1, 0, 2).reshape(stack.shape[1], -1)


@functools.lru_cache(maxsize=32)
def canonical_j(kind: str, n: int, k: int, field: Field) -> ExactMatrix:
    """The identity pairing, or the canonical skew block form [[0, I], [-I, 0]].

    Memoised on its arguments: callers share one immutable matrix per shape.
    """
    size = 2 * n + 2 * k
    if kind == ORTHOGONAL_IDENTITY:
        return ExactMatrix.identity(field, size)
    if kind == SYMPLECTIC_CANONICAL:
        half, a = size // 2, field.zeros(size, size)
        np.fill_diagonal(a[:half, half:], field.one())
        np.fill_diagonal(a[half:, :half], field.coerce(-1))
        return ExactMatrix._wrap(field, a)
    raise ValueError(f"no canonical pairing of kind {kind!r}")


@dataclass(frozen=True)
class Point:
    """A nonzero coordinate vector, representing a point of projective space."""

    field: Field
    coords: tuple

    def __post_init__(self):
        if not self.coords or all(x == 0 for x in self.coords):
            raise ValueError("point must have a nonzero coordinate")

    @classmethod
    def of(cls, field: Field, values) -> "Point":
        return cls(field, tuple(field.coerce(v) for v in values))


# -- operations -----------------------------------------------------------------


def evaluate_a(d: MonadData, x: Point) -> ExactMatrix:
    """The k x (2n+2k) matrix A(x): row j is x^t * M_j."""
    if x.field != d.field:
        raise ValueError(f"point is over {x.field}, data over {d.field}")
    if len(x.coords) != d.block_rows:
        raise ValueError(f"point has {len(x.coords)} coordinates, expected {d.block_rows}")
    a = d.field.matmul(ExactMatrix(x.field, [x.coords])._a, _side_by_side(d.stack))
    return ExactMatrix._wrap(d.field, a.reshape(d.k, d.block_cols))


def _check_pairing(d: MonadData, j: ExactMatrix):
    """J must be (2n+2k) x (2n+2k) over the data's field."""
    size = d.block_cols
    if j.shape != (size, size):
        raise ValueError(f"pairing has shape {j.shape}, expected ({size}, {size})")
    if j.field != d.field:
        raise ValueError(f"pairing is over {j.field}, data over {d.field}")


def quadratic_defect(d: MonadData, j: ExactMatrix) -> list[tuple[int, int, ExactMatrix]]:
    """Defects D_ab = sym(M_a * J * M_b^t) for 1 <= a <= b <= k, read off the
    blocks of the one product V * J * V^t, where V stacks the blocks.

    All defects vanish iff A * J * A^t = 0 identically in the coordinates.
    """
    _check_pairing(d, j)
    k, r, c = d.stack.shape
    v = d.stack.reshape(k * r, c)
    first, second = np.triu_indices(k)  # the pairs a <= b, in order
    # block (a, b) of V * J * V^t is M_a * J * M_b^t: one (pair, row, column) array
    xab = d.field.matmul(d.field.matmul(v, j._a), v.T).reshape(k, r, k, r)[first, :, second, :]
    sym = d.field.reduce(xab + xab.transpose(0, 2, 1))
    return [(a + 1, b + 1, ExactMatrix._wrap(d.field, m))
            for a, b, m in zip(first.tolist(), second.tolist(), sym)]


def defects_vanish(defects: list[tuple[int, int, ExactMatrix]]) -> bool:
    return all(mat.is_zero() for _, _, mat in defects)


def _nonzero_defects(d: MonadData, kind: str) -> tuple[tuple[int, int], ...]:
    """Pairs (a, b), in order, with D_ab != 0 for the canonical ``kind`` pairing."""
    if kind not in d._memo:
        defects = quadratic_defect(d, canonical_j(kind, d.n, d.k, d.field))
        d._memo[kind] = tuple((a, b) for a, b, mat in defects if not mat.is_zero())
    return d._memo[kind]


@dataclass(frozen=True)
class RankCounterexample:
    point: Point
    observed_rank: int
    which_map: ClassVar[str] = "alpha"  # B = A*J has A's rank; kept only for perfbench's reads


@dataclass(frozen=True)
class RankProbeVerdict:
    ok: bool
    points_tested: int
    counterexample: Optional[RankCounterexample] = None


def _draw_points(field: Field, dim: int, rng: np.random.Generator, box: int,
                 count: int, max_attempts: int) -> np.ndarray:
    """The first ``count`` distinct points among the first ``max_attempts``
    nonzero draws, in draw order, as a (points x dim) int64 array.

    Zero draws are skipped without counting as attempts; duplicates count.
    Coordinates are canonical over GF(p) and integers in [-box, box] over Q.
    Draws come in batches, which consume the generator exactly as one draw
    per point would, and stop once every nonzero point is drawn.
    """
    if box < 1:
        raise ValueError(f"point box must be >= 1, got {box}")
    low, high = (0, field.p) if field.is_prime_field else (-box, box + 1)
    count = min(count, (high - low) ** dim - 1)
    drawn = np.empty((0, dim), dtype=np.int64)
    first = np.empty(0, dtype=np.intp)  # where each distinct point was first drawn
    key = np.dtype((np.void, drawn.itemsize * dim))  # one key per point
    while len(first) < count and len(drawn) < max_attempts:
        size = min(max(count - len(first), len(drawn)), max_attempts - len(drawn))
        batch = rng.integers(low, high, size=(size, dim), dtype=np.int64)
        drawn = np.concatenate([drawn, batch[batch.any(axis=1)]])
        first = np.sort(np.unique(drawn.view(key).ravel(), return_index=True)[1])
    return drawn[first[:count]]


def _residues(a: np.ndarray, field: Field) -> tuple[int, np.ndarray]:
    """(q, the storage stack ``a`` as int64 residues mod q): (p, ``a``) over
    GF(p); over Q, q is the first CRT prime and each a[i] is first multiplied
    by the lcm of its denominators, a nonzero scalar that keeps every rank."""
    if field.is_prime_field:
        return field.p, a
    return next(_crt_images(_cleared_rows(a.reshape(len(a), -1))[0], a.shape))


def _screen_failures(d: MonadData, points: np.ndarray) -> Iterator[int]:
    """Indices, in order, of the points where A(x) has rank below k modulo q;
    lazily, one batch of points at a time.

    q is p over GF(p), where this is the exact answer, and the first CRT
    prime over Q, where full rank mod q certifies full rank (a nonzero k x k
    minor mod q is nonzero over Q) and a failure only says the point needs the
    exact test.
    Over Q each block is cleared of denominators first, which multiplies each
    row of A(x) by a nonzero constant.
    """
    q, stack = _residues(d.stack, d.field)
    stacked = _side_by_side(stack)  # row j of A(x) is x^t * M_j
    for start in range(0, len(points), _PROBE_BATCH):
        x = points[start:start + _PROBE_BATCH] % q
        a = _matmul_gf(x, stacked, q).reshape(len(x), d.k, -1)  # A(x) of each point
        yield from (start + np.flatnonzero(~_full_row_rank_gf(a, q))).tolist()


def max_rank_probe(d: MonadData, j: ExactMatrix, trials: int, seed: int,
                   box: int = 10) -> RankProbeVerdict:
    """Check rank A(x) = k at ``trials`` distinct random points.

    J must be nondegenerate, so B(x) = A(x) * J has the rank of A(x) and is
    not tested; a singular J raises ``ValueError`` before any point is drawn.
    A returned counterexample is an exact certificate that the data fails the
    everywhere-maximal-rank requirement; ``ok`` is probabilistic evidence only.
    The points are screened in batches; only the screen's failures, in draw
    order, get the exact test, up to the first that fails it.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if seed < 0:
        raise ValueError(f"need seed >= 0, got {seed}")
    _check_pairing(d, j)
    if j.det() == 0:
        raise ValueError("pairing is degenerate: det J = 0")
    rng = np.random.default_rng(seed)
    points = _draw_points(d.field, d.block_rows, rng, box, trials, 50 * trials + 100)
    for i in _screen_failures(d, points):
        x = Point.of(d.field, points[i].tolist())
        rank = evaluate_a(d, x).rank()
        if rank != d.k:
            return RankProbeVerdict(False, i + 1, RankCounterexample(x, rank))
    return RankProbeVerdict(True, len(points))


def chern_coefficients(k: int, terms: int) -> list[int]:
    """Coefficients [c_0, c_2, c_4, ...] of the total Chern series (1 - t^2)^(-k)."""
    if k < 1 or terms < 1:
        raise ValueError("need k >= 1 and terms >= 1")
    return [math.comb(k + m - 1, m) for m in range(terms)]


# -- text format --------------------------------------------------------------------
#
# line 1:  monad n=<N> k=<K> field=<rational|gf:P>
# then for j = 1..k:  a line 'block <j>' followed by 2n+2 rows of 2n+2k entries.

_MONAD_HEADER = re.compile(r"monad n=(\d+) k=(\d+) field=(\S+)")


def format_monad(d: MonadData) -> str:
    lines = [f"monad n={d.n} k={d.k} field={d.field.spec}"]
    for j, b in enumerate(d.blocks, start=1):
        lines.append(f"block {j}")
        lines += entry_lines(b)
    return "\n".join(lines) + "\n"


def parse_monad(text: str) -> MonadData:
    lines = content_lines(text)
    if not lines:
        raise MatrixFormatError("empty monad input")
    m = _MONAD_HEADER.fullmatch(lines[0])
    if not m:
        raise MatrixFormatError(f"bad monad header: {lines[0]!r}")
    n, k = int(m.group(1)), int(m.group(2))
    field = parse_field(m.group(3))
    if n < 1 or k < 1:
        raise MatrixFormatError(f"bad parameters n={n}, k={k}")
    rows, cols = 2 * n + 2, 2 * n + 2 * k
    blocks = []
    for j in range(1, k + 1):
        pos = 1 + (j - 1) * (rows + 1)  # the 'block j' line; its rows follow
        got = lines[pos] if pos < len(lines) else "<eof>"
        if got != f"block {j}":
            raise MatrixFormatError(f"expected 'block {j}', got {got!r}")
        if pos + rows >= len(lines):
            raise MatrixFormatError(f"block {j} is truncated")
        data = [parse_entry_row(field, line, cols) for line in lines[pos + 1:pos + 1 + rows]]
        blocks.append(ExactMatrix._wrap(field, field.array(data, cols)))
    if len(lines) > (end := 1 + k * (rows + 1)):
        raise MatrixFormatError(f"trailing content after block {k}: {lines[end]!r}")
    return MonadData(n, k, field, tuple(blocks))
