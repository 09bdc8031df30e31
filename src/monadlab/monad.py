"""Monad block data, the pairing matrix J, quadratic conditions and rank probes.

The central object is :class:`MonadData`: k blocks M_1, ..., M_k, each a
(2n+2) x (2n+2k) matrix over an exact field.  Block j packages row j of the
linear-form matrix A via  row_j(A) = x^t * M_j,  where x runs over the 2n+2
homogeneous coordinates.  The blocks are copied once, over their common
denominator L (``scale``, 1 over GF(p)), into one integer (k, 2n+2, 2n+2k)
array, ``stack``: L times the blocks.  Every arrangement of them is a
reshape or transpose of it.  Scaling every block by L scales Q*S and each
defect D_ab below by L**2 and each row of A(x) by L, so Q*S, the defect
flags, the zero test and the probe's screen read ``stack`` alone.
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
largest prime below 2**29 and the batch test is a screen on ``stack`` mod q:
full rank mod q implies full rank over Q, and a point that fails it is
tested again exactly.
Either way the first point in draw order that fails goes through
:func:`evaluate_a` and exact elimination, so a counterexample is still an
exact certificate, with exact field-element coordinates.

The defect flags and the screen each take the ``stack`` arrays of T data
stacked, (T, k, 2n+2, 2n+2k): one data alone, or the orthogonal search's
trials.  The defects are one product of the gathered pairs M_a * J and
M_b^t, a <= b, for all T, so no block is formed only to be discarded; the
screen is one elimination for all T.  A screen takes at most
``_PROBE_BATCH`` points, which bounds its working memory, and the probe
screens a batch only once its exact tests reach it.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from typing import ClassVar, Iterable, Optional

import numpy as np

from .exact import (ExactMatrix, Field, MatrixFormatError, _crt_primes, _fit,
                    _full_row_rank_gf, _lowest, _matmul_gf, content_lines, entry_text,
                    parse_entry_rows, parse_field)

ORTHOGONAL_IDENTITY = "orthogonal-identity"
SYMPLECTIC_CANONICAL = "symplectic-canonical"

# Points screened per elimination; bounds the probe's working memory.
_PROBE_BATCH = 1024
# Default bound on the coordinates of probe points over Q.
_POINT_BOX = 10


@dataclass(frozen=True)
class MonadData:
    """Blocks M_1..M_k of size (2n+2) x (2n+2k), all over one field."""

    n: int
    k: int
    field: Field
    blocks: tuple[ExactMatrix, ...]
    # the read-only integer (k, 2n+2, 2n+2k) array of the blocks over the lcm
    # ``scale`` of their denominators; Q, S, the defects and A(x) read it
    stack: np.ndarray = field(init=False, compare=False, repr=False)
    scale: int = field(init=False, compare=False, repr=False)
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
        scale = math.lcm(*(b._den for b in self.blocks))
        stack = np.array([b._a if b._den == scale else _fit(b._a.astype(object) * (scale // b._den))
                          for b in self.blocks])
        stack.flags.writeable = False
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "scale", scale)

    @property
    def block_rows(self) -> int:
        return 2 * self.n + 2

    @property
    def block_cols(self) -> int:
        return 2 * self.n + 2 * self.k

    def is_zero(self) -> bool:
        return not self.stack.any()


def _side_by_side(stack: np.ndarray) -> np.ndarray:
    """[M_1 | ... | M_k] from a (..., k, rows, cols) stack of blocks."""
    return np.swapaxes(stack, -3, -2).reshape(*stack.shape[:-3], stack.shape[-2], -1)


@functools.lru_cache(maxsize=32)
def canonical_j(kind: str, n: int, k: int, field: Field) -> ExactMatrix:
    """The identity pairing, or the canonical skew block form [[0, I], [-I, 0]].

    Memoised on its arguments: callers share one immutable matrix per shape.
    """
    size = 2 * n + 2 * k
    if kind == ORTHOGONAL_IDENTITY:
        return ExactMatrix.identity(field, size)
    if kind == SYMPLECTIC_CANONICAL:
        half, a = size // 2, np.zeros((size, size), dtype=np.int64)
        np.fill_diagonal(a[:half, half:], 1)
        np.fill_diagonal(a[half:, :half], -1)
        return ExactMatrix._wrap(field, field.reduce(a))
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
    row = ExactMatrix(x.field, [x.coords])
    a = d.field.matmul(row._a, _side_by_side(d.stack))
    return ExactMatrix._wrap(d.field, *_lowest(a.reshape(d.k, d.block_cols), row._den * d.scale))


def _check_pairing(d: MonadData, j: ExactMatrix):
    """J must be (2n+2k) x (2n+2k) over the data's field."""
    size = d.block_cols
    if j.shape != (size, size):
        raise ValueError(f"pairing has shape {j.shape}, expected ({size}, {size})")
    if j.field != d.field:
        raise ValueError(f"pairing is over {j.field}, data over {d.field}")


@functools.lru_cache(maxsize=32)
def _pairs(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The block pairs a <= b, in order, as two index arrays: made once per k."""
    pairs = np.triu_indices(k)
    for index in pairs:
        index.flags.writeable = False
    return pairs


def _defect_stack(field: Field, stacks: np.ndarray, j: Optional[np.ndarray]) -> np.ndarray:
    """sym(M_a * J * M_b^t) for the pairs a <= b, in order, as a (..., pairs,
    r, r) integer array, from the (..., k, r, c) one of the blocks and J's,
    None for the identity: each M_a * J once, then one product of the
    gathered pairs.  Leading axes hold a stack of data, multiplied pairwise."""
    mj = stacks if j is None else field.matmul(stacks, j)
    first, second = _pairs(stacks.shape[-3])
    x = field.matmul(mj[..., first, :, :], np.swapaxes(stacks[..., second, :, :], -1, -2))
    return field.reduce(x + np.swapaxes(x, -1, -2))


def quadratic_defect(d: MonadData, j: ExactMatrix) -> list[tuple[int, int, ExactMatrix]]:
    """Defects D_ab = sym(M_a * J * M_b^t) for 1 <= a <= b <= k, each pair's
    product formed once, from ``stack``.

    All defects vanish iff A * J * A^t = 0 identically in the coordinates.
    """
    _check_pairing(d, j)
    sym = _defect_stack(d.field, d.stack, j._a)
    first, second = _pairs(d.k)
    den = d.scale ** 2 * j._den
    return [(a + 1, b + 1, ExactMatrix._wrap(d.field, *_lowest(m, den)))
            for a, b, m in zip(first.tolist(), second.tolist(), sym)]


def defects_vanish(defects: list[tuple[int, int, ExactMatrix]]) -> bool:
    return all(mat.is_zero() for _, _, mat in defects)


def _defect_pairs(field: Field, stacks: np.ndarray, kind: str) -> list[tuple[tuple[int, int], ...]]:
    """Pairs (a, b), in order, with D_ab != 0 for the canonical ``kind``
    pairing, for each data of a (T, k, r, c) array of their ``stack``,
    whose defects are L**2 * D_ab: one :func:`_defect_stack` for the whole stack."""
    t, k, r, _ = stacks.shape
    j = None if kind == ORTHOGONAL_IDENTITY else canonical_j(kind, r // 2 - 1, k, field)._a
    pairs = [(a + 1, b + 1) for a, b in zip(*(index.tolist() for index in _pairs(k)))]
    flags = _defect_stack(field, stacks, j).reshape(t, len(pairs), -1).any(axis=-1)
    return [tuple(p for p, bad in zip(pairs, row) if bad) for row in flags.tolist()]


def _nonzero_defects(d: MonadData, kind: str) -> tuple[tuple[int, int], ...]:
    """The pairs of :func:`_defect_pairs` for ``d.stack`` alone, kept by the data."""
    if kind not in d._memo:
        d._memo[kind] = _defect_pairs(d.field, d.stack[None], kind)[0]
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


def _firsts(drawn: np.ndarray) -> np.ndarray:
    """Which rows of a (T, m, dim) array are nonzero and equal no earlier row
    of their trial, as a (T, m) mask: a stable sort of each trial's row keys."""
    t, m, dim = drawn.shape
    keys = drawn.view(np.dtype((np.void, drawn.itemsize * dim)))[..., 0]  # whole rows
    rows, order = np.arange(t)[:, None], np.argsort(keys, axis=1, kind="stable")
    ranked, repeat = keys[rows, order], np.zeros((t, m), dtype=bool)  # equal keys side by side
    repeat[rows, order[:, 1:]] = ranked[:, 1:] == ranked[:, :-1]
    return ~repeat & drawn.any(axis=2)


def _draw_points(field: Field, dim: int, rngs: list[np.random.Generator], box: int,
                 count: int, max_attempts: int) -> tuple[np.ndarray, list[int]]:
    """For each generator, the first ``count`` distinct points of its first
    ``max_attempts`` nonzero draws (zeros are skipped, repeats count), in draw
    order, as a (T, <= count, dim) int64 array padded with zero rows, and how many
    there are.  Coordinates are canonical over GF(p), in [-box, box] over Q.
    Batched draws consume each generator as one draw per point would and stop once
    every nonzero point is drawn.  The first batches are checked as one array; a
    generator with a zero or repeated draw there goes on alone."""
    if box < 1:
        raise ValueError(f"point box must be >= 1, got {box}")
    low, high = (0, field.p) if field.is_prime_field else (-box, box + 1)
    count = min(count, (high - low) ** dim - 1)
    size = min(count, max_attempts)  # no generator keeps more points than its first batch
    points = np.array([rng.integers(low, high, size=(size, dim), dtype=np.int64) for rng in rngs])
    keep, found = _firsts(points), [size] * len(rngs)
    for t in (~keep.all(axis=1)).nonzero()[0].tolist():
        nonzero = points[t].any(axis=1)
        drawn, first = points[t][nonzero], keep[t][nonzero].nonzero()[0]
        while len(first) < count and len(drawn) < max_attempts:
            size = min(max(count - len(first), len(drawn)), max_attempts - len(drawn))
            batch = rngs[t].integers(low, high, size=(size, dim), dtype=np.int64)
            drawn = np.concatenate([drawn, batch[batch.any(axis=1)]])
            first = _firsts(drawn[None])[0].nonzero()[0][:count]
        found[t], points[t] = len(first), 0
        points[t, :len(first)] = drawn[first]
    return points, found


def _residues(d: MonadData) -> tuple[int, np.ndarray]:
    """(q, ``d.stack`` as int64 residues mod q): (p, ``d.stack``) over GF(p);
    over Q, q is the first CRT prime and the residues are those of L times
    the blocks, a nonzero scalar that keeps every rank."""
    if d.field.is_prime_field:
        return d.field.p, d.stack
    q = next(_crt_primes())
    return q, (d.stack % q).astype(np.int64, copy=False)


def _screen(q: int, residues: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Where A(x) has rank below k modulo q, for blocks given as residues,
    a (..., k, r, c) array, and points, a (..., P, r) array with the same
    leading axes: a (..., P) boolean array, from one product for A(x) at
    every point and one elimination of the whole stack, whose size the
    caller bounds.

    q is p over GF(p), where this is the exact answer, and the first CRT
    prime over Q, where full rank mod q certifies full rank (a nonzero k x k
    minor mod q is nonzero over Q) and a failure only says the point needs the
    exact test.
    """
    k = residues.shape[-3]
    a = _matmul_gf(points % q, _side_by_side(residues), q)  # row j of A(x) is x^t * M_j
    return ~_full_row_rank_gf(a.reshape(-1, k, a.shape[-1] // k), q).reshape(a.shape[:-1])


def _probe_points(field: Field, dim: int, trials: int, seeds: list, box: int) -> tuple:
    """The points :func:`max_rank_probe` tests, from ``Generator(PCG64(seed))``
    for each seed, an int or a ``SeedSequence``: what ``default_rng(seed)`` draws."""
    rngs = [np.random.Generator(np.random.PCG64(seed)) for seed in seeds]
    return _draw_points(field, dim, rngs, box, trials, 50 * trials + 100)


def _probe_verdict(d: MonadData, points: np.ndarray, failures: Iterable[int]) -> RankProbeVerdict:
    """The exact test of the screen's ``failures``, in order, up to the first
    that fails it: a counterexample there, otherwise every point passed."""
    for i in failures:
        x = Point.of(d.field, points[i].tolist())
        rank = evaluate_a(d, x).rank()
        if rank != d.k:
            return RankProbeVerdict(False, i + 1, RankCounterexample(x, rank))
    return RankProbeVerdict(True, len(points))


def max_rank_probe(d: MonadData, j: ExactMatrix, trials: int,
                   seed: int | np.random.SeedSequence, box: int = _POINT_BOX) -> RankProbeVerdict:
    """Check rank A(x) = k at ``trials`` distinct random points.

    J must be nondegenerate, so B(x) = A(x) * J has the rank of A(x) and is
    not tested; a singular J raises ``ValueError`` before any point is drawn.
    A returned counterexample is an exact certificate that the data fails the
    everywhere-maximal-rank requirement; ``ok`` is probabilistic evidence only.
    The points are screened in batches; only the screen's failures, in draw
    order, get the exact test, up to the first that fails it.  ``seed`` is an
    int >= 0 or a ``SeedSequence``, which draws the points an int seed would.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if not isinstance(seed, np.random.SeedSequence) and seed < 0:
        raise ValueError(f"need seed >= 0, got {seed}")
    _check_pairing(d, j)
    if j.det() == 0:
        raise ValueError("pairing is degenerate: det J = 0")
    (points,), (found,) = _probe_points(d.field, d.block_rows, trials, [seed], box)
    points = points[:found]
    q, residues = _residues(d)
    # one screen per batch, run only once the exact tests reach the batch
    failures = (start + i for start in range(0, len(points), _PROBE_BATCH) for i in
                _screen(q, residues, points[start:start + _PROBE_BATCH]).nonzero()[0].tolist())
    return _probe_verdict(d, points, failures)


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
    """The header, then each 'block j' line and its rows: one ``entry_text``
    of all the blocks, ``stack`` over ``scale``, split at the blocks."""
    r = d.block_rows
    rows = entry_text(d.stack.reshape(-1, d.block_cols), d.scale).splitlines(keepends=True)
    blocks = (f"block {j}\n" + "".join(rows[(j - 1) * r:j * r]) for j in range(1, d.k + 1))
    return "".join([f"monad n={d.n} k={d.k} field={d.field.spec}\n", *blocks])


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
        block = lines[pos + 1:pos + 1 + rows]
        blocks.append(ExactMatrix._wrap(field, *parse_entry_rows(field, block, cols)))
    if len(lines) > (end := 1 + k * (rows + 1)):
        raise MatrixFormatError(f"trailing content after block {k}: {lines[end]!r}")
    return MonadData(n, k, field, tuple(blocks))
