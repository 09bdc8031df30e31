"""Generators for test data: symplectic instanton families, isotropic
orthogonal candidates, and the randomized orthogonal-search harness.

Every generator re-verifies its own claims before returning, the isotropic
one through :func:`orthogonal_verdict`, whose det Q = 0 rests on the
per-shape syzygy lemma, not on a product Q*S per candidate; a failed
self-check raises :class:`GeneratorError` and is never an accepted outcome.
The search draws its trials as the isotropic generator does, but tabulates
instead of raising.  It draws and checks its trials in bounded chunks, each
as one stack (see :func:`search_orthogonal`), so its working memory does not
grow with them.

Random draws are batched: each kind of draw is one ``rng.integers`` call per
seed, which consumes the stream as one scalar draw per value would, so a seed
keeps its data whatever the batch size.  A seed's data and its probe points
are drawn from one ``SeedSequence``, each by its own ``Generator(PCG64(ss))``,
which draws what ``default_rng(seed)`` draws.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .exact import GF, ExactMatrix, Field, _fit, _lowest
from .invariant import DEFECT_NONZERO, DET_ZERO_BY_SYZYGY, _verdict, det_q, orthogonal_verdict
from .monad import (_POINT_BOX, _PROBE_BATCH, ORTHOGONAL_IDENTITY, SYMPLECTIC_CANONICAL,
                    MonadData, RankProbeVerdict, _defect_pairs, _nonzero_defects, _probe_points,
                    _probe_verdict, _screen, _side_by_side, canonical_j, max_rank_probe)


class GeneratorError(RuntimeError):
    """A generator's construction failed its own verification."""


@dataclass(frozen=True)
class GeneratorReport:
    data: MonadData
    rank_probe: RankProbeVerdict
    det_q_value: object = None  # None when not computed
    defects_ok: ClassVar[bool] = True  # failed self-checks raise; kept only for perfbench's reads


def random_sl(field: Field, size: int, rng: np.random.Generator) -> ExactMatrix:
    """Unit-determinant matrix: the identity times 3 * size transvections of
    :func:`_transvect`, on Python ints over Q so that no step can wrap."""
    if size < 0:
        raise ValueError("need size >= 0")
    eye = np.identity(size, dtype=np.int64 if field.p is not None else object)
    return ExactMatrix._wrap(field, _fit(_transvect(field, eye[None], [rng])[0]))


def _transvect(field: Field, a: np.ndarray, rngs: list[np.random.Generator]) -> np.ndarray:
    """Each matrix of a (N, size, cols) stack ``a``, in place, times 3 * size
    random transvections (none for size < 2), drawn for N / len(rngs) matrices
    from each generator in one ``rng.integers`` call on tiled bounds: triple
    (i, j, lambda) adds lambda times row j + (j >= i) to row i, lambda in GF(p)
    (an update stays below p**2 < 2**62) or in [-3, 3] over Q.  That is g * M."""
    size = a.shape[1]
    if size < 2:
        return a
    low, high = (0, field.p) if field.p is not None else (-3, 4)
    steps = np.concatenate([rng.integers((0, 0, low), (size, size - 1, high),
                                         size=(len(a) // len(rngs), 3 * size, 3)) for rng in rngs])
    rows, (i, j, lam) = np.arange(len(a)), np.moveaxis(steps, -1, 0)
    j = j + (j >= i)
    for s in range(3 * size):
        a[rows, i[:, s]] = field.reduce(a[rows, i[:, s]] + lam[:, s, None] * a[rows, j[:, s]])
    return a


def transform_monad(d: MonadData, on_w: ExactMatrix | None = None,
                    on_v: ExactMatrix | None = None,
                    on_i: ExactMatrix | None = None) -> MonadData:
    """Apply basis changes: M_j -> h M_j g on V/W, and mix the blocks by a
    k x k coefficient matrix for the action on the k-dimensional factor."""
    (k, r, c), f, s = d.stack.shape, d.field, d.stack
    for name, m, size in (("block-mixing", on_i, k), ("V", on_v, r), ("W", on_w, c)):
        if m is not None and (m.shape != (size, size) or m.field != f):
            raise ValueError(f"{name} matrix must be {size} x {size} over {f}")
    if on_i is not None:
        s = f.matmul(on_i._a, s.reshape(k, r * c)).reshape(k, r, c)
    if on_v is not None:
        s = f.matmul(on_v._a, _side_by_side(s)).reshape(r, k, c).transpose(1, 0, 2)
    if on_w is not None:
        s = f.matmul(s.reshape(k * r, c), on_w._a).reshape(k, r, c)
    den = d.scale * math.prod(m._den for m in (on_i, on_v, on_w) if m is not None)
    return MonadData(d.n, d.k, f, tuple(ExactMatrix._wrap(f, *_lowest(b, den)) for b in s))


# -- special symplectic family -----------------------------------------------------


def _special_blocks(n: int, k: int, field: Field) -> tuple[ExactMatrix, ...]:
    """Banded 0/1 blocks encoding A = (X | Y') in split coordinates.

    X is the k x (n+k) band with x_0..x_n along row j starting at column j;
    Y' is the same band in the y coordinates with its columns reversed.  The
    reversal makes the canonical skew pairing work: the nonzero entries of
    (A J A^t)_{ab} collect the products x_c y_d with c + d depending only on
    a + b, a symmetric expression, so the skew pairing cancels it exactly.
    """
    half, c, j = n + k, np.arange(n + 1), np.arange(k)[:, None]
    a = np.zeros((k, 2 * n + 2, 2 * half), dtype=np.int64)
    a[j, c, j + c] = a[j, n + 1 + c, 2 * half - 1 - j - c] = 1
    return tuple(ExactMatrix._wrap(field, b) for b in a)


def gen_special_symplectic(n: int, k: int, field: Field, probe_trials: int = 50,
                           seed: int = 0, compute_det: bool = True) -> GeneratorReport:
    """Symplectic instanton data with identically vanishing skew defects.

    The construction is deterministic; only the rank probe consumes the seed.
    Any failed self-check raises, because the family is supposed to satisfy
    the quadratic conditions and the maximal-rank requirement by design.
    """
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    data = MonadData(n, k, field, _special_blocks(n, k, field))
    form = canonical_j(SYMPLECTIC_CANONICAL, n, k, field)
    if _nonzero_defects(data, SYMPLECTIC_CANONICAL):
        raise GeneratorError("special symplectic construction has a nonzero defect")
    probe = max_rank_probe(data, form, probe_trials, seed)
    if not probe.ok:
        raise GeneratorError(f"special symplectic construction dropped rank at "
                             f"{probe.counterexample.point.coords}")
    det = det_q(data) if compute_det else None
    return GeneratorReport(data, probe, det)


# -- isotropic orthogonal candidates --------------------------------------------------

# Rank-probe points per isotropic candidate, in the generator and the search alike.
_ISOTROPIC_PROBE_TRIALS = 20
# Bound on one chunk of the search (8 MiB), counted per trial as the entries of one
# gathered operand of the defects, the largest array a chunk forms besides the screen.
_CHUNK_ENTRIES = 2**20


@functools.lru_cache(maxsize=32)
def isotropic_basis(field: Field, dim: int) -> ExactMatrix:
    """Rows spanning a maximal totally isotropic subspace for the dot product.

    Over GF(p) with p = 1 mod 4 the rows e_{2t} + sqrt(-1) e_{2t+1} give
    dimension dim/2; for p = 3 mod 4 each group of four coordinates carries
    two isotropic rows built from a solution of a^2 + b^2 = -1, giving the
    Witt index in all cases.  The standard form is anisotropic over the
    rationals, so only prime fields are supported.  Memoised on (field,
    dim): callers share one immutable matrix, built and self-checked once.
    """
    if not field.is_prime_field:
        raise GeneratorError("the dot product has no isotropic vectors over the rationals")
    p = field.p
    if p % 4 == 1:
        pattern = [[1, _sqrt_minus_one(p)]]
    else:
        a, b = _sum_of_squares_minus_one(p)
        pattern = [[1, 0, a, b], [0, 1, b, p - a]]
    width = len(pattern[0])
    if dim < width:
        raise GeneratorError(f"no isotropic subspace in dimension {dim} over GF({p})")
    span = np.kron(np.identity(dim // width, dtype=np.int64), pattern)
    basis = ExactMatrix._wrap(field, np.pad(span, ((0, 0), (0, dim % width))))
    if not (basis @ basis.transpose()).is_zero():
        raise GeneratorError("isotropic construction failed its self-check")
    return basis


def _sqrt_minus_one(p: int) -> int:
    for a in range(2, p):
        if pow(a, (p - 1) // 2, p) == p - 1:
            return pow(a, (p - 1) // 4, p)
    raise GeneratorError(f"no square root of -1 mod {p}")


def _sum_of_squares_minus_one(p: int) -> tuple[int, int]:
    for b in range(1, p):
        t = (-1 - b * b) % p
        if t and pow(t, (p - 1) // 2, p) == 1:
            a = pow(t, (p + 1) // 4, p)
            return a, b
    raise GeneratorError(f"cannot write -1 as a sum of two squares mod {p}")


def _seed_sequences(seeds: list[int]) -> list[np.random.SeedSequence]:
    """One ``SeedSequence`` per seed, for every draw from that seed."""
    if min(seeds) < 0:
        raise ValueError(f"need seed >= 0, got {min(seeds)}")
    return [np.random.SeedSequence(s) for s in seeds]


def _isotropic_stack(n: int, k: int, span: ExactMatrix, seeds: list[np.random.SeedSequence],
                     perturbed: list[bool]) -> np.ndarray:
    """One candidate per seed sequence, as one (T, k, 2n+2, 2n+2k) array of
    blocks: from ``Generator(PCG64(ss))`` the first draw of coefficients on the
    span's rows with a nonzero product; if perturbed, each block M_a becomes
    g_a M_a + mix_a, keeping every M_a * M_b^t zero, the mix and then the k
    matrices g drawn from ``default_rng(seed + 0x5EED)``, seed the sequence's
    entropy.  One product gives all blocks, one all mixes."""
    field, r = span.field, 2 * n + 2

    def blocks(rngs):
        coeffs = np.array([field.sample(rng, (k * r, span.rows), 10) for rng in rngs])
        return field.matmul(coeffs, span._a).reshape(len(rngs), k, r, span.cols)

    rngs = [np.random.Generator(np.random.PCG64(s)) for s in seeds]
    stack = blocks(rngs)
    for t in (~stack.reshape(len(seeds), -1).any(axis=1)).nonzero()[0].tolist():
        redrawn = (blocks(rngs[t:t + 1])[0] for _ in range(99))  # up to 100 draws in all
        stack[t] = next(filter(np.any, redrawn), stack[t])
        if not stack[t].any():
            raise GeneratorError("could not draw nonzero blocks")
    moved = [t for t, flag in enumerate(perturbed) if flag]
    if moved:
        rngs = [np.random.default_rng(seeds[t].entropy + 0x5EED) for t in moved]
        mix = blocks(rngs)
        moved_blocks = _transvect(field, stack[moved].reshape(-1, r, span.cols), rngs)
        stack[moved] = field.reduce(moved_blocks.reshape(mix.shape) + mix)
    return stack


def gen_isotropic_orthogonal(n: int, k: int, p: int, seed: int) -> GeneratorReport:
    """Nonzero data satisfying the identity-pairing quadratic conditions.

    All block rows are drawn from one totally isotropic subspace, so every
    product M_a * M_b^t vanishes outright, which is stronger than the
    symmetrised conditions.  The data must pass :func:`orthogonal_verdict`
    as excluded by the syzygy: its zero defects and the per-shape lemma prove
    det Q = 0, and Q*S is never formed.  The data and the probe points are
    drawn from one ``SeedSequence`` of the seed.
    """
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    field = GF(p)
    span, ss = isotropic_basis(field, 2 * n + 2 * k), _seed_sequences([seed])
    (stack,) = _isotropic_stack(n, k, span, ss, [False])
    data = MonadData(n, k, field, tuple(ExactMatrix._wrap(field, b) for b in stack))
    verdict = orthogonal_verdict(data)
    if verdict.status != DET_ZERO_BY_SYZYGY:
        raise GeneratorError(f"isotropic construction failed its verdict: {verdict.message}")
    form = canonical_j(ORTHOGONAL_IDENTITY, n, k, field)
    probe = max_rank_probe(data, form, _ISOTROPIC_PROBE_TRIALS, ss[0])
    return GeneratorReport(data, probe, 0)  # the verdict proves det Q = 0


# -- orthogonal search harness -----------------------------------------------------------


@dataclass(frozen=True)
class TrialRow:
    seed: int
    perturbed: bool
    defects_ok: bool
    det_q_zero: bool
    rank_counterexample: bool


@dataclass(frozen=True)
class SearchSummary:
    rows: tuple[TrialRow, ...]

    @property
    def det_zero_count(self) -> int:
        return sum(r.det_q_zero for r in self.rows)

    @property
    def rank_counterexample_count(self) -> int:
        return sum(r.rank_counterexample for r in self.rows)

    @property
    def instanton_candidates(self) -> int:
        """Candidates passing every requirement at once; provably always zero."""
        return sum(r.defects_ok and not r.det_q_zero and not r.rank_counterexample
                   for r in self.rows)


def _search_chunk(n: int, k: int) -> int:
    """Trials checked as one stack: at most ``_PROBE_BATCH`` probe points and
    ``_CHUNK_ENTRIES`` entries of one operand ``monad._defect_stack`` gathers,
    k(k+1)/2 blocks M_a * J or M_b^t, and at least one trial."""
    gathered = k * (k + 1) // 2 * (2 * n + 2) * (2 * n + 2 * k)
    return max(1, min(_PROBE_BATCH // _ISOTROPIC_PROBE_TRIALS, _CHUNK_ENTRIES // gathered))


def search_orthogonal(n: int, k: int, p: int, trials: int, seed: int) -> SearchSummary:
    """Run seeded isotropic draws, perturbing every other one within the
    isotropic subspace, and tabulate how each candidate fails.

    Each trial draws its data and probe points from one ``SeedSequence`` of
    its seed, as the isotropic generator does, in chunks of
    :func:`_search_chunk` trials, each drawn and checked as one stack: one
    product gives every trial's defects, and one screen tests every trial's
    probe points, whose failures get the exact test trial by trial.  A
    nonzero trial with zero defects has det Q = 0 by the per-shape lemma of
    the verdict, with no Q*S.  Q is eliminated only for a trial with a
    nonzero defect, where no certificate exists; only such a trial, a zero
    one or a failing one is a :class:`MonadData`.
    """
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    if trials < 1:
        raise ValueError("need at least one trial")
    field = GF(p)
    span = isotropic_basis(field, 2 * n + 2 * k)
    chunk = _search_chunk(n, k)
    rows = []
    for start in range(0, trials, chunk):
        trial = range(start, min(start + chunk, trials))
        seeds, perturbed = [seed + t for t in trial], [t % 2 == 1 for t in trial]
        ss = _seed_sequences(seeds)
        stacks = _isotropic_stack(n, k, span, ss, perturbed)
        points, found = _probe_points(field, 2 * n + 2, _ISOTROPIC_PROBE_TRIALS, ss, _POINT_BOX)
        bad = _defect_pairs(field, stacks, ORTHOGONAL_IDENTITY)
        failed = _screen(p, stacks, points)  # a zero row pads; it fails the screen, unread
        for i, (s, flag, x, m) in enumerate(zip(seeds, perturbed, points, found)):
            fails, zero = failed[i, :m].nonzero()[0].tolist(), not stacks[i].any()
            d = (MonadData(n, k, field, tuple(ExactMatrix._wrap(field, b) for b in stacks[i]))
                 if zero or bad[i] or fails else None)
            verdict = _verdict(n, k, zero, bad[i])
            rows.append(TrialRow(s, flag, verdict.status != DEFECT_NONZERO,
                                 verdict.excluded or det_q(d) == 0,
                                 not _probe_verdict(d, x[:m], fails).ok))
    return SearchSummary(tuple(rows))
