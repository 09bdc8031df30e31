"""Generators for test data: symplectic instanton families, isotropic
orthogonal candidates, and the randomized orthogonal-search harness.

Every generator re-verifies its own claims before returning, the isotropic
one through :func:`orthogonal_verdict`; a failed self-check raises
:class:`GeneratorError` and is never an accepted outcome.  The search draws
its trials as the isotropic generator does, but tabulates instead of raising.

Random draws are batched: each kind of draw (block coefficients, transvection
triples) is one ``rng.integers`` call for all the values it needs, which
consumes the stream as one scalar draw per value in the same order would.
So a seed keeps its data whatever the batch size.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar

import numpy as np

from .exact import GF, ExactMatrix, Field
from .invariant import DEFECT_NONZERO, DET_ZERO_BY_SYZYGY, det_q, orthogonal_verdict
from .monad import (ORTHOGONAL_IDENTITY, SYMPLECTIC_CANONICAL, MonadData,
                    RankProbeVerdict, _nonzero_defects, _side_by_side, canonical_j, max_rank_probe)


class GeneratorError(RuntimeError):
    """A generator's construction failed its own verification."""


@dataclass(frozen=True)
class GeneratorReport:
    data: MonadData
    rank_probe: RankProbeVerdict
    det_q_value: object = None  # None when not computed
    defects_ok: ClassVar[bool] = True  # failed self-checks raise; kept only for perfbench's reads


def random_sl(field: Field, size: int, rng: np.random.Generator) -> ExactMatrix:
    """Unit-determinant matrix built as a product of 3 * size random transvections,
    whose triples are one draw that consumes the stream as one scalar draw per
    value would.  Sizes 0 and 1 give the identity and draw nothing."""
    return ExactMatrix._wrap(field, _random_sl_arrays(field, size, 1, rng)[0])


def _random_sl_arrays(field: Field, size: int, count: int,
                      rng: np.random.Generator) -> list[np.ndarray]:
    """``count`` storage arrays of :func:`random_sl`, as that many calls would
    draw them, from one ``rng.integers`` call on tiled bounds: transvection
    (i, j, lambda) adds lambda times row j != i to row i, lambda in GF(p) or
    in [-3, 3] over Q.  Rows are int lists, reduced mod p at each update;
    over Q the entries are integers until the end."""
    if size < 0:
        raise ValueError("need size >= 0")
    p = field.p
    steps = [[]] * count
    if size > 1:
        lam_low, lam_high = (0, p) if p is not None else (-3, 4)
        steps = rng.integers((0, 0, lam_low), (size, size - 1, lam_high),
                             size=(count, 3 * size, 3)).tolist()
    eye = [[int(r == c) for c in range(size)] for r in range(size)]
    arrays = []
    for triples in steps:
        a = [row[:] for row in eye]
        for i, j, lam in triples:
            j += j >= i
            if p is None:
                a[i] = [x + lam * y for x, y in zip(a[i], a[j])]
            else:
                a[i] = [(x + lam * y) % p for x, y in zip(a[i], a[j])]
        if p is None:
            a = [[Fraction(x) for x in row] for row in a]
        arrays.append(field.array(a, size))
    return arrays


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
    return MonadData(d.n, d.k, f, tuple(ExactMatrix._wrap(f, b) for b in s))


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
    a = field.zeros(k * (2 * n + 2), 2 * half).reshape(k, 2 * n + 2, 2 * half)
    a[j, c, j + c] = a[j, n + 1 + c, 2 * half - 1 - j - c] = field.one()
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
    rows: list[list[int]] = []
    if p % 4 == 1:
        root = _sqrt_minus_one(p)
        for t in range(dim // 2):
            row = [0] * dim
            row[2 * t] = 1
            row[2 * t + 1] = root
            rows.append(row)
    else:
        a, b = _sum_of_squares_minus_one(p)
        for t in range(dim // 4):
            u = [0] * dim
            u[4 * t], u[4 * t + 2], u[4 * t + 3] = 1, a, b
            v = [0] * dim
            v[4 * t + 1], v[4 * t + 2], v[4 * t + 3] = 1, b, (p - a) % p
            rows.extend([u, v])
    if not rows:
        raise GeneratorError(f"no isotropic subspace in dimension {dim} over GF({p})")
    basis = ExactMatrix(field, rows)
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


def _blocks_in_span(n: int, k: int, span: ExactMatrix,
                    rng: np.random.Generator) -> np.ndarray:
    """k random blocks whose rows are combinations of the span's rows, as one
    (k, 2n+2, cols) array: one draw of all their coefficients, consuming the
    stream as k draws of one block's would, and one product."""
    field = span.field
    coeffs = field.sample(rng, (k * (2 * n + 2), span.rows), 10)
    return field.matmul(coeffs, span._a).reshape(k, 2 * n + 2, span.cols)


def _isotropic_data(n: int, k: int, span: ExactMatrix, seed: int,
                    perturbed: bool) -> MonadData:
    """The first draw of :func:`_blocks_in_span` from ``seed`` with a nonzero
    block; if ``perturbed``, each block M_a becomes g_a M_a + mix_a, row
    operations inside the span that keep every M_a * M_b^t zero.  From
    ``seed + 0x5EED`` the stack mix is drawn first, then the k matrices g of
    :func:`random_sl` in one call, so a seed keeps its data."""
    if seed < 0:
        raise ValueError(f"need seed >= 0, got {seed}")
    field = span.field
    rng = np.random.default_rng(seed)
    for _ in range(100):
        stack = _blocks_in_span(n, k, span, rng)
        if stack.any():
            break
    else:
        raise GeneratorError("could not draw nonzero blocks")
    if perturbed:
        rng = np.random.default_rng(seed + 0x5EED)
        mix = _blocks_in_span(n, k, span, rng)
        sl = _random_sl_arrays(field, 2 * n + 2, k, rng)
        stack = field.reduce(np.array([field.matmul(g, b) for g, b in zip(sl, stack)]) + mix)
    return MonadData(n, k, field, tuple(ExactMatrix._wrap(field, b) for b in stack))


def gen_isotropic_orthogonal(n: int, k: int, p: int, seed: int) -> GeneratorReport:
    """Nonzero data satisfying the identity-pairing quadratic conditions.

    All block rows are drawn from one totally isotropic subspace, so every
    product M_a * M_b^t vanishes outright, which is stronger than the
    symmetrised conditions.  The data must pass :func:`orthogonal_verdict`
    as excluded by the syzygy, whose product Q*S = 0 proves det Q = 0.
    """
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    field = GF(p)
    data = _isotropic_data(n, k, isotropic_basis(field, 2 * n + 2 * k), seed, False)
    verdict = orthogonal_verdict(data)
    if verdict.status != DET_ZERO_BY_SYZYGY:
        raise GeneratorError(f"isotropic construction failed its verdict: {verdict.message}")
    form = canonical_j(ORTHOGONAL_IDENTITY, n, k, field)
    probe = max_rank_probe(data, form, _ISOTROPIC_PROBE_TRIALS, seed)
    return GeneratorReport(data, probe, 0)  # the verdict's Q*S = 0 proves det Q = 0


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


def search_orthogonal(n: int, k: int, p: int, trials: int, seed: int) -> SearchSummary:
    """Run seeded isotropic draws, perturbing every other one within the
    isotropic subspace, and tabulate how each candidate fails."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    if trials < 1:
        raise ValueError("need at least one trial")
    field = GF(p)
    form = canonical_j(ORTHOGONAL_IDENTITY, n, k, field)
    span = isotropic_basis(field, 2 * n + 2 * k)
    rows = []
    for t in range(trials):
        trial_seed = seed + t
        perturbed = t % 2 == 1
        data = _isotropic_data(n, k, span, trial_seed, perturbed)
        verdict = orthogonal_verdict(data)
        # Q is eliminated only when a defect is nonzero and no certificate exists
        det_q_zero = verdict.excluded or det_q(data) == 0
        probe = max_rank_probe(data, form, _ISOTROPIC_PROBE_TRIALS, trial_seed)
        rows.append(TrialRow(trial_seed, perturbed, verdict.status != DEFECT_NONZERO,
                             det_q_zero, not probe.ok))
    return SearchSummary(tuple(rows))
