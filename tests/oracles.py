"""Independent oracles and hand-frozen reference data for the test suite.

Nothing here goes through the code paths under test: determinants come from
Laplace expansion or fraction-free (Bareiss) elimination, rational echelon
forms and kernels from Bareiss elimination, products from the
definition, monomial enumerations from a recursive generator, matrix and
monad text from ``str`` on every entry, monad files read one token at a
time through ``Field.coerce``, rank probes
from one draw and one exact test per point, GF(p) echelon forms and kernels
from elimination that reduces every entry at every step, primality from trial
division, 0/1 determinants from a triangular order, Q entry by entry from
the monomial bases with plain loops, block mixes as sums of scaled blocks,
random SL matrices and isotropic trial data from one scalar draw per value,
the syzygy residual entry by entry in Fractions from Q's first block
columns, its report's defect flag (through ``quadratic_defect``) and the
probe's screen residues from each block's Fractions, the
orthogonal search one trial at a time through the single-candidate
verdict and probe, as it ran before its trials were checked as one stack,
and the 20x10 block table for n=2, k=4 was worked out by hand from the
single-variable multiplication rule.
"""

import math
import re
from fractions import Fraction

import numpy as np

from monadlab import (DEFECT_NONZERO, GF, ORTHOGONAL_IDENTITY, ExactMatrix, GeneratorError,
                      MatrixFormatError, MonadData, Point, RankCounterexample, RankProbeVerdict,
                      SearchSummary, SyzygyReport, TrialRow, build_q, build_syzygy, canonical_j,
                      defects_vanish, det_q, evaluate_a, exact, gens, isotropic_basis,
                      max_rank_probe, orthogonal_verdict, parse_field, quadratic_defect)


def det_cofactor(m: ExactMatrix):
    """Laplace expansion along the first row; exact, exponential, tiny sizes only."""
    rows = m.tolist()
    p = m.field.p
    val = _det_cofactor_rows(rows)
    return val % p if p is not None else val


def _det_cofactor_rows(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * _det_cofactor_rows(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def bareiss_echelon(m: ExactMatrix) -> tuple[list[list[int]], list[int], Fraction]:
    """Row echelon form over Q by fraction-free (Bareiss) elimination, its
    pivot columns and, for square m, det m (0 once a column has no pivot).

    The rows are cleared of denominators, which keeps the kernel and
    multiplies the det by the product of the scales.  Step c replaces each
    entry below and right of the pivot by the 2x2 minor with the pivot,
    divided exactly by the previous pivot, so every entry is an integer
    minor; at full rank the last pivot is the det of the cleared rows.
    """
    rows, scale = [], 1
    for row in m.tolist():
        s = math.lcm(*(Fraction(x).denominator for x in row))
        rows.append([int(x * s) for x in row])
        scale *= s
    pivots: list[int] = []
    sign, prev = 1, 1
    for c in range(m.cols):
        r = len(pivots)
        i = next((i for i in range(r, m.rows) if rows[i][c]), None)
        if i is None:
            continue
        if i != r:
            rows[r], rows[i] = rows[i], rows[r]
            sign = -sign
        piv = rows[r][c]
        for row in rows[r + 1:]:
            row[c + 1:] = [(x * piv - row[c] * y) // prev
                           for x, y in zip(row[c + 1:], rows[r][c + 1:])]
            row[c] = 0
        prev = piv
        pivots.append(c)
    det = Fraction(sign * prev, scale) if len(pivots) == m.rows else Fraction(0)
    return rows, pivots, det


def kernel_oracle(m: ExactMatrix) -> list[list]:
    """Right kernel by back-substitution, entry by entry, on ``bareiss_echelon``
    in Fractions over Q, or on ``echelon_gf_reference`` in Python ints over
    GF(p): one vector per free column f, 1 at f and 0 at the other free columns."""
    p = m.field.p
    if p is None:
        rows, pivots, _ = bareiss_echelon(m)
    else:
        a = np.array(m.tolist(), dtype=np.int64).reshape(m.shape)
        echelon, pivots, _ = echelon_gf_reference(a, p, False)
        rows = echelon.tolist()
    basis = []
    for f in sorted(set(range(m.cols)) - set(pivots)):
        v = [m.field.coerce(0)] * m.cols
        v[f] = m.field.coerce(1)
        for row, c in reversed(list(zip(rows, pivots))):
            tail = -sum(x * y for x, y in zip(row[c + 1:], v[c + 1:]))
            v[c] = Fraction(tail, row[c]) if p is None else tail * pow(row[c], -1, p) % p
        basis.append(v)
    return basis


def assert_canonical(m: ExactMatrix):
    """The storage invariant: an integer array over a positive denominator
    that shares no factor with all its entries (a zero matrix is over 1),
    int64 exactly when every entry fits in it; over GF(p) residues over 1."""
    values = [int(x) for x in m._a.flat]
    assert type(m._den) is int and m._den > 0 and math.gcd(m._den, *values) == 1
    fits = all(-2**63 <= x < 2**63 for x in values)
    assert m._a.dtype == (np.int64 if fits else object)
    if m.field.is_prime_field:
        assert m._den == 1 and all(0 <= x < m.field.p for x in values)


# Denominators of ``mixed_rows``: small ones and multiples of the prime
# 2**31 - 1, whose lcm with the small ones takes integer entries past int64.
MERSENNE = 2**31 - 1
MIXED_DENOMINATORS = [1, 2, 3, 4, 6, 9, 12, MERSENNE, 2 * MERSENNE, 3 * MERSENNE, MERSENNE**2]


def mixed_rows(rng: np.random.Generator, rows: int, cols: int) -> list[list[Fraction]]:
    """Fractions over ``MIXED_DENOMINATORS``, about a third of them zero,
    with numerators in [-9, 9] or, for one entry in four, up to 2**62."""
    def entry():
        if rng.random() < 1 / 3:
            return Fraction(0)
        big = rng.random() < 1 / 4
        num = int(rng.integers(-2**62, 2**62)) if big else int(rng.integers(-9, 10))
        return Fraction(num, int(rng.choice(MIXED_DENOMINATORS)))

    return [[entry() for _ in range(cols)] for _ in range(rows)]


def syzygy_rows(d) -> list[list]:
    """S entry by entry: the transposed blocks M_1^t..M_k^t, then zero rows
    up to (2n+2k) * C(k+n-1, n)."""
    rows = [list(column) for b in d.blocks for column in zip(*b.tolist())]
    zero = d.field.coerce(0)
    s = math.comb(d.k + d.n - 1, d.n)
    return rows + [[zero] * d.block_rows for _ in range((s - d.k) * d.block_cols)]


def matmul_naive(a: ExactMatrix, b: ExactMatrix) -> list:
    """Entry sums straight from the definition."""
    al, bl = a.tolist(), b.tolist()
    p = a.field.p
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            s = sum(al[i][t] * bl[t][j] for t in range(a.cols))
            row.append(s % p if p is not None else s)
        out.append(row)
    return out


def scaled(m: ExactMatrix, s) -> ExactMatrix:
    """s * m, entry by entry, through the public constructor."""
    s = m.field.coerce(s)
    return ExactMatrix(m.field, [[s * x for x in row] for row in m.tolist()])


def summed(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """a + b, entry by entry, through the public constructor."""
    return ExactMatrix(a.field, [[x + y for x, y in zip(r, s)]
                                 for r, s in zip(a.tolist(), b.tolist(), strict=True)])


def block_of(m: ExactMatrix, i: int, j: int, rows: int, cols: int) -> ExactMatrix:
    """Block (i, j), 0-based, of m's partition into rows x cols blocks."""
    return ExactMatrix(m.field, [row[j * cols:(j + 1) * cols]
                                 for row in m.tolist()[i * rows:(i + 1) * rows]])


def block_matrix(grid: list[list[ExactMatrix]]) -> ExactMatrix:
    """The matrix whose blocks are ``grid``, row of blocks by row of blocks."""
    rows = []
    for line in grid:
        rows += [sum(parts, []) for parts in zip(*(b.tolist() for b in line))]
    return ExactMatrix(grid[0][0].field, rows)


def pairing_rows(kind: str, size: int, field) -> list[list]:
    """The canonical pairing entry by entry: I for the orthogonal kind, and
    [[0, I], [-I, 0]] in half blocks for the symplectic one."""
    half = size // 2

    def entry(i, j):
        if kind == ORTHOGONAL_IDENTITY:
            return int(i == j)
        return int(j == i + half) - int(i == j + half)

    return [[field.coerce(entry(i, j)) for j in range(size)] for i in range(size)]


def layout_entries(layout) -> dict[tuple[int, int], int]:
    """A layout's table as the 1-based {(block row i, block column j): alpha}."""
    return {(i + 1, j + 1): alpha for j, rows in enumerate(layout.table.tolist())
            for alpha, i in enumerate(rows, start=1)}


def row_entries(layout, i: int) -> list[tuple[int, int]]:
    """Sorted (j, alpha) pairs present in block row i of a layout."""
    return sorted((j, a) for (r, j), a in layout_entries(layout).items() if r == i)


def layout_oracle(n: int, k: int):
    """(row monomials, column monomials, 1-based {(i, j): alpha}) of the
    degree-n layout in k variables, from brute-force bases and a test of every
    pair (eta_i, zeta_j) for eta_i = zeta_j * i_alpha."""
    rows, cols = enum_monomials_brute(k, n + 1), enum_monomials_brute(k, n)
    entries = {}
    for i, eta in enumerate(rows, start=1):
        for j, zeta in enumerate(cols, start=1):
            diff = [e - z for e, z in zip(eta, zeta)]
            if sorted(diff) == [0] * (k - 1) + [1]:
                entries[(i, j)] = diff.index(1) + 1
    return rows, cols, entries


def quadratic_defect_blockwise(d, j: ExactMatrix) -> list:
    """(a, b, D_ab) for 1 <= a <= b <= k, pair by pair: X = M_a * J * M_b^t by
    two entry-sum products, then D_ab = X + X^t."""
    out = []
    for a in range(d.k):
        for b in range(a, d.k):
            mj = ExactMatrix(d.field, matmul_naive(d.blocks[a], j))
            x = ExactMatrix(d.field, matmul_naive(mj, d.blocks[b].transpose()))
            out.append((a + 1, b + 1, summed(x, x.transpose())))
    return out


def format_matrix_dense(m: ExactMatrix) -> str:
    """The matrix text format with ``str`` called on every entry, zero or not."""
    lines = [f"matrix rows={m.rows} cols={m.cols} field={m.field.spec}"]
    lines += [" ".join(map(str, row)) for row in m.tolist()]
    return "\n".join(lines) + "\n"


def format_monad_dense(d) -> str:
    """The monad text format with ``str`` called on every entry, zero or not."""
    lines = [f"monad n={d.n} k={d.k} field={d.field.spec}"]
    for j, b in enumerate(d.blocks, start=1):
        lines.append(f"block {j}")
        lines += [" ".join(map(str, row)) for row in b.tolist()]
    return "\n".join(lines) + "\n"


_ENTRY = {True: re.compile(r"-?[0-9]+"), False: re.compile(r"-?[0-9]+(?:/[0-9]+)?")}


def _entry_row_per_token(field, line: str, expected: int) -> list:
    """One stripped line's entries, checked and coerced token by token."""
    toks = line.split()
    if len(toks) != expected:
        raise MatrixFormatError(f"expected {expected} entries, got {len(toks)}: {line!r}")
    for t in toks:
        if not _ENTRY[field.is_prime_field].fullmatch(t):
            raise MatrixFormatError(f"bad entry {t!r} in {line!r}")
    try:
        return [field.coerce(t) for t in toks]
    except ZeroDivisionError as e:
        raise MatrixFormatError(f"bad entry in {line!r}: {e}") from None


def parse_monad_per_token(text: str) -> MonadData:
    """The monad reader one line and one token at a time, as it ran before
    blocks were checked and converted at once: each row's tokens through
    ``Field.coerce``, each block through ``ExactMatrix``."""
    lines = [line.strip() for line in text.splitlines()]
    lines = [line for line in lines if line and not line.startswith("#")]
    if not lines:
        raise MatrixFormatError("empty monad input")
    m = re.fullmatch(r"monad n=(\d+) k=(\d+) field=(\S+)", lines[0])
    if not m:
        raise MatrixFormatError(f"bad monad header: {lines[0]!r}")
    n, k = int(m.group(1)), int(m.group(2))
    field = parse_field(m.group(3))
    if n < 1 or k < 1:
        raise MatrixFormatError(f"bad parameters n={n}, k={k}")
    rows, cols = 2 * n + 2, 2 * n + 2 * k
    blocks = []
    for j in range(1, k + 1):
        pos = 1 + (j - 1) * (rows + 1)
        got = lines[pos] if pos < len(lines) else "<eof>"
        if got != f"block {j}":
            raise MatrixFormatError(f"expected 'block {j}', got {got!r}")
        if pos + rows >= len(lines):
            raise MatrixFormatError(f"block {j} is truncated")
        blocks.append(ExactMatrix(field, [_entry_row_per_token(field, line, cols)
                                          for line in lines[pos + 1:pos + 1 + rows]]))
    if len(lines) > (end := 1 + k * (rows + 1)):
        raise MatrixFormatError(f"trailing content after block {k}: {lines[end]!r}")
    return MonadData(n, k, field, tuple(blocks))


def enum_monomials_brute(k: int, d: int) -> list[tuple[int, ...]]:
    """All exponent tuples of degree d, sorted by decreasing exponent vector."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining + 1):
            rec(prefix + (e,), remaining - e, slots - 1)

    rec((), d, k)
    return sorted(out, reverse=True)


def build_q_blockwise(d) -> ExactMatrix:
    """Q entry by entry: block (i, j) is M_alpha when the i-th degree-(n+1)
    monomial is the j-th degree-n monomial times i_alpha, zero otherwise.

    Every entry is a canonical zero or a canonical block entry, so the rows
    are stored as they are, without coercing each of the order**2 entries."""
    br, bc = d.block_rows, d.block_cols
    row_monomials = enum_monomials_brute(d.k, d.n + 1)
    col_monomials = enum_monomials_brute(d.k, d.n)
    cols = len(col_monomials) * bc
    zero = d.field.coerce(0)
    rows = [[zero] * cols for _ in range(len(row_monomials) * br)]
    for i, eta in enumerate(row_monomials):
        for j, zeta in enumerate(col_monomials):
            diff = [e - z for e, z in zip(eta, zeta)]
            if sorted(diff) != [0] * (d.k - 1) + [1]:
                continue
            block = d.blocks[diff.index(1)].tolist()
            for r in range(br):
                for c in range(bc):
                    rows[i * br + r][j * bc + c] = block[r][c]
    return ExactMatrix._wrap(d.field, *d.field.store(rows, cols))


def mix_blocks_sum(c: ExactMatrix, blocks) -> list[ExactMatrix]:
    """Block a of the mix is the sum over j of c[a, j] * M_j, term by term."""
    out = []
    for a in range(c.rows):
        mix = scaled(blocks[0], c[a, 0])
        for j in range(1, c.cols):
            mix = summed(mix, scaled(blocks[j], c[a, j]))
        out.append(mix)
    return out


# Hand-worked 20x10 block pattern for n=2, k=4:
# (block row, block column, alpha) with M_alpha at that position.
KNOWN_LAYOUT_TRIPLES = [
    (1, 1, 1),
    (2, 1, 2), (2, 2, 1),
    (3, 1, 3), (3, 3, 1),
    (4, 1, 4), (4, 4, 1),
    (5, 2, 2), (5, 5, 1),
    (6, 2, 3), (6, 3, 2), (6, 6, 1),
    (7, 2, 4), (7, 4, 2), (7, 7, 1),
    (8, 3, 3), (8, 8, 1),
    (9, 3, 4), (9, 4, 3), (9, 9, 1),
    (10, 4, 4), (10, 10, 1),
    (11, 5, 2),
    (12, 5, 3), (12, 6, 2),
    (13, 5, 4), (13, 7, 2),
    (14, 6, 3), (14, 8, 2),
    (15, 6, 4), (15, 7, 3), (15, 9, 2),
    (16, 7, 4), (16, 10, 2),
    (17, 8, 3),
    (18, 8, 4), (18, 9, 3),
    (19, 9, 4), (19, 10, 3),
    (20, 10, 4),
]

# Row and column monomial labels of the same table, in basis order.
KNOWN_ROW_LABELS = [
    "i_1^3", "i_1^2i_2", "i_1^2i_3", "i_1^2i_4", "i_1i_2^2", "i_1i_2i_3",
    "i_1i_2i_4", "i_1i_3^2", "i_1i_3i_4", "i_1i_4^2", "i_2^3", "i_2^2i_3",
    "i_2^2i_4", "i_2i_3^2", "i_2i_3i_4", "i_2i_4^2", "i_3^3", "i_3^2i_4",
    "i_3i_4^2", "i_4^3",
]
KNOWN_COL_LABELS = [
    "i_1^2", "i_1i_2", "i_1i_3", "i_1i_4", "i_2^2", "i_2i_3", "i_2i_4",
    "i_3^2", "i_3i_4", "i_4^2",
]


def distinct_points_pointwise(field, dim: int, rng, box: int, count: int,
                              max_attempts: int) -> list[tuple]:
    """Draw one point at a time; keep the first ``count`` distinct ones among
    the first ``max_attempts`` nonzero draws."""
    seen: list[tuple] = []
    attempts = 0
    while len(seen) < count and attempts < max_attempts:
        coords = tuple(field.sample(rng, dim, box).tolist())
        if not any(coords):
            continue
        attempts += 1
        if coords not in seen:
            seen.append(coords)
    return seen


def rank_probe_pointwise(d, j, trials: int, seed: int, box: int = 10) -> RankProbeVerdict:
    """``max_rank_probe`` one point at a time: draw, skip zeros and repeats, and
    test A(x) and A(x) * J by exact elimination.  B = A(x) * J keeps A's rank
    for the invertible J the probe requires; a drop there fails an assertion."""
    rng = np.random.default_rng(seed)
    seen: set[tuple] = set()
    tested = 0
    attempts = 0
    max_attempts = 50 * trials + 100
    while tested < trials and attempts < max_attempts:
        coords = d.field.sample(rng, d.block_rows, box)
        if not coords.any():
            continue
        attempts += 1
        x = Point.of(d.field, coords.tolist())
        if x.coords in seen:
            continue
        seen.add(x.coords)
        tested += 1
        a = evaluate_a(d, x)
        ra = a.rank()
        if ra != d.k:
            return RankProbeVerdict(False, tested, RankCounterexample(x, ra))
        assert (a @ j).rank() == d.k, "B = A*J dropped rank where A did not"
    return RankProbeVerdict(True, tested)


def residual_fraction(d) -> ExactMatrix:
    """Q*S entry by entry on field elements (Fractions over Q): the first k
    block columns of ``build_q``, sliced, times S's first k block rows,
    which hold the transposed blocks; the rest of S is zero."""
    width = d.k * d.block_cols
    q = ExactMatrix(d.field, [row[:width] for row in build_q(d).matrix.tolist()])
    s = ExactMatrix(d.field, build_syzygy(d).matrix.tolist()[:width])
    return ExactMatrix(d.field, matmul_naive(q, s))


def verify_syzygy_fraction(d) -> SyzygyReport:
    """``verify_syzygy`` on field elements: the zero tests on
    :func:`residual_fraction` and on the blocks, and the defects by
    ``quadratic_defect`` with J = I."""
    j = canonical_j(ORTHOGONAL_IDENTITY, d.n, d.k, d.field)
    return SyzygyReport(
        residual_is_zero=residual_fraction(d).is_zero(),
        syzygy_is_zero=all(b.is_zero() for b in d.blocks),
        defects_all_zero=defects_vanish(quadratic_defect(d, j)),
    )


def residues_per_block(d) -> tuple[int, np.ndarray]:
    """The rank probe's screen input, block by block: (p, the blocks) over
    GF(p); over Q, with q the first CRT prime, each block's Fractions times
    the lcm of its own denominators, mod q, entry by entry."""
    if d.field.is_prime_field:
        return d.field.p, np.array([b.tolist() for b in d.blocks], dtype=np.int64)
    q = next(exact._crt_primes())
    out = []
    for block in d.blocks:
        rows = block.tolist()
        scale = math.lcm(*(x.denominator for row in rows for x in row))
        out.append([[int(x * scale) % q for x in row] for row in rows])
    return q, np.array(out, dtype=np.int64)


def echelon_gf_reference(a: np.ndarray, p: int, det_only: bool):
    """GF(p) forward elimination reducing the updated rows mod p at every step:
    (echelon form, pivot columns, determinant), as ``_echelon_gf``."""
    a = a.copy()
    rows, cols = a.shape
    pivots: list[int] = []
    det = 1
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        nz = a[r:, c].nonzero()[0]
        if nz.size == 0:
            det = 0
            if det_only:
                break
            continue
        if nz[0]:
            i = r + int(nz[0])
            a[[r, i]] = a[[i, r]]
            det = -det
        piv = int(a[r, c])
        det = det * piv % p
        below = r + nz[1:]
        if below.size:
            factors = a[below, c] * pow(piv, -1, p) % p
            a[below, c:] = (a[below, c:] - np.outer(factors, a[r, c:])) % p
        pivots.append(c)
    return a, pivots, det


def is_prime_trial(n: int) -> bool:
    """Trial division by 2 and the odd numbers up to sqrt(n)."""
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


def unitriangular_det(m: ExactMatrix):
    """det over Z of a square 0/1 matrix whose rows and columns permute to
    lower unitriangular form, or None if they do not (or an entry is not 0/1).

    Kahn-style peeling on the bipartite pattern: take a row with exactly one
    nonzero left among the remaining columns, order it and that column next,
    and remove both.  Row t of the peeled order then has no nonzero in the
    columns ordered after its own, so the permuted matrix is lower
    triangular with ones on the diagonal, and det = sign(rows) * sign(cols).
    """
    a = m._a
    nz = a != 0
    ii, jj = nz.nonzero()
    if m.rows != m.cols or m._den != 1 or not (a[ii, jj] == 1).all():
        return None
    left = [set() for _ in range(m.rows)]  # each row's remaining columns
    col_rows = [[] for _ in range(m.cols)]
    for i, j in zip(ii.tolist(), jj.tolist()):
        left[i].add(j)
        col_rows[j].append(i)
    ready = [i for i, cols in enumerate(left) if len(cols) == 1]
    rows, cols = [], []
    while ready:
        i = ready.pop()
        if len(left[i]) != 1:
            continue  # an earlier step took its last column: the matrix is singular
        c = left[i].pop()
        rows.append(i)
        cols.append(c)
        for r in col_rows[c]:
            left[r].discard(c)
            if len(left[r]) == 1:
                ready.append(r)
    if len(rows) < m.rows:
        return None
    row_place, col_place = np.empty(m.rows, int), np.empty(m.cols, int)
    row_place[rows] = col_place[cols] = np.arange(m.rows)
    assert (row_place[ii] >= col_place[jj]).all()  # lower triangular
    return _permutation_sign(rows) * _permutation_sign(cols)


def _permutation_sign(perm: list[int]) -> int:
    """+1 or -1: each cycle of even length flips the sign."""
    seen = [False] * len(perm)
    sign = 1
    for start in range(len(perm)):
        if seen[start]:
            continue
        j, length = start, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


# The sequential isotropic trial path: one scalar draw per value, one product
# per block.  The library draws each kind of value in one call and must give
# the same data from the same seed.


def random_sl_sequential(field, size: int, rng: np.random.Generator) -> ExactMatrix:
    """Unit-determinant matrix built as a product of 3 * size random
    transvections, on rows of field elements (Fractions over Q)."""
    a = [[field.coerce(int(r == c)) for c in range(size)] for r in range(size)]
    for _ in range(3 * size):
        i = int(rng.integers(0, size))
        j = int(rng.integers(0, size - 1))
        if j >= i:
            j += 1
        lam = field.coerce(int(field.sample(rng, None, 3)))
        a[i] = [field.coerce(x + lam * y) for x, y in zip(a[i], a[j])]
    return ExactMatrix(field, a)


def isotropic_rows_listwise(field, dim: int) -> list[list[int]]:
    """The rows of ``isotropic_basis`` built one list at a time: for p = 1 mod
    4, e_{2t} + sqrt(-1) e_{2t+1}; for p = 3 mod 4, the two rows (1, 0, a, b)
    and (0, 1, b, -a) on each group of four coordinates, a^2 + b^2 = -1."""
    if not field.is_prime_field:
        raise GeneratorError("the dot product has no isotropic vectors over the rationals")
    p = field.p
    rows: list[list[int]] = []
    if p % 4 == 1:
        root = gens._sqrt_minus_one(p)
        for t in range(dim // 2):
            row = [0] * dim
            row[2 * t] = 1
            row[2 * t + 1] = root
            rows.append(row)
    else:
        a, b = gens._sum_of_squares_minus_one(p)
        for t in range(dim // 4):
            u = [0] * dim
            u[4 * t], u[4 * t + 2], u[4 * t + 3] = 1, a, b
            v = [0] * dim
            v[4 * t + 1], v[4 * t + 2], v[4 * t + 3] = 1, b, (p - a) % p
            rows.extend([u, v])
    if not rows:
        raise GeneratorError(f"no isotropic subspace in dimension {dim} over GF({p})")
    return rows


def blocks_in_span_sequential(n: int, k: int, span: ExactMatrix,
                              rng: np.random.Generator) -> tuple[ExactMatrix, ...]:
    """Random blocks whose rows are combinations of the span's rows."""
    return tuple(ExactMatrix.random(span.field, 2 * n + 2, span.rows, rng) @ span
                 for _ in range(k))


def isotropic_data_sequential(n: int, k: int, span: ExactMatrix, seed: int,
                              perturbed: bool) -> MonadData:
    """The first draw of :func:`blocks_in_span_sequential` from ``seed`` with a
    nonzero block; if ``perturbed``, moved by row operations inside the span,
    which keep every product M_a * M_b^t zero."""
    rng = np.random.default_rng(seed)
    for _ in range(100):
        blocks = blocks_in_span_sequential(n, k, span, rng)
        if not all(b.is_zero() for b in blocks):
            break
    else:
        raise GeneratorError("could not draw nonzero blocks")
    if perturbed:
        rng = np.random.default_rng(seed + 0x5EED)
        blocks = tuple(summed(random_sl_sequential(span.field, 2 * n + 2, rng) @ b, mix)
                       for b, mix in zip(blocks, blocks_in_span_sequential(n, k, span, rng)))
    return MonadData(n, k, span.field, blocks)


def stack_data(n: int, k: int, field, blocks: np.ndarray) -> MonadData:
    """The data whose blocks are a (k, 2n+2, 2n+2k) array, entry by entry."""
    return MonadData(n, k, field, tuple(ExactMatrix(field, b.tolist()) for b in blocks))


def search_orthogonal_reference(n: int, k: int, p: int, trials: int, seed: int) -> SearchSummary:
    """``search_orthogonal`` one trial at a time: each trial's draw, a stack
    of one (looked up on ``gens``, so a test's replacement is used), then its own
    ``orthogonal_verdict``, det Q only for a nonzero defect, and its own
    ``max_rank_probe`` at 20 points from the trial's seed."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    if trials < 1:
        raise ValueError("need at least one trial")
    field = GF(p)
    form = canonical_j(ORTHOGONAL_IDENTITY, n, k, field)
    span = isotropic_basis(field, 2 * n + 2 * k)
    rows = []
    for t in range(trials):
        stack = gens._isotropic_stack(n, k, span, gens._seed_sequences([seed + t]), [t % 2 == 1])
        data = stack_data(n, k, field, stack[0])
        verdict = orthogonal_verdict(data)
        det_q_zero = verdict.excluded or det_q(data) == 0
        probe = max_rank_probe(data, form, 20, seed + t)
        rows.append(TrialRow(seed + t, t % 2 == 1, verdict.status != DEFECT_NONZERO,
                             det_q_zero, not probe.ok))
    return SearchSummary(tuple(rows))
