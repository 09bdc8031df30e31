"""Monomial bases, ordering, and the block layout against the printed table."""

import math
from pathlib import Path

import pytest

from monadlab import (monomial_label, multiply_by_var, q_layout, layout_csv,
                      layout_table, sym_basis)
from oracles import (KNOWN_COL_LABELS, KNOWN_LAYOUT_TRIPLES, KNOWN_ROW_LABELS,
                     enum_monomials_brute, row_entries)

GOLDEN = Path(__file__).parent / "golden" / "layout_n2_k4.txt"


def test_sym_basis_degree_one():
    assert list(sym_basis(2, 1)) == [(1, 0), (0, 1)]


def test_sym_basis_k4_d2_matches_known_labels():
    labels = [monomial_label(m) for m in sym_basis(4, 2)]
    assert labels == KNOWN_COL_LABELS


def test_sym_basis_k4_d3_matches_known_labels():
    basis = sym_basis(4, 3)
    assert len(basis) == 20
    assert [monomial_label(m) for m in basis] == KNOWN_ROW_LABELS


def test_sym_basis_errors_and_edge():
    with pytest.raises(ValueError):
        sym_basis(0, 2)
    with pytest.raises(ValueError, match="^degree must be non-negative$"):
        sym_basis(3, -1)
    degree_zero = sym_basis(3, 0)
    assert list(degree_zero) == [(0, 0, 0)]
    assert monomial_label((0, 0, 0)) == "1"


@pytest.mark.parametrize("k", range(1, 9))
@pytest.mark.parametrize("d", range(0, 7))
def test_sym_basis_counts_and_order(k, d):
    basis = sym_basis(k, d)
    assert len(basis) == math.comb(k + d - 1, d)
    monos = list(basis)
    assert len(set(monos)) == len(monos)
    assert all(sum(m) == d and len(m) == k for m in monos)
    # strictly decreasing exponent vectors = the induced lexicographic order
    assert all(monos[i] > monos[i + 1] for i in range(len(monos) - 1))
    assert monos == enum_monomials_brute(k, d)


def test_monomial_index_examples():
    s2 = sym_basis(4, 2)
    assert s2.index((2, 0, 0, 0)) == 1
    assert s2.index((0, 1, 1, 0)) == 6
    s3 = sym_basis(4, 3)
    assert s3.index((0, 0, 0, 3)) == 20
    with pytest.raises(ValueError):
        s2.index((1, 0, 0, 0))  # wrong degree
    with pytest.raises(ValueError):
        s2.index((2, 0, 0))  # wrong arity


def test_multiply_by_var():
    assert multiply_by_var((3, 1, 0, 0), 1) == (4, 1, 0, 0)
    assert multiply_by_var((1, 1, 0), 3) == (1, 1, 1)
    assert multiply_by_var((0, 2, 0), 2) == (0, 3, 0)
    with pytest.raises(ValueError):
        multiply_by_var((1, 0), 3)
    with pytest.raises(ValueError):
        multiply_by_var((1, 0), 0)


def test_layout_examples_n2_k4():
    lay = q_layout(2, 4)
    assert (lay.block_rows, lay.block_cols) == (20, 10)
    assert row_entries(lay, 1) == [(1, 1)]
    row = lay.row_basis.index((1, 1, 1, 0))  # the i_1 i_2 i_3 row
    assert row_entries(lay, row) == [
        (lay.col_basis.index((1, 1, 0, 0)), 3),
        (lay.col_basis.index((1, 0, 1, 0)), 2),
        (lay.col_basis.index((0, 1, 1, 0)), 1),
    ]
    last = lay.row_basis.index((0, 0, 0, 3))
    assert row_entries(lay, last) == [(lay.col_basis.index((0, 0, 0, 2)), 4)]


def test_layout_matches_hand_worked_table():
    lay = q_layout(2, 4)
    got = sorted((i, j, a) for (i, j), a in lay.entries.items())
    assert got == sorted(KNOWN_LAYOUT_TRIPLES)


@pytest.mark.parametrize("n", range(1, 5))
@pytest.mark.parametrize("k", range(1, 6))
def test_layout_regularity(n, k):
    lay = q_layout(n, k)
    for j in range(1, lay.block_cols + 1):
        entries = [(i, a) for (i, c), a in lay.entries.items() if c == j]
        assert len(entries) == k
        assert sorted(a for _, a in entries) == list(range(1, k + 1))
        assert len({i for i, _ in entries}) == k
    for i in range(1, lay.block_rows + 1):
        eta = lay.row_basis.monomial(i)
        divisors = sum(1 for e in eta if e > 0)
        assert len(row_entries(lay, i)) == divisors


@pytest.mark.parametrize("n,k", [(1, 3), (2, 4), (3, 2)])
def test_layout_round_trip(n, k):
    lay = q_layout(n, k)
    for j, zeta in enumerate(lay.col_basis, start=1):
        for alpha in range(1, k + 1):
            i = lay.row_basis.index(multiply_by_var(zeta, alpha))
            assert lay.entry(i, j) == alpha


def test_layout_errors():
    with pytest.raises(ValueError):
        q_layout(0, 3)
    with pytest.raises(ValueError):
        q_layout(2, 0)


def test_layout_table_golden_file():
    assert layout_table(q_layout(2, 4)) == GOLDEN.read_text(encoding="ascii")


def test_layout_csv_small():
    assert layout_csv(q_layout(1, 2)) == "1,1,1\n2,1,2\n2,2,1\n3,2,2\n"
