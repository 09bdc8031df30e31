"""Fixtures shared by the test modules."""

import dataclasses

import pytest

from monadlab import exact, invariant, monad


class Elimination(str):
    """A "gf" or "gf det" call, with the ``shape`` of the array it eliminated."""

    shape: tuple


@pytest.fixture
def eliminations(monkeypatch):
    """The GF(p) eliminations run from here on, the only kind there is, each
    of the core ``exact._peel`` left: "gf" or "gf det", each with the shape
    of its array.  A matrix the peel takes whole is never eliminated."""
    calls = []
    gf = exact._echelon_gf

    def counting_gf(a, p, det_only):
        call = Elimination("gf det" if det_only else "gf")
        call.shape = a.shape
        calls.append(call)
        return gf(a, p, det_only)

    monkeypatch.setattr(exact, "_echelon_gf", counting_gf)
    return calls


@pytest.fixture
def screens(monkeypatch):
    """The rank probe's screens run from here on: for each call of
    ``_full_row_rank_gf``, the number of matrices in its stack."""
    sizes = []
    screen = monad._full_row_rank_gf

    def counting_screen(a, p):
        sizes.append(a.shape[0])
        return screen(a, p)

    monkeypatch.setattr(monad, "_full_row_rank_gf", counting_screen)
    return sizes


@pytest.fixture
def broken_lemma(monkeypatch):
    """From here on, the layout the syzygy lemma reads has its first block
    column's blocks in reversed block rows, so the lemma fails for every
    shape with k >= 2; the lemma's cache is cleared before and after."""
    q_layout = invariant.q_layout

    def broken(n, k):
        layout = q_layout(n, k)
        table = layout.table.copy()
        table[0] = table[0, ::-1]
        return dataclasses.replace(layout, table=table)

    invariant._syzygy_rows.cache_clear()
    monkeypatch.setattr(invariant, "q_layout", broken)
    yield
    monkeypatch.undo()
    invariant._syzygy_rows.cache_clear()
