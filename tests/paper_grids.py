"""The paper's grids, and label lookups and swaps on them, written out for the tests.

Tests check the constructions against these grids, so nothing here shares
code with the constructions: the grids come from the formulas alone, apart
from `extended_rows`, which starts from the 2p labeling that the golden
arrays and the verifier check on their own. A grid is a pair of rows as
`Labeling.to_rows` gives them; a cell is (row, column), both from 1.
"""

from collections import namedtuple

from primeladder.constructions import lemma_ladder_2p

ColumnJStar = namedtuple("ColumnJStar", "j_star labels k")


def lemma_base_rows(p):
    """The 2x2p grid before the lemma's swaps: 1..p then 3p+1..4p on top, p+1..3p below."""
    top = tuple(range(1, p + 1)) + tuple(range(3 * p + 1, 4 * p + 1))
    bottom = tuple(range(p + 1, 3 * p + 1))
    return (top, bottom)


def extended_rows(p, q):
    """The 2p labeling followed by q columns: 4p+1..4p+q on top, 4p+q+1..4p+2q below."""
    top, bottom = lemma_ladder_2p(p).to_rows()
    return (
        top + tuple(range(4 * p + 1, 4 * p + q + 1)),
        bottom + tuple(range(4 * p + q + 1, 4 * p + 2 * q + 1)),
    )


def column_jstar(p, q):
    """The column of the extended grid whose two labels are multiples of q.

    With k = floor(4p/q), they are (k+1)q on top and (k+2)q below, the two
    smallest multiples of q above 4p, in column (k+1)q - 2p.
    """
    k = 4 * p // q
    return ColumnJStar((k + 1) * q - 2 * p, ((k + 1) * q, (k + 2) * q), k)


def cell_of(rows, label):
    """The (row, column) holding `label`."""
    r = 1 if label in rows[0] else 2
    return (r, rows[r - 1].index(label) + 1)


def neighbors(rows, label):
    """The labels on the cells adjacent to `label`'s cell."""
    r, c = cell_of(rows, label)
    out = {rows[2 - r][c - 1]}
    if c > 1:
        out.add(rows[r - 1][c - 2])
    if c < len(rows[0]):
        out.add(rows[r - 1][c])
    return out


def swapped(rows, a, b):
    """A copy of the grid with labels a and b in each other's cells."""
    trade = {a: b, b: a}
    return tuple(tuple(trade.get(v, v) for v in row) for row in rows)
