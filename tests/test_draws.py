"""The identity suites draw through zem's helpers, not through the methods of
random.Random they stand for; each helper must return what its method
returns and use up the same raw draws, or every report would change.

Each case below draws with the helper from one generator and with the method
from a twin seeded alike, and compares the values and, at the end, the two
generators' states.  The integer ranges cover every range the suites use:
the literal ones in zem's source (a check below reads them from it) and
those that depend on a draw or on --dims.
"""

import ast
import inspect
import random

import pytest

from elliptica import zem
from elliptica.zem import _draw_complex, _randint

SEEDS = ["1|K-transfer|0", "5|allW|17", "7|spin-transfer|399",
         "0|EM-welldef|1999", "12|degenerate-reduction|3"]
DRAWS = 60  # per range and seed: (26 + 6 + 5) * 60 * 5 = 11 100 helper calls

# (1, planes) for up to 8 planes (--dims 16); (-b, b) for the bounds of
# _draw_nonzero_int (2, 3, 4 and 2k), of _draw_reduced_torsion (2k) and of
# the q -> 0 suite's alpha (2k), k = 2..6; (0, n - 1) for a choice among n
# residues, n = 1..5; and the literal ranges.  Widths 1, 2, 4 and 8 read
# getrandbits(k) with one bit to spare, the most rejections.
INT_RANGES = sorted({(1, n) for n in range(1, 9)}
                    | {(-b, b) for b in range(2, 13)}
                    | {(0, n) for n in range(5)}
                    | {(1, 3), (1, 4), (2, 6), (3, 6), (-3, 3), (-2, 2), (0, 2)})
COMPLEX_RANGES = [(-0.45, 0.45, 0.5, 2.0), (0.1, 3.0, -0.2, 0.2),
                  (-0.4, 0.4, -0.25, 0.25), (-0.2, 0.2, -0.1, 0.1),
                  (-0.12, 0.12, -0.06, 0.06)]


def _literal_ranges(helper):
    """The literal argument tuples of every call to ``helper`` in zem."""
    out = set()
    for node in ast.walk(ast.parse(inspect.getsource(zem))):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == helper):
            try:
                out.add(tuple(ast.literal_eval(a) for a in node.args[1:]))
            except ValueError:  # a range that depends on a draw or on --dims
                pass
    return out


def test_the_tables_cover_the_literal_ranges_of_zem():
    assert _literal_ranges("_randint") <= set(INT_RANGES)
    assert _literal_ranges("_draw_complex") == set(COMPLEX_RANGES)


@pytest.mark.parametrize("seed", SEEDS)
def test_randint_draws_as_the_method(seed):
    mine, theirs = random.Random(seed), random.Random(seed)
    for a, b in INT_RANGES:
        got = [_randint(mine, a, b) for _ in range(DRAWS)]
        assert got == [theirs.randint(a, b) for _ in range(DRAWS)], (a, b)
    assert mine.getstate() == theirs.getstate()


@pytest.mark.parametrize("seed", SEEDS)
def test_a_choice_draws_as_the_method(seed):
    mine, theirs = random.Random(seed), random.Random(seed)
    for seq in [(2, 4, 6), *(tuple(range(1, n + 1)) for n in range(1, 6))]:
        got = [seq[_randint(mine, 0, len(seq) - 1)] for _ in range(DRAWS)]
        assert got == [theirs.choice(seq) for _ in range(DRAWS)], seq
    assert mine.getstate() == theirs.getstate()


@pytest.mark.parametrize("seed", SEEDS)
def test_draw_complex_draws_as_the_method(seed):
    mine, theirs = random.Random(seed), random.Random(seed)
    for a, b, c, d in COMPLEX_RANGES:
        got = [_draw_complex(mine, a, b, c, d) for _ in range(DRAWS)]
        want = [complex(theirs.uniform(a, b), theirs.uniform(c, d))
                for _ in range(DRAWS)]
        assert got == want, (a, b, c, d)
    assert mine.getstate() == theirs.getstate()


def test_randint_refuses_an_empty_range():
    """The method raises ValueError there; the helper would loop forever."""
    with pytest.raises(ValueError):
        _randint(random.Random(0), 3, 2)
