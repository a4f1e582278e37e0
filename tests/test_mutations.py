"""Every identity suite must be able to fail: a mutation score.

Each row changes one line of a formula in ``spinchar`` or ``zem`` and names
the check that catches the change.  The mutant is built in-process: the
function's source with one snippet replaced, executed in a copy of its
module's namespace, and patched in where its callers look it up
(``zem.epsilon_J``, not ``spinchar.epsilon_J``).  A row asserts that its
snippet occurs once, so it cannot go stale when the formula is rewritten.

A suite row runs the named suite at seed 1 for the fewest trials that catch
the mutant, and checks that it is the fewest: the last trial is the first
that fails (or, for a periodicity suite, its exact component fails at one
trial).  A formula added to ``spinchar`` or ``zem`` adds its row here.
"""

import inspect
import textwrap

import pytest

from elliptica import spinchar, zem
from elliptica.zem import identity_check

SEED = 1


def _mutant(module, name, snippet, replacement):
    """``module.name`` with the one occurrence of ``snippet`` in its source
    replaced, defined in a copy of the module's namespace."""
    func = getattr(module, name)
    source = textwrap.dedent(inspect.getsource(func))
    assert source.count(snippet) == 1, f"{module.__name__}.{name} lacks {snippet!r}"
    namespace = dict(vars(module))
    exec(compile(source.replace(snippet, replacement, 1),
                 inspect.getsourcefile(func), "exec"), namespace)
    return namespace[name]


def _fewest_failing_trials(report):
    """The fewest trials at which ``report``'s suite fails, or None."""
    if report.exact_checks is not None and not report.exact_checks["passed"]:
        return 1
    return report.failures[0]["trial"] + 1 if report.failures else None


# (module, function, snippet, replacement, suite, fewest trials at seed 1);
# every mutant is patched into zem, where the suites look it up
SUITE_ROWS = {
    "epsilon_J always +1": (
        spinchar, "epsilon_J", "return -1 if total % 2 else 1", "return 1",
        "Z-periodicity", 1),
    "os_sign never flips": (
        spinchar, "os_sign", "out = -out", "out = out", "allW", 1),
    "v_sign ignores the orientation": (
        spinchar, "v_sign", "total += zeta.k", "pass", "spin-periodicity", 1),
    "spinor_trace 'str' ignores the orientation": (
        spinchar, "spinor_trace", "out *= R.orientation_sign", "pass",
        "elliptic-transfer", 1),
    "_c_constant's sign always +1": (
        zem, "_c_constant", "-1 if (e // 4) % 2 else 1", "1",
        "elliptic-transfer", 1),
    "_c_constant_numeric without its p power": (
        zem, "_c_constant_numeric", "params.p**p_pow", "1", "allW", 1),
    "em_fun without Os^(alpha+beta)": (
        zem, "em_fun", "os_k ** (gamma.alpha + gamma.beta)", "1",
        "EM-welldef", 1),
    "em_fun's reflected part with sign +1": (
        zem, "em_fun", "b_sign = sigma if not g_idx else 1", "b_sign = 1",
        "elliptic-transfer", 1),
    "em_eps with the trace's power inverted": (
        zem, "em_eps", "if power < 0", "if power > 0", "allW", 1),
    "_z_points ignores J's orientation": (
        zem, "_z_points", "return J.orientation_sign, points", "return 1, points",
        "order-k-trivial", 1),
    "_os_k ignores the orientation, spin-periodicity": (
        spinchar, "os_sign", "out = sign", "out = 1",
        "spin-periodicity", 1),
    "_os_k ignores the orientation, degenerate-reduction": (
        spinchar, "os_sign", "out = sign", "out = 1",
        "degenerate-reduction", 1),
}


@pytest.mark.parametrize("row", list(SUITE_ROWS))
def test_a_suite_catches_the_mutation(row, monkeypatch):
    module, name, snippet, replacement, suite, trials = SUITE_ROWS[row]
    monkeypatch.setattr(zem, name, _mutant(module, name, snippet, replacement))
    report = identity_check(suite, trials, seed=SEED)
    assert not report.passed
    assert _fewest_failing_trials(report) == trials


def test_every_row_builds_where_the_suites_look():
    """Every snippet is still in its function, and a mutant patched into
    spinchar alone would change nothing the suites call: each row's function
    is a name zem itself holds."""
    for module, name, snippet, replacement, *_ in SUITE_ROWS.values():
        assert callable(_mutant(module, name, snippet, replacement))
        assert getattr(zem, name) is getattr(module, name)
