import cmath
import json
import math
import os
import random
import time

import pytest

from elliptica import cli, zem
from elliptica.elliptic import EllipticParams, phi_numeric
from elliptica.spinchar import (
    CyclicAction,
    RotationData,
    SpinCharError,
    spinor_trace,
    v_sign,
)
from elliptica.witten import witten_char
from elliptica.zem import (
    BothEvenError,
    DegenerateDrawError,
    IdentityReport,
    LatticeElement,
    SUITE_NAMES,
    SpecialCollisionError,
    ZemError,
    _c_constant_numeric,
    em_eps,
    em_fun,
    identity_check,
    z_fun,
    z_term,
)
from series_reference import em_eps_exact

TAU = 0.21 + 1.05j
PARAMS = EllipticParams(tau=TAU)


def offsets(*vals, sign=1):
    return RotationData(tuple(vals), sign)


def test_lattice_element_basics():
    g = LatticeElement.torsion(1, 1, 2)
    assert g.k == 2
    assert abs(g.value(TAU) - (1 + TAU) / 2) < 1e-15
    t = g.translate(1, 0)
    assert t.alpha == 3
    # the same point: equal orders and data congruent mod k
    assert t.k == g.k and (t.alpha - g.alpha) % g.k == (t.beta - g.beta) % g.k == 0
    with pytest.raises(ZemError):
        LatticeElement.torsion(2, 0, 4)  # not reduced


def test_z_fun_single_factor_is_phi1():
    # one plane: the product is a single phi_1 value
    gamma = 0.21 + 0.09j
    j = RotationData((2,), 1)
    r = offsets(0.07 - 0.02j)
    got = z_fun(gamma, j, r, PARAMS)
    want = phi_numeric(1, PARAMS, 2 * gamma + 0.07 - 0.02j)
    assert abs(got - want) < 1e-14 * abs(want)
    flipped = z_fun(gamma, RotationData((2,), -1), r, PARAMS)
    assert abs(flipped + got) < 1e-14 * abs(got)


def test_z_fun_gamma_zero_matches_character_definition():
    # at gamma = 0 the function is chi * C_1 evaluated on the offsets
    gamma = 0j
    j = RotationData((1, 3), 1)
    r = offsets(0.11 + 0.01j, 0.19 - 0.03j)
    got = z_fun(gamma, j, r, PARAMS, strict=False)
    angles = RotationData(tuple(2 * math.pi * x for x in r.entries), 1)
    eigs = [cmath.exp(2j * cmath.pi * x) for x in r.entries]
    want = witten_char(1, eigs, PARAMS) / spinor_trace("str", angles)
    assert abs(got - want) < 1e-12 * abs(want)


def test_z_fun_shift_property():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(1, 3)
        j = RotationData(tuple(rng.choice([1, -1, 2, 3]) for _ in range(n)), 1)
        gamma = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.2, 0.2))
        y = complex(rng.uniform(-0.15, 0.15), rng.uniform(-0.1, 0.1))
        r = offsets(*[complex(rng.uniform(0.03, 0.4), rng.uniform(-0.03, 0.03))
                      for _ in range(n)])
        shifted = offsets(*[r.entries[i] + j.entries[i] * y for i in range(n)])
        from elliptica.elliptic import PoleError

        try:
            lhs = z_fun(gamma, j, shifted, PARAMS)
            rhs = z_fun(gamma + y, j, r, PARAMS)
        except (SpecialCollisionError, PoleError):
            continue
        assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), abs(rhs))


def test_z_fun_collision_error_names_rotation_number():
    gamma = LatticeElement.torsion(1, 0, 2)
    j = RotationData((2,), 1)
    with pytest.raises(SpecialCollisionError) as err:
        z_fun(gamma, j, offsets(0.1), PARAMS)
    assert err.value.rotation_number == 2
    # non-strict evaluation goes through (the offset keeps it off the pole)
    val = z_fun(gamma, j, offsets(0.1), PARAMS, strict=False)
    assert abs(val) > 0


def test_z_fun_exact_formal_series():
    from elliptica.elliptic import phi_exact
    from elliptica.witten import laurent_sum

    assert laurent_sum(8, [z_term((1,), 8)]) == phi_exact(1, 8)
    with pytest.raises(ZemError, match="integer rotation data"):
        z_fun(0.1, RotationData((0.5,), 1), None, PARAMS)


def test_em_eps_dim2_case_alpha_odd():
    # R = 0: Tr(1, S_N) = 2 and the value is c2 * C_2(0) / 2
    gamma = LatticeElement.torsion(1, 0, 2)
    r0 = offsets(0.0)
    got = em_eps(gamma, r0, PARAMS)
    c2 = 1j * (-1.0) ** 0  # i^{dim N/2}, (alpha+beta-1) dim N/4 = 0
    want = c2 * witten_char(2, [1.0], PARAMS) / 2.0
    assert abs(got - want) < 1e-13 * abs(want)


def test_em_eps_rejects_both_even():
    gamma = LatticeElement.torsion(1, 1, 2)
    shifted = LatticeElement(alpha=2, beta=2, k=2)  # unreduced
    with pytest.raises(BothEvenError):
        em_eps(shifted, offsets(0.1), PARAMS)
    with pytest.raises(ZemError):
        em_eps(LatticeElement.torsion(1, 0, 3), offsets(0.1), PARAMS)  # odd k


def test_em_eps_exact_q_prefactor():
    # the (even, odd) case is divisible by p^{dim N/2}: one p per plane
    gamma = LatticeElement.torsion(0, 1, 2)
    _, ser = em_eps_exact(gamma, RotationData((1,), 1), 8)
    assert not ser.coeffs[0]
    assert any(ser.coeffs)
    gamma2 = LatticeElement.torsion(1, 1, 2)
    _, ser2 = em_eps_exact(gamma2, RotationData((1, 2), 1), 8)
    assert not ser2.coeffs[0] and not ser2.coeffs[1]


def test_em_eps_exact_matches_numeric():
    for alpha, beta in ((1, 0), (0, 1), (1, 1)):
        gamma = LatticeElement.torsion(alpha, beta, 2)
        j, ser = em_eps_exact(gamma, RotationData((1,), 1), 60)
        z = 0.13 + 0.02j
        s0 = cmath.exp(1j * cmath.pi * z)
        p0 = cmath.exp(0.5j * cmath.pi * TAU)
        num = em_eps(gamma, offsets(z), PARAMS)
        assert abs(1j ** j * ser.evaluate(s0, p0) - num) < 1e-10 * abs(num)


def test_normalized_residues_examples():
    """The canonical adapted data of ``em_fun``: residues pulled into
    {1, .., k-1}, refused where the action fixes a plane."""
    assert CyclicAction(4, (1,)).normalized_residues() == (1,)
    assert CyclicAction(3, (1, 2)).normalized_residues() == (1, 2)
    assert CyclicAction(5, (7, -1)).normalized_residues() == (2, 4)
    with pytest.raises(SpinCharError):
        CyclicAction(4, (4,)).normalized_residues()


def test_em_fun_reduces_to_z_without_minus_one():
    gamma = LatticeElement.torsion(1, 1, 5)
    zeta = CyclicAction(5, (1, 2))
    r = offsets(0.08, 0.15 - 0.02j)
    got = em_fun(gamma, zeta, r, PARAMS)
    k = RotationData(zeta.normalized_residues(), 1)
    from elliptica.spinchar import os_sign

    os_k = os_sign(k.scaled(2 * math.pi / 5))
    want = (os_k ** 2) * z_fun(gamma, k, RotationData(r.entries, 1), PARAMS)
    assert abs(got - want) < 1e-13 * abs(want)


def test_em_fun_adapted_choice_independence():
    gamma = LatticeElement.torsion(1, 2, 5)
    r = offsets(0.08, 0.15 - 0.02j)
    base = em_fun(gamma, CyclicAction(5, (1, 2)), r, PARAMS)
    from elliptica.spinchar import os_sign

    for shifts in ((1, 0), (0, -1), (2, 1)):
        j = RotationData((1 + 5 * shifts[0], 2 + 5 * shifts[1]), 1)
        os_j = os_sign(j.scaled(2 * math.pi / 5)) ** 3
        alt = os_j * z_fun(gamma, j, RotationData(r.entries, 1), PARAMS)
        assert abs(alt - base) < 1e-9 * abs(base)


def test_em_fun_periodicity_with_v_sign():
    rng = random.Random(17)
    for _ in range(20):
        k = rng.randint(2, 6)
        n = rng.randint(1, 3)
        residues = tuple(rng.randint(1, k - 1) for _ in range(n))
        sig = 1 if rng.random() < 0.5 else -1
        for _try in range(40):
            alpha = rng.randint(-k, k)
            beta = rng.randint(-k, k)
            from math import gcd
            if gcd(gcd(abs(alpha), abs(beta)), k) == 1:
                break
        gamma = LatticeElement.torsion(alpha, beta, k)
        r = RotationData(
            tuple(complex(rng.uniform(0.03, 0.4), rng.uniform(-0.03, 0.03))
                  for _ in range(n)),
            sig,
        )
        zeta = CyclicAction(k, residues)
        v = v_sign(zeta, sig)
        base = em_fun(gamma, zeta, r, PARAMS)
        plus1 = em_fun(gamma.translate(1, 0), zeta, r, PARAMS)
        plustau = em_fun(gamma.translate(0, 1), zeta, r, PARAMS)
        assert abs(plus1 - v * base) < 1e-9 * abs(base)
        assert abs(plustau - v * base) < 1e-9 * abs(base)


def test_em_fun_requires_no_eigenvalue_one():
    gamma = LatticeElement.torsion(1, 0, 3)
    with pytest.raises(ZemError):
        em_fun(gamma, CyclicAction(3, (3,)), offsets(0.1), PARAMS)


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_identity_suites_quick(suite):
    rep = identity_check(suite, trials=20, dims=8, seed=5, tol=1e-8)
    assert rep.passed, rep.failures[:1]
    assert rep.max_residual < 1e-8
    if rep.exact_checks is not None:
        assert rep.exact_checks["passed"]


def test_identity_check_unknown_suite():
    with pytest.raises(ValueError):
        identity_check("nosuch", trials=1)


def test_identity_check_deterministic():
    a = identity_check("K-transfer", trials=12, seed=9)
    b = identity_check("K-transfer", trials=12, seed=9)
    assert a.to_json() == b.to_json()


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0, 1.0, 1e300])
def test_suites_reject_vacuous_tol(tol):
    with pytest.raises(ValueError, match="tol must be finite"):
        identity_check("K-transfer", trials=2, tol=tol)
    with pytest.raises(ValueError, match="tol must be finite"):
        identity_check("degenerate-reduction", trials=2, tol=tol)


@pytest.mark.parametrize("dims", [1, 0, -4])
def test_suites_reject_dims_without_a_plane(dims):
    with pytest.raises(ValueError, match="dims must be >= 2"):
        identity_check("K-transfer", trials=2, dims=dims)
    with pytest.raises(ValueError, match="dims must be >= 2"):
        identity_check("degenerate-reduction", trials=2, dims=dims)


@pytest.mark.parametrize("trials", [0, -3])
@pytest.mark.parametrize("suite", ["K-transfer", "allW", "Z-periodicity"])
def test_suites_reject_no_trials(suite, trials):
    """No trial checks nothing: that is an error, not a pass."""
    with pytest.raises(ValueError, match="trials must be >= 1"):
        identity_check(suite, trials=trials)


def test_degenerate_reduction_quick():
    rep = identity_check("degenerate-reduction", trials=20, dims=8, seed=1,
                         tol=1e-10)
    assert rep.passed, rep.failures[:1]


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_suite_default_tolerance(suite):
    """tol=None is the suite's own tolerance: 1e-10 for the q -> 0 suite,
    1e-8 for every other."""
    want = 1e-10 if suite == "degenerate-reduction" else 1e-8
    assert identity_check(suite, trials=1).tol == want


def test_exact_z_periodicity_component():
    rep = identity_check("Z-periodicity", trials=2, seed=0)
    ec = rep.exact_checks
    assert ec["gamma_plus_one_first_diff"] is None
    assert ec["gamma_plus_tau_ok"]


def test_report_json_shape():
    rep = identity_check("allW", trials=5, seed=3)
    js = rep.to_json()
    assert set(js) >= {"suite", "trials", "seed", "max_residual", "failures",
                       "passed"}
    assert js["suite"] == "allW" and js["trials"] == 5


@pytest.mark.parametrize("residuals", [
    [math.nan, 1e-12], [1e-12, math.nan], [1e-12, math.nan, 1e-11],
])
def test_nan_residual_fails_and_stays_in_max_residual(residuals):
    rep = IdentityReport(suite="x", trials=len(residuals), seed=0, tol=1e-8)
    for trial, residual in enumerate(residuals):
        rep.record(trial, residual, {})
    assert not rep.passed
    assert math.isnan(rep.max_residual)


def test_worst_residual_keeps_nan_in_any_position():
    from elliptica.zem import _worst

    assert math.isnan(_worst(0.1, math.nan, 0.2))
    assert math.isnan(_worst(0.1, 0.2, math.nan))
    assert _worst(0.1, 0.3, 0.2) == 0.3


def test_c_constant_guard_is_an_explicit_error():
    # (alpha, beta) = (1, 0) on one plane is not in parity case (0, 0)
    with pytest.raises(ValueError, match="parity case"):
        _c_constant_numeric((0, 0), 1, 0, 1, PARAMS)
    assert _c_constant_numeric((1, 0), 1, 0, 1, PARAMS) == 1j


# -- the split of a suite's trials over forked workers ----------------------


# the smallest share, so that three CPUs give three shares of M trials
M = zem._MIN_SHARE


def _on_cpus(monkeypatch, n):
    monkeypatch.setattr(zem, "_cpu_count", lambda: n)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("trials, cpus, sizes", [
    (1, 8, [1]), (2 * M - 1, 2, [2 * M - 1]), (2 * M, 2, [M, M]),
    (3 * M, 3, [M, M, M]), (3 * M, 8, [M, M, M]),
    (3 * M + 2, 3, [M, M + 1, M + 1]), (2000, 1, [2000]),
])
def test_shares_are_contiguous_and_not_too_small(monkeypatch, trials, cpus, sizes):
    _on_cpus(monkeypatch, cpus)
    shares = zem._shares(trials)
    assert [len(share) for share in shares] == sizes
    assert [t for share in shares for t in share] == list(range(trials))


def _verify_bytes(monkeypatch, tmp_path, cpus, *argv):
    _on_cpus(monkeypatch, cpus)
    out = tmp_path / f"verify-{cpus}.json"
    code = cli.main(["verify", *argv, "--out", str(out)])
    _assert_no_child_left()
    return code, out.read_bytes()


@pytest.mark.parametrize("tol", [[], ["--tol", "1e-14"]], ids=["default", "1e-14"])
def test_verify_report_is_the_same_on_one_share_and_three(monkeypatch, tmp_path,
                                                          capsys, tol):
    argv = ["--suite", "all", "--trials", str(3 * M), "--seed", "3", *tol]
    one = _verify_bytes(monkeypatch, tmp_path, 1, *argv)
    assert _verify_bytes(monkeypatch, tmp_path, 3, *argv) == one
    report = json.loads(one[1])
    failed = {f["trial"] for s in report["suites"] for f in s.get("failures", ())}
    if tol:  # the workers' shares deliver failures of their own
        assert one[0] == 1 and failed & set(range(M, 3 * M))
    else:
        assert one[0] == 0 and not failed


def test_verify_nan_residual_is_the_same_on_one_share_and_three(monkeypatch,
                                                                tmp_path, capsys):
    monkeypatch.setattr(zem, "_residual", lambda lhs, rhs: math.nan)
    argv = ["--suite", "K-transfer", "--trials", str(3 * M)]
    one = _verify_bytes(monkeypatch, tmp_path, 1, *argv)
    assert _verify_bytes(monkeypatch, tmp_path, 3, *argv) == one
    suite = json.loads(one[1])["suites"][0]
    assert one[0] == 1 and suite["max_residual"] == "NaN"
    assert [f["trial"] for f in suite["failures"]] == list(range(3 * M))


def test_parent_runs_only_its_own_share(monkeypatch):
    """With three shares the workers run trials M to 3M - 1: the split is
    not silently serial, and the report is the serial one."""
    ran = []
    run_trial = zem._run_trial

    def recording(suite, seed, trial, dims):
        ran.append(trial)
        return run_trial(suite, seed, trial, dims)

    monkeypatch.setattr(zem, "_run_trial", recording)
    _on_cpus(monkeypatch, 3)
    split = identity_check("allW", trials=3 * M, seed=3, tol=1e-14).to_json()
    _assert_no_child_left()
    assert ran == list(range(M))
    _on_cpus(monkeypatch, 1)
    ran.clear()
    assert identity_check("allW", trials=3 * M, seed=3, tol=1e-14).to_json() == split
    assert ran == list(range(3 * M))


@pytest.mark.parametrize("raising", [(3, 2 * M + 10), (M + 5, 2 * M + 10),
                                     (2 * M + 10, 2 * M + 20)],
                         ids=["own-share", "first-worker", "last-worker"])
def test_raising_trial_raises_as_in_one_process(monkeypatch, raising):
    """The first raising trial in trial order raises, with the serial
    message, whichever share it falls in; workers still running are killed
    and every worker is reaped."""
    run_trial = zem._run_trial

    def failing(suite, seed, trial, dims):
        if trial in raising:
            raise DegenerateDrawError(f"suite {suite}, trial {trial}: no draw")
        return run_trial(suite, seed, trial, dims)

    monkeypatch.setattr(zem, "_run_trial", failing)
    for cpus in (1, 3):
        _on_cpus(monkeypatch, cpus)
        with pytest.raises(DegenerateDrawError,
                           match=rf"^suite K-transfer, trial {raising[0]}: no draw$"):
            identity_check("K-transfer", trials=3 * M, seed=3)
        _assert_no_child_left()


def test_share_of_a_dead_worker_runs_in_the_parent(monkeypatch):
    """A worker that dies delivers nothing; its share is run here."""
    parent = os.getpid()
    run_trial = zem._run_trial

    def dying(suite, seed, trial, dims):
        if trial == M + 15 and os.getpid() != parent:
            os._exit(3)
        return run_trial(suite, seed, trial, dims)

    monkeypatch.setattr(zem, "_run_trial", dying)
    _on_cpus(monkeypatch, 3)
    split = identity_check("EM-welldef", trials=3 * M, seed=3, tol=1e-14).to_json()
    _assert_no_child_left()
    _on_cpus(monkeypatch, 1)
    assert identity_check("EM-welldef", trials=3 * M, seed=3, tol=1e-14).to_json() == split


def test_share_that_cannot_fork_runs_in_the_parent(monkeypatch):
    """Where the second fork finds no process to spare, the parent runs the
    first share and the last, and the report is the serial one."""
    ran = []
    run_trial = zem._run_trial
    forks = []
    fork = os.fork

    def recording(suite, seed, trial, dims):
        ran.append(trial)
        return run_trial(suite, seed, trial, dims)

    def fork_once():
        forks.append(None)
        if len(forks) > 1:
            raise BlockingIOError("no process to spare")
        return fork()

    monkeypatch.setattr(zem, "_run_trial", recording)
    monkeypatch.setattr(os, "fork", fork_once)
    _on_cpus(monkeypatch, 3)
    split = identity_check("spin-transfer", trials=3 * M, seed=3, tol=1e-14).to_json()
    _assert_no_child_left()
    assert ran == [*range(M), *range(2 * M, 3 * M)]
    _on_cpus(monkeypatch, 1)
    assert identity_check("spin-transfer", trials=3 * M, seed=3, tol=1e-14).to_json() == split


def test_unwinding_kills_unfinished_workers(monkeypatch):
    """A raise in the parent's own share does not wait for the workers: they
    are killed, then reaped."""
    parent = os.getpid()
    run_trial = zem._run_trial

    def slow_workers(suite, seed, trial, dims):
        if os.getpid() != parent and trial in (M, 2 * M):  # a worker's first trial
            time.sleep(30)
        elif trial == 3:
            raise DegenerateDrawError("raised in the parent's share")
        return run_trial(suite, seed, trial, dims)

    monkeypatch.setattr(zem, "_run_trial", slow_workers)
    _on_cpus(monkeypatch, 3)
    start = time.monotonic()
    with pytest.raises(DegenerateDrawError, match="parent's share"):
        identity_check("K-transfer", trials=3 * M, seed=3)
    assert time.monotonic() - start < 10
    _assert_no_child_left()


def test_interrupt_after_a_reap_leaves_that_worker_alone(monkeypatch):
    """An exception that lands after a worker is reaped but before it leaves
    the list of workers propagates as it is; the cleanup neither signals
    nor waits for the reaped pid again, and reaps the other worker."""
    waitpid, kill = os.waitpid, os.kill
    reaped, killed = [], []

    def interrupted(pid, options):
        result = waitpid(pid, options)
        if options == 0 and not reaped:
            reaped.append(pid)
            raise KeyboardInterrupt
        return result

    def recording(pid, sig):
        killed.append(pid)
        kill(pid, sig)

    monkeypatch.setattr(os, "waitpid", interrupted)
    monkeypatch.setattr(os, "kill", recording)
    _on_cpus(monkeypatch, 3)
    with pytest.raises(KeyboardInterrupt):
        identity_check("K-transfer", trials=3 * M, seed=3)
    monkeypatch.undo()
    assert len(reaped) == 1 and reaped[0] not in killed
    _assert_no_child_left()
