import cmath
import math
import random

import pytest

from elliptica.spinchar import (
    AngleOnLatticeError,
    CyclicAction,
    RotationData,
    SpinCharError,
    SupertraceZeroError,
    chi,
    epsilon_J,
    os_sign,
    spinor_trace,
    v_sign,
)
from numeric_reference import BranchPointError, j_factor, pfaffian
from ring_reference import RF
from series_reference import spinor_trace_exact



def test_str_two_dim_spin_element():
    # a Spin element with parameter theta has supertrace e^{-i th} - e^{i th}
    theta = 0.83
    got = spinor_trace("str", RotationData((2 * theta,)))
    want = cmath.exp(-1j * theta) - cmath.exp(1j * theta)
    assert abs(got - want) < 1e-14
    got_tr = spinor_trace("tr", RotationData((2 * theta,)))
    assert abs(got_tr - (cmath.exp(-1j * theta) + cmath.exp(1j * theta))) < 1e-14


def test_zero_space_traces():
    empty = RotationData()
    assert spinor_trace("str", empty) == 1
    assert spinor_trace("tr", empty) == 1
    assert chi(None, empty) == 1
    assert pfaffian(empty) == 1
    assert j_factor(empty) == 1
    assert epsilon_J(empty) == 1
    assert os_sign(empty) == 1
    assert v_sign(CyclicAction(3, ())) == 1


def test_exact_str_rotation_number_one():
    got = spinor_trace_exact("str", RotationData((1,)))
    assert got == RF.from_laurent({-1: 1, 1: -1})
    got_tr = spinor_trace_exact("tr", RotationData((2,)))
    assert got_tr == RF.from_laurent({-2: 1, 2: 1})


def test_chi_examples():
    phi = 1.21
    got = chi(None, RotationData((phi,)))
    assert abs(got - 1j / (2 * math.sin(phi / 2))) < 1e-14
    theta = 0.64
    got = chi(RotationData((theta,)), RotationData((0.0,)))
    assert abs(got - 1.0 / (cmath.exp(-1j * theta) - cmath.exp(1j * theta))) < 1e-14


def test_chi_specializes_at_identity():
    rng = random.Random(2)
    for _ in range(20):
        n = rng.randint(1, 4)
        angles = tuple(rng.uniform(0.2, 2.8) for _ in range(n))
        r = RotationData(angles, 1 if rng.random() < 0.5 else -1)
        g1 = RotationData((0.0,) * n, 1)
        assert abs(chi(None, r) - chi(g1, r)) < 1e-13 * abs(chi(None, r))


def test_chi_pole_detection():
    with pytest.raises(SupertraceZeroError):
        chi(None, RotationData((0.0,)))


def test_j_factor_examples():
    phi = 0.77
    assert abs(j_factor(RotationData((phi,))) - phi / (2 * math.sin(phi / 2))) < 1e-14
    assert j_factor(RotationData((0.0, 0.0))) == 1
    with pytest.raises(BranchPointError):
        j_factor(RotationData((2 * math.pi,)))


def test_jchi_identity_2d():
    # j^{-1/2} det^{-1/2} = (-i) chi in two dimensions: both reduce to
    # 1/(2 sin(phi/2))
    phi = 1.37
    lhs = j_factor(RotationData((phi,))) / pfaffian(RotationData((phi,)))
    rhs = -1j * chi(None, RotationData((phi,)))
    assert abs(lhs - rhs) < 1e-14
    assert abs(lhs - 1.0 / (2 * math.sin(phi / 2))) < 1e-14


def test_pfaffian():
    assert pfaffian(RotationData((0.4,))) == 0.4
    assert pfaffian(RotationData((0.0, 1.0))) == 0
    assert pfaffian(RotationData((0.4,), -1)) == -0.4


def test_epsilon_examples():
    assert epsilon_J(RotationData((1,))) == -1
    assert epsilon_J(RotationData((2,))) == 1
    assert epsilon_J(RotationData((1, 3))) == epsilon_J(RotationData((-1, 3))) == 1
    with pytest.raises(SpinCharError):
        epsilon_J(RotationData((0, 1)))


def test_os_sign_examples():
    assert os_sign(RotationData((math.pi / 2,))) == 1
    assert os_sign(RotationData((3 * math.pi,))) == -1
    with pytest.raises(AngleOnLatticeError):
        os_sign(RotationData((2 * math.pi,)))


def test_os_sign_matches_pfaffian_for_small_data():
    rng = random.Random(4)
    for _ in range(30):
        n = rng.randint(1, 4)
        angles = tuple(rng.choice([1, -1]) * rng.uniform(0.05, 1.2) for _ in range(n))
        sig = 1 if rng.random() < 0.5 else -1
        y = RotationData(angles, sig)
        pf = pfaffian(y).real
        assert os_sign(y) == (1 if pf > 0 else -1)


def test_v_sign_examples():
    assert v_sign(CyclicAction(3, (1,))) == -1
    assert v_sign(CyclicAction(4, (2,))) == 1
    assert v_sign(CyclicAction(2, (1, 1))) == 1
    with pytest.raises(SpinCharError):
        v_sign(CyclicAction(3, (0,)))


def test_recoding_invariance():
    rng = random.Random(9)
    for _ in range(30):
        n = rng.randint(1, 4)
        angles = tuple(complex(rng.uniform(0.2, 2.8), rng.uniform(-0.1, 0.1))
                       for _ in range(n))
        sig = 1 if rng.random() < 0.5 else -1
        r = RotationData(angles, sig)
        j = rng.randrange(n)
        # flip entry j and the orientation: the same oriented space
        flipped = RotationData(
            tuple(-a if m == j else a for m, a in enumerate(angles)), -sig)
        assert abs(spinor_trace("str", r) - spinor_trace("str", flipped)) < 1e-13
        assert abs(spinor_trace("tr", r) - spinor_trace("tr", flipped)) < 1e-13
        assert abs(pfaffian(r) - pfaffian(flipped)) < 1e-13
        ints = RotationData(tuple(rng.choice([1, 2, 3]) for _ in range(n)), sig)
        k = rng.randrange(n)
        flipped = RotationData(
            tuple(-a if m == k else a for m, a in enumerate(ints.entries)), -sig)
        assert epsilon_J(ints) == epsilon_J(flipped)


def test_supertrace_multiplicativity():
    rng = random.Random(12)
    for _ in range(30):
        r1 = RotationData(
            tuple(rng.uniform(0.2, 2.8) for _ in range(rng.randint(1, 3))),
            1 if rng.random() < 0.5 else -1,
        )
        r2 = RotationData(
            tuple(rng.uniform(0.2, 2.8) for _ in range(rng.randint(1, 3))),
            1 if rng.random() < 0.5 else -1,
        )
        lhs = spinor_trace("str", RotationData(
            r1.entries + r2.entries, r1.orientation_sign * r2.orientation_sign))
        rhs = spinor_trace("str", r1) * spinor_trace("str", r2)
        assert abs(lhs - rhs) < 1e-13 * max(1.0, abs(rhs))


def test_jchi_random_draws():
    rng = random.Random(21)
    for _ in range(200):
        n = rng.randint(1, 5)  # dim N <= 10
        angles = tuple(complex(rng.uniform(0.1, 3.0), rng.uniform(-0.2, 0.2))
                       for _ in range(n))
        sig = 1 if rng.random() < 0.5 else -1
        r = RotationData(angles, sig)
        lhs = j_factor(r) / pfaffian(r)
        rhs = (-1j) ** n * chi(None, r)
        assert abs(lhs - rhs) / max(abs(rhs), 1e-30) < 1e-10


def test_jeul_random_draws():
    rng = random.Random(22)
    for _ in range(200):
        n = rng.randint(1, 5)
        y = [complex(rng.uniform(0.1, 1.4), rng.uniform(-0.1, 0.1)) for _ in range(n)]
        r = [complex(rng.uniform(0.1, 1.4), rng.uniform(-0.1, 0.1)) for _ in range(n)]
        sig = 1 if rng.random() < 0.5 else -1
        combined = RotationData(tuple(yj + rj for yj, rj in zip(y, r)), sig)
        lhs = j_factor(combined) / pfaffian(combined)
        g = RotationData(tuple(yj / 2 for yj in y), 1)
        rhs = (-1j) ** n * chi(g, RotationData(tuple(r), sig))
        assert abs(lhs - rhs) / max(abs(rhs), 1e-30) < 1e-10


def test_orientation_validation():
    with pytest.raises(SpinCharError):
        RotationData((1.0,), 2)
    with pytest.raises(SpinCharError):
        RotationData((), -1)
