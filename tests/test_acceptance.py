"""Acceptance gate: one test per criterion, at the stated tolerance and
runtime budget.  Run with -v for one line per criterion (or -s for the
explicit PASS lines printed at the end of each test)."""

import json
import random
import time

from elliptica import elliptic
from elliptica.cli import main as cli_main
from elliptica.elliptic import TRANSLATIONS, phi_translate_check
from elliptica.fixedpoint import (
    equivariant_index,
    load_manifold,
    manifold_from_dict,
    rigidity_check,
    simplify_character,
    witten_index,
)
from elliptica.spinchar import RotationData, chi
from elliptica.zem import identity_check
from numeric_reference import j_factor, pfaffian
from ring_reference import RF, package_value


def _fresh_caches():
    elliptic.phi_exact.cache_clear()


def test_criterion_1_exact_translation_identities_p80():
    _fresh_caches()
    start = time.time()
    reports = [phi_translate_check(which, 80) for which in TRANSLATIONS]
    elapsed = time.time() - start
    for rep in reports:
        assert rep.passed, (rep.which, rep.first_failing_exponent)
        assert rep.truncation_order == 80
    assert elapsed < 10.0, f"translation checks took {elapsed:.1f}s"
    print(f"\n[criterion 1] PASS all five translation identities exact "
          f"through p^80 in {elapsed:.1f}s")


def test_criterion_2_sign_and_character_identities():
    start = time.time()
    rng = random.Random(20260810)
    # j / Pfaffian vs chi, untwisted and twisted, 200 draws each, dim <= 10
    for _ in range(200):
        n = rng.randint(1, 5)
        sig = 1 if rng.random() < 0.5 else -1
        angles = tuple(
            complex(rng.uniform(0.1, 3.0), rng.uniform(-0.2, 0.2))
            for _ in range(n)
        )
        r = RotationData(angles, sig)
        lhs = j_factor(r) / pfaffian(r)
        rhs = (-1j) ** n * chi(None, r)
        assert abs(lhs - rhs) / max(abs(rhs), 1e-30) < 1e-10
        y = tuple(
            complex(rng.uniform(0.1, 1.4), rng.uniform(-0.1, 0.1))
            for _ in range(n)
        )
        rr = tuple(
            complex(rng.uniform(0.1, 1.4), rng.uniform(-0.1, 0.1))
            for _ in range(n)
        )
        combined = RotationData(tuple(a + b for a, b in zip(y, rr)), sig)
        lhs = j_factor(combined) / pfaffian(combined)
        g = tuple(a / 2 for a in y)
        rhs = (-1j) ** n * chi(g, RotationData(rr, sig))
        assert abs(lhs - rhs) / max(abs(rhs), 1e-30) < 1e-10
    rep = identity_check("K-transfer", trials=100, dims=8, seed=7, tol=1e-9)
    assert rep.passed, rep.failures[:1]
    elapsed = time.time() - start
    assert elapsed < 10.0, f"sign identities took {elapsed:.1f}s"
    print(f"\n[criterion 2] PASS j/Pfaffian/chi identities (200 draws, "
          f"dim<=10, 1e-10) and transfer multiplicativity (100 draws, 1e-9) "
          f"in {elapsed:.1f}s")


def test_criterion_3_elliptic_identity_suites():
    start = time.time()
    suites = (
        "Z-periodicity",
        "order-k-trivial",
        "allW",
        "EM-welldef",
        "elliptic-transfer",
        "spin-transfer",
        "spin-periodicity",
    )
    for suite in suites:
        rep = identity_check(suite, trials=100, dims=8, seed=7, tol=1e-8)
        assert rep.passed, (suite, rep.failures[:1])
        assert rep.max_residual < 1e-8
        if rep.exact_checks is not None:
            assert rep.exact_checks["passed"], (suite, rep.exact_checks)
    elapsed = time.time() - start
    assert elapsed < 60.0, f"identity suites took {elapsed:.1f}s"
    print(f"\n[criterion 3] PASS seven elliptic suites, 100 draws each at "
          f"1e-8, in {elapsed:.1f}s")


def test_criterion_4_degenerate_reduction_to_chi():
    rep = identity_check("degenerate-reduction", trials=100, dims=8, seed=7,
                         tol=1e-10)
    assert rep.passed, rep.failures[:1]
    assert rep.max_residual < 1e-10
    print("\n[criterion 4] PASS q->0 constant term of 100 transfer draws "
          "matches the reciprocal-supertrace machinery at 1e-10")


def test_criterion_5_fixed_point_indices():
    start = time.time()
    s2 = load_manifold("s2")
    assert equivariant_index(s2) == RF.zero()
    ser = witten_index(s2, 8)
    assert not any(ser.coeffs)
    cp3 = load_manifold("cp3")
    theta = equivariant_index(cp3)
    assert theta == RF.zero()
    for name in ("cp3", "cp3_alt"):
        m = load_manifold(name)
        for tname in ("s2t", "lambda3t"):
            res = simplify_character(
                equivariant_index(m, m.bundle_twist(tname))
            )
            assert res.ok and res.integral, (name, tname)
    elapsed = time.time() - start
    assert elapsed < 5.0, f"index computations took {elapsed:.1f}s"
    print(f"\n[criterion 5] PASS S2/CP3 indices exactly zero, bundle twists "
          f"integral Laurent characters, in {elapsed:.1f}s")


def test_criterion_6_witten_rigidity_desk_scale():
    start = time.time()
    rep = rigidity_check(load_manifold("cp3"), 8)
    assert rep.rigid, rep.nonconstant_orders
    # regression: every coefficient through q^2 is the constant 0
    assert rep.constants == ["0"] * 9
    rep_alt = rigidity_check(load_manifold("cp3_alt"), 8)
    assert rep_alt.rigid and rep_alt.constants == ["0"] * 9
    # the split of the q^{3/2} twist: individually nonconstant, sum constant
    m = load_manifold("cp3_alt")
    s2t = RF.of(equivariant_index(m, m.bundle_twist("s2t")))
    l3t = equivariant_index(m, m.bundle_twist("lambda3t"))
    assert not s2t.is_constant() and not l3t.is_constant()
    total = s2t + l3t
    assert total.is_constant()
    # frozen regression values from the first exact computation
    assert simplify_character(package_value(s2t)).laurent == {
        -17: 1, -11: -1, -7: -1, -1: 1, 1: -1, 7: 1, 11: 1, 17: -1
    }
    assert simplify_character(package_value(total)).laurent == {}
    elapsed = time.time() - start
    assert elapsed < 120.0, f"rigidity took {elapsed:.1f}s"
    print(f"\n[criterion 6] PASS tangent-Witten series constant per "
          f"coefficient through q^2; split twists nonconstant with constant "
          f"sum, in {elapsed:.1f}s")


def test_criterion_7_negative_control():
    broken = manifold_from_dict({
        "name": "cp3_flipped",
        "half_dim": 3,
        "points": [
            {"weights": [-1, 2, 3]},
            {"weights": [-1, 1, 2]},
            {"weights": [-2, -1, 1]},
            {"weights": [-3, -2, -1]},
        ],
        "twists": {},
    })
    rep = rigidity_check(broken, 4)
    assert not rep.rigid
    assert any(k <= 4 for k in rep.nonconstant_orders)
    print("\n[criterion 7] PASS flipped-weight data detected as non-rigid "
          f"(nonconstant at p-orders {rep.nonconstant_orders})")


def test_criterion_8_deterministic_reports(tmp_path, capsys):
    # the verbatim invocation, with the default 100 trials and order 80
    args = ["verify", "--suite", "all", "--seed", "7"]
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    code1 = cli_main(args + ["--out", str(out1)])
    code2 = cli_main(args + ["--out", str(out2)])
    capsys.readouterr()
    assert code1 == 0 and code2 == 0
    b1 = out1.read_bytes()
    b2 = out2.read_bytes()
    assert b1 == b2
    data = json.loads(b1)
    assert data["passed"] is True
    assert {s["suite"] for s in data["suites"]} == {
        "translations", "K-transfer", "Z-periodicity", "order-k-trivial",
        "allW", "EM-welldef", "elliptic-transfer", "spin-transfer",
        "spin-periodicity", "degenerate-reduction",
    }
    print("\n[criterion 8] PASS two seed-7 verify runs produced "
          "byte-identical JSON reports")
