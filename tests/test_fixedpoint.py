import json
import math

import pytest

from elliptica import fixedpoint
from elliptica.elliptic import EllipticParams, PoleError
from elliptica.fixedpoint import (
    ManifoldValidationError,
    SpecialPointError,
    TwistSpec,
    consistency_check,
    equivariant_index,
    index_numeric,
    lambda3_weights,
    list_catalog,
    load_manifold,
    manifold_from_dict,
    rigidity_check,
    simplify_character,
    special_orders,
    sym2_weights,
    tangent_complex_weights,
)
from elliptica.ring import PoleEvaluationError
from elliptica.witten import WittenDenominatorError
from elliptica.zem import LatticeElement, SpecialCollisionError
from ring_reference import RF, package_value



def test_catalog_contents():
    assert list_catalog() == ["cp3", "cp3_alt", "s2", "s2xs2xs2"]
    for name in list_catalog():
        m = load_manifold(name)
        assert m.spin_parity_ok
        # every bundled datum has identically vanishing untwisted index
        assert equivariant_index(m, TwistSpec("none")) == RF.zero()
    assert load_manifold("s2.json").name == "s2"  # .json suffix accepted


def test_special_orders_examples():
    cp3 = load_manifold("cp3")
    orders, reps = special_orders(cp3)
    assert orders == [1, 2, 3]
    two = {str(g) for g in reps[2]}
    assert two == {"(1+0*tau)/2", "(0+1*tau)/2", "(1+1*tau)/2"}
    s2 = load_manifold("s2")
    assert special_orders(s2)[0] == [1]


def test_s2_untwisted_cancellation():
    s2 = load_manifold("s2")
    assert equivariant_index(s2, TwistSpec("none")) == RF.zero()


def test_s2_tangent_witten_is_zero_series():
    s2 = load_manifold("s2")
    ser = equivariant_index(s2, TwistSpec("tangent_witten"), 12)
    assert not any(ser.coeffs)


def test_cp3_untwisted_reduces_to_zero():
    cp3 = load_manifold("cp3")
    theta = equivariant_index(cp3, TwistSpec("none"))
    assert theta == RF.zero()
    res = simplify_character(theta)
    assert res.ok and res.integral and res.laurent == {}


def test_simplify_character_examples():
    assert simplify_character(package_value(RF.zero())).laurent == {}
    f = RF.from_laurent({4: 1, -4: -1}) / RF.from_laurent({1: 1, -1: -1})
    res = simplify_character(package_value(f))
    assert res.ok and res.integral
    assert res.laurent == {3: 1, 1: 1, -1: 1, -3: 1}
    bad = RF.one() / (RF.one() - RF.var())
    res = simplify_character(package_value(bad))
    assert not res.ok and res.residual_denominator == "1-s"
    # a Laurent polynomial with a coefficient that is not an integer
    half = RF.from_laurent({-1: 1, 3: -3}) / RF.constant(6)
    res = simplify_character(package_value(half))
    assert res.ok and not res.integral
    assert res.to_json()["laurent"] == {"-1": "1/6", "3": "-1/2"}


def test_bundle_twists_integral():
    for name in ("cp3", "cp3_alt"):
        m = load_manifold(name)
        for tname in ("s2t", "lambda3t"):
            theta = equivariant_index(m, m.bundle_twist(tname))
            res = simplify_character(theta)
            assert res.ok and res.integral, (name, tname)


def test_split_twist_claim_on_generic_parameters():
    # individually nonconstant, sum constant
    m = load_manifold("cp3_alt")
    s2t = RF.of(equivariant_index(m, m.bundle_twist("s2t")))
    l3t = equivariant_index(m, m.bundle_twist("lambda3t"))
    assert not s2t.is_constant()
    assert not l3t.is_constant()
    assert (s2t + l3t).is_constant()
    # frozen regression values from the first exact computation
    assert simplify_character(package_value(s2t)).laurent == {
        -17: 1, -11: -1, -7: -1, -1: 1, 1: -1, 7: 1, 11: 1, 17: -1
    }
    assert simplify_character(l3t).laurent == {
        -17: -1, -11: 1, -7: 1, -1: -1, 1: 1, 7: -1, 11: -1, 17: 1
    }


def test_rigidity_catalog_through_q2():
    for name in ("s2", "cp3", "cp3_alt", "s2xs2xs2"):
        rep = rigidity_check(load_manifold(name), 8)
        assert rep.rigid, (name, rep.nonconstant_orders)
        assert rep.constants[0] == "0"  # untwisted value is the q^0 term


FLIPPED_CP3 = {
    "name": "cp3_flipped",
    "half_dim": 3,
    "points": [
        {"weights": [-1, 2, 3]},
        {"weights": [-1, 1, 2]},
        {"weights": [-2, -1, 1]},
        {"weights": [-3, -2, -1]},
    ],
    "twists": {},
}


@pytest.mark.parametrize("name", ["s2", "cp3", "cp3_alt", "s2xs2xs2"])
def test_rigidity_catalog_through_q_order_80(name):
    rep = rigidity_check(load_manifold(name), 80)
    assert rep.rigid, (name, rep.nonconstant_orders)
    assert rep.constants == ["0"] * 81


def _hp2(x):
    """HP^2 under a circle in the maximal torus with parameters x: at point
    i, the weights x_j - x_i and x_j + x_i for j != i."""
    return manifold_from_dict({
        "name": "hp2",
        "half_dim": 4,
        "points": [{"weights": [w for j in range(3) if j != i
                                for w in (x[j] - x[i], x[j] + x[i])]}
                   for i in range(3)],
        "twists": {},
    })


def test_rigidity_nonzero_constant_hp2():
    """A rigid manifold whose tangent-Witten constants are not all "0", as
    every catalog entry's are, so that printing divides a nonzero
    numerator by ``lead``.  The constants are pinned as computed, not
    derived from the signature."""
    rep = rigidity_check(_hp2((1, 2, 4)), 8)
    assert rep.rigid, rep.nonconstant_orders
    assert rep.constants == ["0", "0", "-1", "0", "0", "0", "0", "0", "0"]


def test_negative_control_at_q_order_80():
    rep = rigidity_check(manifold_from_dict(FLIPPED_CP3), 80)
    assert not rep.rigid
    assert rep.nonconstant_orders[:3] == [0, 2, 4]


def test_negative_control_detects_flipped_weight():
    raw = {
        "name": "cp3_broken",
        "half_dim": 3,
        "points": [
            {"weights": [-1, 2, 3]},
            {"weights": [-1, 1, 2]},
            {"weights": [-2, -1, 1]},
            {"weights": [-3, -2, -1]},
        ],
        "twists": {},
    }
    broken = manifold_from_dict(raw)
    rep = rigidity_check(broken, 4)
    assert not rep.rigid
    assert any(k <= 4 for k in rep.nonconstant_orders)


def test_spin_parity_flagged_not_fatal():
    raw = {
        "name": "mixed",
        "half_dim": 1,
        "points": [{"weights": [1]}, {"weights": [2]}],
        "twists": {},
    }
    with pytest.warns(UserWarning):
        m = manifold_from_dict(raw)
    assert not m.spin_parity_ok


def test_schema_validation_paths():
    with pytest.raises(ManifoldValidationError) as err:
        manifold_from_dict({
            "name": "x", "half_dim": 1,
            "points": [{"weights": [1]}, {"weights": [0]}],
        })
    assert str(err.value) == "points[1].weights[0]: zero weight"
    with pytest.raises(ManifoldValidationError) as err:
        manifold_from_dict({"name": "x", "half_dim": 2,
                            "points": [{"weights": [1]}]})
    assert "points[0].weights" in str(err.value)
    with pytest.raises(ManifoldValidationError):
        manifold_from_dict({"name": "", "half_dim": 1,
                            "points": [{"weights": [1]}]})
    with pytest.raises(ManifoldValidationError) as err:
        manifold_from_dict({
            "name": "x", "half_dim": 1,
            "points": [{"weights": [1]}],
            "twists": {"t": []},
        })
    assert "twists.t" in str(err.value)


def test_twist_weights_derivation():
    ws = (1, 2, 3)
    tc = tangent_complex_weights(ws)
    assert sorted(tc) == [-3, -2, -1, 1, 2, 3]
    assert len(sym2_weights(tc)) == 21
    assert len(lambda3_weights(tc)) == 20
    cp3 = load_manifold("cp3")
    assert sorted(cp3.twists["s2t"][0]) == sorted(sym2_weights(tc))
    assert sorted(cp3.twists["lambda3t"][0]) == sorted(lambda3_weights(tc))


def test_exact_numeric_index_agreement():
    import cmath

    cp3 = load_manifold("cp3")
    tau = 0.2 + 1.3j  # |p|^17 ~ 6e-16: the truncation tail is negligible
    z = 0.17 + 0.05j
    ser = equivariant_index(cp3, TwistSpec("tangent_witten"), 16)
    num = index_numeric(
        cp3, TwistSpec("tangent_witten"), EllipticParams(tau=tau), z
    )
    s0 = cmath.exp(1j * cmath.pi * z)
    p0 = cmath.exp(0.5j * cmath.pi * tau)
    # both sides cancel to ~0; compare against the size of one contribution
    probe = 1.0
    from elliptica.elliptic import phi_numeric

    for a in cp3.points[0].weights:
        probe *= phi_numeric(1, EllipticParams(tau=tau), a * z)
    assert abs(ser.evaluate(s0, p0) - num) < 1e-9 * abs(probe)


def test_consistency_check_nonspecial():
    cp3 = load_manifold("cp3")
    rep = consistency_check(
        cp3, LatticeElement.torsion(1, 1, 5), EllipticParams(tau=0.2 + 1.1j),
        trials=10,
    )
    assert rep.passed and rep.max_residual < 1e-9
    s2 = load_manifold("s2")
    rep = consistency_check(
        s2, LatticeElement.torsion(1, 1, 2), EllipticParams(tau=1j), trials=10
    )
    assert rep.passed


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_consistency_check_rejects_vacuous_tol(tol):
    with pytest.raises(ValueError, match="tol must be finite"):
        consistency_check(
            load_manifold("cp3"), LatticeElement.torsion(1, 1, 5),
            EllipticParams(tau=1j), trials=2, tol=tol,
        )


@pytest.mark.parametrize("trials", [0, -3])
def test_consistency_check_rejects_no_trials(trials):
    with pytest.raises(ValueError, match="trials must be >= 1"):
        consistency_check(
            load_manifold("cp3"), LatticeElement.torsion(1, 1, 5),
            EllipticParams(tau=0.2 + 1.1j), trials=trials,
        )


def test_consistency_check_rejects_special():
    cp3 = load_manifold("cp3")
    with pytest.raises(SpecialPointError) as err:
        consistency_check(
            cp3, LatticeElement.torsion(1, 0, 2), EllipticParams(tau=1j)
        )
    assert "zem" in str(err.value)


def test_load_manifold_from_path(tmp_path):
    data = {
        "name": "custom", "half_dim": 1,
        "points": [{"weights": [2]}, {"weights": [-2]}],
        "twists": {},
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data))
    m = load_manifold(str(path))
    assert m.name == "custom"
    assert equivariant_index(m, TwistSpec("none")) == RF.zero()
    with pytest.raises(FileNotFoundError):
        load_manifold("does_not_exist")


@pytest.mark.parametrize("path, data", [
    ("half_dim", {"name": "x", "half_dim": True,
                  "points": [{"weights": [1]}]}),
    ("points[0].weights[0]", {"name": "x", "half_dim": 3,
                              "points": [{"weights": [True, 2, 3]}]}),
    ("twists.t[1]", {"name": "x", "half_dim": 1,
                     "points": [{"weights": [1]}, {"weights": [-1]}],
                     "twists": {"t": [[1], [False]]}}),
])
def test_schema_rejects_json_booleans(path, data):
    with pytest.raises(ManifoldValidationError) as err:
        manifold_from_dict(data)
    assert err.value.path == path


def _cp3_consistency(trials=4):
    return consistency_check(
        load_manifold("cp3"), LatticeElement.torsion(1, 1, 5),
        EllipticParams(tau=0.2 + 1.1j), trials=trials,
    )


def test_consistency_check_nan_residual_fails(monkeypatch):
    real = fixedpoint.index_numeric
    calls = []

    def one_nan(*args, **kwargs):
        calls.append(None)
        value = real(*args, **kwargs)
        return complex("nan") if len(calls) == 2 else value

    monkeypatch.setattr(fixedpoint, "index_numeric", one_nan)
    rep = _cp3_consistency()
    assert not rep.passed
    assert math.isnan(rep.max_residual)


class _Bug(ValueError):
    pass


def test_consistency_check_surfaces_bugs(monkeypatch):
    def broken(*args, **kwargs):
        raise _Bug("not a degenerate draw")

    monkeypatch.setattr(fixedpoint, "z_fun", broken)
    with pytest.raises(_Bug):
        _cp3_consistency()


@pytest.mark.parametrize("error", [
    PoleError("pole", 0.0),
    SpecialCollisionError("collision", 1),
    WittenDenominatorError("denominator", 1),
    PoleEvaluationError("pole", 0.0),
    ZeroDivisionError("zero"),
])
def test_consistency_check_retries_degenerate_draws(monkeypatch, error):
    real = fixedpoint.z_fun
    calls = []

    def fails_once(*args, **kwargs):
        calls.append(None)
        if len(calls) == 1:
            raise error
        return real(*args, **kwargs)

    monkeypatch.setattr(fixedpoint, "z_fun", fails_once)
    rep = _cp3_consistency()
    assert rep.passed and rep.trials == 4
