import json

import pytest

from elliptica.elliptic import EllipticParams, phi_numeric
from elliptica.fixedpoint import (
    CATALOG,
    DERIVED_TWISTS,
    MAX_WEIGHT,
    ManifoldValidationError,
    SpinCircleManifold,
    _sum_and_max,
    equivariant_index,
    index_numeric,
    lambda3_weights,
    linear_points,
    load_manifold,
    manifold_from_dict,
    product_points,
    rigidity_check,
    simplify_character,
    special_orders,
    sym2_weights,
    tangent_complex_weights,
    witten_index,
    witten_index_numeric,
)
from ring_reference import RF, package_value



def test_catalog_contents():
    assert sorted(CATALOG) == ["cp3", "cp3_alt", "s2", "s2xs2xs2"]
    for name in CATALOG:
        m = load_manifold(name)
        assert m.spin_parity_ok
        # every bundled datum has identically vanishing untwisted index
        assert equivariant_index(m) == RF.zero()
    assert load_manifold("s2.json").name == "s2"  # .json suffix accepted


def test_special_orders_examples():
    cp3 = load_manifold("cp3")
    orders, reps = special_orders(cp3)
    assert orders == [1, 2, 3]
    two = {str(g) for g in reps[2]}
    assert two == {"(1+0*tau)/2", "(0+1*tau)/2", "(1+1*tau)/2"}
    s2 = load_manifold("s2")
    assert special_orders(s2)[0] == [1]


def test_catalog_weight_rules():
    """Point i of CP^n has the weights x_j - x_i; a product joins one point
    of each factor, in itertools.product order."""
    assert linear_points((0, 1, 3, 7)) == [(1, 3, 7), (-1, 2, 6), (-3, -2, 4),
                                           (-7, -6, -4)]
    assert CATALOG["s2"] == [(1,), (-1,)]
    assert CATALOG["s2xs2xs2"][:3] == [(1, 2, 3), (1, 2, -3), (1, -2, 3)]
    assert product_points([(1,), (-1,)], [(5,)]) == [(1, 5), (-1, 5)]


def test_special_orders_are_closed_under_divisors():
    """A torsion point of order 3 meets the poles of a weight 9, so 3 is
    special for data whose only weights are +-9."""
    nine = SpinCircleManifold("nine", 1, [(9,), (-9,)])
    orders, reps = special_orders(nine)
    assert orders == [1, 3, 9]
    assert len(reps[3]) == 8


def test_s2_untwisted_cancellation():
    s2 = load_manifold("s2")
    assert equivariant_index(s2) == RF.zero()


def test_s2_tangent_witten_is_zero_series():
    s2 = load_manifold("s2")
    ser = witten_index(s2, 12)
    assert not any(ser.coeffs)


def test_cp3_untwisted_reduces_to_zero():
    cp3 = load_manifold("cp3")
    theta = equivariant_index(cp3)
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
    # over lead 6 one coefficient reduces to an integer; each prints in
    # lowest terms
    mixed = RF.from_laurent({0: 6, 2: 1, 5: -4}) / RF.constant(6)
    res = simplify_character(package_value(mixed))
    assert res.ok and not res.integral
    assert res.to_json()["laurent"] == {"0": "1", "2": "1/6", "5": "-2/3"}


def test_bundle_twists_integral():
    for name in CATALOG:
        m = load_manifold(name)
        for tname in DERIVED_TWISTS:
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


def _construct(data):
    """The constructor called directly with the fields of JSON ``data``."""
    return SpinCircleManifold(data.get("name"), data.get("half_dim"),
                              [raw["weights"] for raw in data["points"]],
                              data.get("twists", {}))


def _assert_refused_on_both_routes(data, path):
    """``data`` is refused at ``path`` from JSON and when built in code."""
    for build in (manifold_from_dict, _construct):
        with pytest.raises(ManifoldValidationError) as err:
            build(data)
        assert err.value.path == path, build.__name__
        assert str(err.value).startswith(f"{path}: ")


def _pair(weights=((1,), (-1,)), **fields):
    """Raw data of a manifold with one weight list per point."""
    return {"name": "x", "half_dim": len(weights[0]),
            "points": [{"weights": list(ws)} for ws in weights], **fields}


@pytest.mark.parametrize("path, data", [
    ("points[1].weights[0]", _pair(((1,), (0,)))),
    ("points[0].weights", {"name": "x", "half_dim": 2,
                           "points": [{"weights": [1]}]}),
    ("points[0].weights", {"name": "x", "half_dim": 1,
                           "points": [{"weights": "1"}]}),
    ("name", _pair(name="")),
    ("half_dim", _pair(half_dim=0)),
    ("points", {"name": "x", "half_dim": 1, "points": []}),
    ("twists.t", _pair(twists={"t": []})),
    # a float weight, and twists with the wrong number of lists or under a
    # reserved name: refused by the constructor too, not only from JSON
    ("points[0].weights[0]", _pair(((1.5, True), (-1, 1)))),
    ("twists.t", _pair(twists={"t": [[1]]})),
    ("twists.none", _pair(twists={"none": [[1], [-1]]})),
    # a twist whose lists differ in length is no bundle: its rank changes
    ("twists.t[1]", _pair(twists={"t": [[1], [2, 3]]})),
    # weights past the bound, of a point and of a stored twist
    ("points[1].weights[0]", _pair(((1,), (-MAX_WEIGHT - 1,)))),
    ("twists.t[1]", _pair(twists={"t": [[MAX_WEIGHT], [MAX_WEIGHT + 1]]})),
])
def test_schema_validation_paths(path, data):
    _assert_refused_on_both_routes(data, path)


def test_spin_parity_is_derived():
    """spin_parity_ok is no constructor argument: it follows the weights."""
    with pytest.raises(TypeError):
        SpinCircleManifold("x", 1, [(1,), (-1,)], spin_parity_ok=False)
    m = SpinCircleManifold("x", 1, [[1], [-1]])
    assert m.spin_parity_ok and m.points == [(1,), (-1,)]


def test_bundle_must_have_one_list_per_point():
    s2 = load_manifold("s2")
    for call in (lambda: equivariant_index(s2, ((1,),)),
                 lambda: index_numeric(s2, 0.1, ((1,),))):
        with pytest.raises(ManifoldValidationError) as err:
            call()
        assert err.value.path == "bundle"


def test_twist_weights_derivation():
    ws = (1, 2, 3)
    tc = tangent_complex_weights(ws)
    assert sorted(tc) == [-3, -2, -1, 1, 2, 3]
    assert len(sym2_weights(tc)) == 21
    assert len(lambda3_weights(tc)) == 20
    cp3 = load_manifold("cp3")
    assert cp3.twists == {}
    # the lists that cp3.json stored for its point 0 before they were derived
    assert sorted(cp3.bundle_twist("s2t")[0]) == [
        -6, -5, -4, -4, -3, -2, -2, -1, -1, 0, 0, 0, 1, 1, 2, 2, 3, 4, 4, 5, 6
    ]
    assert sorted(cp3.bundle_twist("lambda3t")[0]) == [
        -6, -4, -3, -3, -2, -2, -2, -1, -1, 0, 0, 1, 1, 2, 2, 2, 3, 3, 4, 6
    ]


def test_stored_twist_comes_before_the_derived_rule():
    # the constructor refuses a stored list under a derived name, so it is
    # set afterwards
    m = SpinCircleManifold("m", 1, [(1,), (-1,)])
    m.twists = {"s2t": ((5,), (7,))}
    assert m.bundle_twist("s2t") == ((5,), (7,))
    m.twists = {"w": ((1,), (-1,))}
    assert m.bundle_twist("s2t") == ((2, 0, -2), (-2, 0, 2))
    with pytest.raises(KeyError) as err:
        m.bundle_twist("nosuch")
    assert "stored: ['w'], derived: ['lambda3t', 's2t']" in str(err.value)


@pytest.mark.parametrize("tname", ["none", "tangent_witten", *DERIVED_TWISTS])
def test_stored_twist_may_not_take_a_reserved_name(tname):
    _assert_refused_on_both_routes(_pair(twists={tname: [[1], [-1]]}),
                                   f"twists.{tname}")


def test_exact_numeric_index_agreement():
    import cmath

    cp3 = load_manifold("cp3")
    tau = 0.2 + 1.3j  # |p|^17 ~ 6e-16: the truncation tail is negligible
    z = 0.17 + 0.05j
    ser = witten_index(cp3, 16)
    num, max_term = witten_index_numeric(cp3, EllipticParams(tau=tau), z)
    s0 = cmath.exp(1j * cmath.pi * z)
    p0 = cmath.exp(0.5j * cmath.pi * tau)
    # both sides cancel to ~0; compare against the size of one contribution
    probe = 1.0
    for a in cp3.points[0]:
        probe *= phi_numeric(1, EllipticParams(tau=tau), a * z)
    assert abs(ser.evaluate(s0, p0) - num) < 1e-9 * abs(probe)
    assert max_term >= abs(probe)


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
    assert equivariant_index(m) == RF.zero()
    with pytest.raises(FileNotFoundError):
        load_manifold("does_not_exist")


def test_catalog_name_is_not_shadowed_by_a_file(tmp_path, monkeypatch):
    """A file named like a catalog entry in the working directory is read
    only through a path that is not the bare name."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cp3").write_text(json.dumps(
        {"name": "nine", "half_dim": 1,
         "points": [{"weights": [9]}, {"weights": [-9]}]}))
    assert load_manifold("cp3").points == CATALOG["cp3"]
    assert load_manifold("./cp3").name == "nine"


@pytest.mark.parametrize("path, data", [
    ("half_dim", {"name": "x", "half_dim": True,
                  "points": [{"weights": [1]}]}),
    ("points[0].weights[0]", {"name": "x", "half_dim": 3,
                              "points": [{"weights": [True, 2, 3]}]}),
    ("twists.t[1]", {"name": "x", "half_dim": 1,
                     "points": [{"weights": [1]}, {"weights": [-1]}],
                     "twists": {"t": [[1], [False]]}}),
    ("points[1].weights[1]", _pair(((1, 2), (-1, True)))),
    ("twists.t[0]", _pair(twists={"t": [[1.0], [-1]]})),
])
def test_schema_rejects_json_booleans(path, data):
    """Booleans, and floats, are refused where integers belong."""
    _assert_refused_on_both_routes(data, path)


@pytest.mark.parametrize("call", [
    lambda z: phi_numeric(1, EllipticParams(tau=0.5j), z),
    lambda z: witten_index_numeric(load_manifold("cp3"), EllipticParams(tau=1j), z),
    lambda z: index_numeric(load_manifold("s2"), z),
    lambda z: index_numeric(load_manifold("s2"), -z),
], ids=["phi_numeric", "witten_index_numeric", "index_numeric", "index_numeric-below"])
def test_point_too_far_from_the_real_axis_is_named(call):
    """Where Im z / Im tau counts no periods, or e^{i pi a z} underflows or
    overflows, the error names z, not a NaN or a 300-digit period count."""
    with pytest.raises(OverflowError, match="is too far from the real axis") as err:
        call(0.3 + 1e308j)
    assert "1e+308j" in str(err.value) and len(str(err.value)) < 200


@pytest.mark.parametrize("terms", [[float("nan"), 1.0], [1.0, complex("nan")],
                                   [float("inf"), 1.0], [1e308, 1e308]],
                         ids=["nan-first", "nan-last", "inf", "sum-overflows"])
def test_sum_that_leaves_the_floats_is_refused(terms):
    """A NaN term, which max would drop where it is not first, an infinite
    term, and finite terms whose sum overflows: each raises, naming z."""
    with pytest.raises(OverflowError, match=r"at z = 0\.5"):
        _sum_and_max(terms, 0.5)
    assert _sum_and_max([1.0, -3j], 0.5) == (1 - 3j, 3.0)
