import cmath
import json
import math
import subprocess
import sys

import pytest

from elliptica import cli, zem
from elliptica.cli import _emit, main
from elliptica.fixedpoint import CATALOG, MAX_WEIGHT
from elliptica.witten import WittenDenominatorError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand_phi1_low_order(capsys):
    code, out, _ = run_cli(capsys, "expand", "--phi", "1", "--q-order", "2")
    assert code == 0
    data = json.loads(out)
    assert data["series"]["coeffs"][0] == "s/(1-s^2)"
    assert data["series"]["truncation_order"] == 2


def test_index_s2_untwisted(capsys):
    code, out, _ = run_cli(capsys, "index", "--manifold", "s2",
                           "--twist", "none")
    assert code == 0
    data = json.loads(out)
    assert data["character"] == "0"
    assert data["simplified"]["ok"] and data["simplified"]["integral"]


def test_index_with_numeric_evaluation(capsys):
    code, out, _ = run_cli(capsys, "index", "--manifold", "cp3",
                           "--twist", "tangent_witten", "--q-order", "8",
                           "--at", "0.2", "--tau", "1j")
    assert code == 0
    data = json.loads(out)
    assert all(c == "0" for c in data["series"]["coeffs"])


def test_index_schema_violation_exit_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({
        "name": "broken", "half_dim": 1,
        "points": [{"weights": [1]}, {"weights": [0]}],
    }))
    code, out, err = run_cli(capsys, "index", "--manifold", str(path))
    assert code == 2
    assert "points[1].weights[0]: zero weight" in err


def test_unknown_suite_exit_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "nosuch")
    assert code == 2
    assert "unknown suite" in err


def test_special_command(capsys):
    code, out, _ = run_cli(capsys, "special", "--manifold", "cp3")
    assert code == 0
    data = json.loads(out)
    assert data["orders"] == [1, 2, 3]


def test_rigidity_command_and_negative_control(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "rigidity", "--manifold", "cp3",
                           "--q-order", "8")
    assert code == 0
    data = json.loads(out)
    assert data["rigid"] is True
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({
        "name": "broken", "half_dim": 3,
        "points": [
            {"weights": [-1, 2, 3]},
            {"weights": [-1, 1, 2]},
            {"weights": [-2, -1, 1]},
            {"weights": [-3, -2, -1]},
        ],
    }))
    code, out, _ = run_cli(capsys, "rigidity", "--manifold", str(path),
                           "--q-order", "4")
    assert code == 1
    assert json.loads(out)["rigid"] is False


def test_rigidity_at_default_q_order(capsys):
    code, out, _ = run_cli(capsys, "rigidity", "--manifold", "cp3")
    assert code == 0
    data = json.loads(out)
    assert data["q_order"] == 80 and data["rigid"] is True


def test_verify_single_suite_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "--suite", "K-transfer",
                             "--trials", "10", "--seed", "3")
    code2, out2, _ = run_cli(capsys, "verify", "--suite", "K-transfer",
                             "--trials", "10", "--seed", "3")
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_out_file(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "verify", "--suite", "allW",
                           "--trials", "5", "--out", str(out_path))
    assert code == 0 and out == ""
    data = json.loads(out_path.read_text())
    assert data["passed"] is True


def test_special_order_dividing_a_weight_is_refused(capsys, tmp_path):
    path = tmp_path / "nine.json"
    path.write_text(json.dumps({"name": "nine", "half_dim": 1, "points": [
        {"weights": [9]}, {"weights": [-9]}]}))
    code, out, _ = run_cli(capsys, "special", "--manifold", str(path))
    assert code == 0
    assert json.loads(out)["orders"] == [1, 3, 9]


def test_expand_with_numeric_evaluation(capsys):
    code, out, _ = run_cli(capsys, "expand", "--phi", "3", "--q-order", "40",
                           "--at", "0.23", "--tau", "0.1+0.9j")
    assert code == 0
    data = json.loads(out)
    a = complex(data["at"]["numeric"])
    b = complex(data["at"]["series_value"])
    assert abs(a - b) < 1e-9 * abs(a)


def test_index_unknown_twist_exit_2(capsys):
    code, _, err = run_cli(capsys, "index", "--manifold", "s2",
                           "--twist", "nosuch")
    assert code == 2
    assert "no twist" in err


def test_stored_twist_named_none_is_usage_error(capsys, tmp_path):
    """A stored list under a name that the CLI reads as a built-in twist
    would be shadowed by it, so the file is refused."""
    data = {"name": "r", "half_dim": 1,
            "points": [{"weights": [1]}, {"weights": [-1]}],
            "twists": {"none": [[1], [-1]]}}
    path = tmp_path / "reserved.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "index", "--manifold", str(path),
                             "--twist", "none")
    assert code == 2 and out == ""
    assert "twists.none: reserved name" in err


def test_index_at_reports_the_largest_term(capsys):
    """Near the real axis the rigid sum cancels terms of about 1e47 to
    rounding noise; the report carries that largest term, so a value far
    below it reads as the 0 it is."""
    for tau, big in (("1j", False), ("0.01j", True)):
        code, out, _ = run_cli(capsys, "index", "--manifold", "cp3", "--twist",
                               "tangent_witten", "--q-order", "2", "--at",
                               "0.1+0.003j", "--tau", tau)
        assert code == 0
        at = json.loads(out)["at"]
        value, max_term = complex(at["value"]), float(at["max_term"])
        assert abs(value) <= 1e-12 * max_term
        assert (max_term > 1e40) is big


def test_index_at_echoes_tau_only_where_it_is_read(capsys):
    """The untwisted sum does not depend on tau, so its report names none;
    the tangent-Witten sum does."""
    code, out, _ = run_cli(capsys, "index", "--manifold", "s2", "--twist",
                           "none", "--at", "0.3", "--tau", "0.3j")
    assert code == 0
    assert set(json.loads(out)["at"]) == {"z", "value", "max_term"}
    code, out, _ = run_cli(capsys, "index", "--manifold", "cp3", "--twist",
                           "tangent_witten", "--q-order", "2", "--at", "0.3",
                           "--tau", "0.3j")
    assert code == 0
    assert set(json.loads(out)["at"]) == {"z", "tau", "value", "max_term"}


def test_catalog_dump(capsys):
    code, out, _ = run_cli(capsys, "catalog", "--dump", "s2")
    assert code == 0
    assert json.loads(out)["name"] == "s2"
    code, _, _ = run_cli(capsys, "catalog")
    assert code == 0


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_dump_loads_as_the_catalog_entry(capsys, tmp_path, name):
    """A dumped entry, read back as a user file, gives the rigidity report
    of the generated entry byte for byte."""
    path = tmp_path / f"{name}.json"
    code, out, _ = run_cli(capsys, "catalog", "--dump", name, "--out", str(path))
    assert code == 0 and out == ""
    code, from_file, _ = run_cli(capsys, "rigidity", "--manifold", str(path),
                                 "--q-order", "8")
    assert code == 0
    code, generated, _ = run_cli(capsys, "rigidity", "--manifold", name,
                                 "--q-order", "8")
    assert code == 0 and from_file == generated


def test_catalog_dump_unknown_name_lists_the_catalog(capsys):
    code, out, err = run_cli(capsys, "catalog", "--dump", "nosuch")
    assert code == 2 and out == ""
    assert "'nosuch'" in err
    for name in CATALOG:
        assert repr(name) in err


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "elliptica.cli", "catalog"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "manifolds" in proc.stdout


@pytest.mark.parametrize("command", ["expand", "index", "rigidity", "verify"])
def test_negative_q_order_is_usage_error(capsys, command):
    extra = {"expand": ["--phi", "1"], "index": ["--manifold", "s2"],
             "rigidity": ["--manifold", "s2"], "verify": []}[command]
    with pytest.raises(SystemExit) as exc:
        main([command, *extra, "--q-order", "-1"])
    assert exc.value.code == 2
    assert "must be an integer >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["expand", "index", "rigidity", "verify"])
def test_q_order_above_the_limit_is_usage_error(capsys, monkeypatch, command):
    """An order past MAX_Q_ORDER is refused while the arguments are parsed:
    10**20 would build factors until memory ran out.  The limit itself is
    accepted."""
    extra = {"expand": ["--phi", "1"], "index": ["--manifold", "s2"],
             "rigidity": ["--manifold", "s2"], "verify": []}[command]
    monkeypatch.setattr(cli, f"cmd_{command}", None)  # no command may start
    for order in (str(cli.MAX_Q_ORDER + 1), str(10**20)):
        with pytest.raises(SystemExit) as exc:
            main([command, *extra, "--q-order", order])
        assert exc.value.code == 2
        assert f"must be an integer <= {cli.MAX_Q_ORDER}" in capsys.readouterr().err
    args = cli.build_parser().parse_args(
        [command, *extra, "--q-order", str(cli.MAX_Q_ORDER)])
    assert args.q_order == cli.MAX_Q_ORDER


@pytest.mark.parametrize("argv", [("catalog", "--dump", "s2"),
                                  ("special", "--manifold", "cp3"),
                                  ("verify", "--suite", "K-transfer",
                                   "--trials", "3")],
                         ids=lambda argv: argv[0])
@pytest.mark.parametrize("kind", ["missing-directory", "directory"])
def test_unwritable_out_is_usage_error(capsys, tmp_path, argv, kind):
    path = tmp_path / "nosuch" / "x.json" if kind == "missing-directory" else tmp_path
    code, out, err = run_cli(capsys, *argv, "--out", str(path))
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith(f"cannot write --out {path}: ")


def test_retired_consistency_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["consistency", "--manifold", "cp3", "--alpha", "1", "--beta", "1",
              "--order-k", "5"])
    assert exc.value.code == 2
    assert "invalid choice: 'consistency'" in capsys.readouterr().err


def test_verify_zero_trials_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "K-transfer", "--trials", "0"])
    assert exc.value.code == 2
    assert "must be an integer >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["half_dim", "weights", "twist"])
def test_boolean_manifold_fields_exit_2(capsys, tmp_path, field):
    data = {"name": "b", "half_dim": 1,
            "points": [{"weights": [1]}, {"weights": [-1]}],
            "twists": {"t": [[1], [1]]}}
    if field == "half_dim":
        data["half_dim"] = True
    elif field == "weights":
        data["points"][1]["weights"] = [True]
    else:
        data["twists"]["t"][0] = [False]
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "index", "--manifold", str(path))
    assert code == 2
    assert "invalid manifold data" in err


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


def test_emit_writes_non_finite_floats_as_standard_json(tmp_path):
    path = tmp_path / "r.json"
    _emit({"a": math.nan, "b": [math.inf, -math.inf, 0.5], "c": (1.0,)},
          str(path))
    assert _strict_json(path.read_text()) == {
        "a": "NaN", "b": ["Infinity", "-Infinity", 0.5], "c": [1.0],
    }


def test_verify_nan_residual_fails_visibly(capsys, monkeypatch):
    monkeypatch.setattr(zem, "_residual", lambda lhs, rhs: math.nan)
    code, out, _ = run_cli(capsys, "verify", "--suite", "K-transfer",
                           "--trials", "3")
    assert code == 1
    suite = _strict_json(out)["suites"][0]
    assert suite["passed"] is False
    assert suite["max_residual"] == "NaN"
    assert [f["residual"] for f in suite["failures"]] == ["NaN"] * 3


@pytest.mark.parametrize("command", ["special", "rigidity", "index"])
def test_weight_above_the_bound_is_usage_error(capsys, tmp_path, command):
    """Weights past MAX_WEIGHT are refused when the file is loaded; +-10**9
    ran these commands out of memory."""
    path = tmp_path / "heavy.json"
    path.write_text(json.dumps({"name": "heavy", "half_dim": 1, "points": [
        {"weights": [MAX_WEIGHT + 1]}, {"weights": [-MAX_WEIGHT - 1]}]}))
    code, out, err = run_cli(capsys, command, "--manifold", str(path))
    assert code == 2 and out == ""
    assert err == ("invalid manifold data: points[0].weights[0]: "
                   f"|weight| above {MAX_WEIGHT}\n")


@pytest.mark.parametrize("kind", ["json", "directory", "undecodable"])
def test_unreadable_manifold_file_exit_2(capsys, tmp_path, kind):
    if kind == "directory":
        path = tmp_path
    else:
        path = tmp_path / "bad.json"
        path.write_bytes(b"{" if kind == "json" else b"\xff\xfe")
    code, out, err = run_cli(capsys, "rigidity", "--manifold", str(path))
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command", ["expand", "index"])
def test_malformed_point_is_usage_error(capsys, command):
    extra = {"expand": ["--phi", "1"], "index": ["--manifold", "s2"]}[command]
    for at in ("foo", "nan", "inf", "nan+1j"):
        with pytest.raises(SystemExit) as exc:
            main([command, *extra, "--q-order", "2", "--at", at])
        assert exc.value.code == 2
        assert "not a complex number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, at",
    [
        (["expand", "--phi", "1"], "0"),
        (["expand", "--phi", "4"], "0.5+0.5j"),
        (["index", "--manifold", "cp3", "--twist", "none"], "0"),
        (["index", "--manifold", "cp3", "--twist", "tangent_witten"], "1"),
        (["index", "--manifold", "cp3", "--twist", "s2t"], "0"),
        # |Im z| in the hundreds: the exact series of expand, evaluated at
        # s = e^{i pi z}, overflows or underflows
        (["expand", "--phi", "1"], "-400.3j"),
        # a z - m tau that keeps fewer than half of the digits of a z
        (["index", "--manifold", "cp3", "--twist", "tangent_witten"], "0.1+1e9j"),
        (["expand", "--phi", "1"], "0.3+115j"),
        (["index", "--manifold", "cp3", "--twist", "tangent_witten"],
         "0.3-4e8j"),
        # pi z is not a finite float: cmath.exp raises a bare ValueError
        (["index", "--manifold", "s2", "--twist", "none"], "1e308"),
        (["expand", "--phi", "1"], "1e308+0.5j"),
        (["index", "--manifold", "cp3", "--twist", "tangent_witten"],
         "1e308+0.5j"),
        # Im z / Im tau is no count of periods, or e^{i pi a z} underflows:
        # the error names z and the distance from the real axis
        (["expand", "--phi", "1", "--tau", "0.5j"], "0.3+1e308j"),
        (["index", "--manifold", "cp3", "--twist", "tangent_witten"],
         "0.3+1e308j"),
        (["index", "--manifold", "s2", "--twist", "none"], "0.3+1e308j"),
        # a z within POLE_GUARD of a pole of 1/(s^-a - s^a), untwisted and
        # twisted, and a z at one: a weight a puts a z near an integer
        *[(["index", "--manifold", "cp3", "--twist", twist], at)
          for twist in ("none", "s2t") for at in ("1e-200", "2", "3e-9")],
    ],
)
def test_numeric_point_at_a_pole_is_usage_error(capsys, argv, at):
    code, out, err = run_cli(capsys, *argv, f"--at={at}", "--q-order", "2")
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith(f"cannot evaluate at z = {at}: ")


@pytest.mark.parametrize("twist, at", [("tangent_witten", "2e-8"), ("none", "2e-8"),
                                       ("none", "1e-7")])
def test_overflowing_fixed_point_sum_is_usage_error(capsys, tmp_path, twist, at):
    """50 planes of weight +-1 near z = 0: each point's product leaves the
    floats, to a NaN or an infinite sum, which is refused, not printed."""
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({"name": "wide", "half_dim": 50, "points": [
        {"weights": [1] * 50}, {"weights": [-1] * 50}]}), encoding="utf-8")
    code, out, err = run_cli(capsys, "index", "--manifold", str(wide), "--twist",
                             twist, "--q-order", "2", "--at", at)
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith(f"cannot evaluate at z = {at}: ")


@pytest.mark.parametrize("argv", [
    ("index", "--manifold", "cp3", "--twist", "tangent_witten", "--q-order", "640"),
    ("expand", "--phi", "2", "--q-order", "640"),
], ids=lambda argv: argv[0])
def test_pole_is_refused_before_the_exact_series(capsys, monkeypatch, argv):
    """The point is evaluated first: a pole exits 2 without the series."""
    def unexpected(*args):
        raise AssertionError("the exact series was built")

    monkeypatch.setattr(cli, "witten_index", unexpected)
    monkeypatch.setattr(cli, "phi_exact", unexpected)
    code, out, err = run_cli(capsys, *argv, "--at", "0.5")
    assert code == 2 and out == ""
    assert err.startswith("cannot evaluate at z = 0.5: ")


def test_vanishing_witten_denominator_at_point_is_usage_error(capsys,
                                                              monkeypatch):
    def vanishing(*args):
        raise WittenDenominatorError("denominator factor vanishes at n = 1", 1)

    monkeypatch.setattr(cli, "phi_numeric", vanishing)
    code, out, err = run_cli(capsys, "expand", "--phi", "1", "--at", "0.3")
    assert code == 2 and out == ""
    assert err == "cannot evaluate at z = 0.3: denominator factor vanishes " \
        "at n = 1\n"


@pytest.mark.parametrize("tau", ["nanj", "infj", "1e-300j", "200j", "1e-9j",
                                 "1e-3j"])
def test_degenerate_tau_is_usage_error(capsys, tau):
    """NaN and infinite tau, tau whose q rounds to |q| = 1 or to 0, and tau
    so near the real axis that the q of their modular image rounds to 0:
    rejected while the arguments are parsed, before any series is built."""
    with pytest.raises(SystemExit) as exc:
        main(["expand", "--phi", "1", "--q-order", "2", "--at", "0.2",
              "--tau", tau])
    assert exc.value.code == 2
    assert "argument --tau" in capsys.readouterr().err


def test_tau_near_a_cusp_is_accepted(capsys):
    """Im tau = 1e-3 at Re tau = 0.49, and 0.03j and 0.01j near Re tau = 0,
    are summed at a modular image of tau: evaluated, not refused, by both
    commands that take a tau."""
    code, out, err = run_cli(capsys, "expand", "--phi", "3", "--q-order", "2",
                             "--at", "0.2+0.0003j", "--tau", "0.49+0.001j")
    assert code == 0 and json.loads(out)["at"]["tau"] == "(0.49+0.001j)"
    for tau in ("0.03j", "0.01j"):
        code, out, _ = run_cli(capsys, "index", "--manifold", "cp3", "--twist",
                               "tangent_witten", "--q-order", "2", "--at",
                               "0.1+0.003j", "--tau", tau)
        assert code == 0 and cmath.isfinite(complex(json.loads(out)["at"]["value"]))


def test_far_up_point_is_evaluated(capsys, tmp_path):
    """phi_1(a z) at Im z = 60 is phi_1 at a z - 60 a tau: the tangent-Witten
    sum at 0.1 + 60j is its value at 0.1, also on a manifold where the sum
    is not rigid; 0.3 + 100j at tau = 0.1 + 0.5j is reduced by 200 tau."""
    flipped = {"name": "cp3_flipped", "half_dim": 3, "points": [
        {"weights": [-1, 2, 3]}, {"weights": [-1, 1, 2]},
        {"weights": [-2, -1, 1]}, {"weights": [-3, -2, -1]}], "twists": {}}
    path = tmp_path / "flipped.json"
    path.write_text(json.dumps(flipped), encoding="utf-8")
    for manifold, at, tau in (("cp3", "0.1+60j", "1j"), (str(path), "0.1+60j", "1j"),
                              (str(path), "0.3+100j", "0.1+0.5j")):
        values = []
        for point in (at, "0.1" if tau == "1j" else "-19.7"):
            code, out, _ = run_cli(capsys, "index", "--manifold", manifold,
                                   "--twist", "tangent_witten", "--q-order", "2",
                                   "--at", point, "--tau", tau)
            assert code == 0
            values.append(complex(json.loads(out)["at"]["value"]))
        far, near = values
        assert abs(far - near) <= 1e-10 * max(abs(near), 1.0)
    assert abs(near) > 1e-3  # the flipped sum is not rigid, so not 0


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0", "1", "1.5", "1e300"])
def test_verify_bad_tol_is_usage_error(capsys, tol):
    """A relative residual is at most 2 and is 1 wherever one side is 0,
    so a tolerance of 1 or more would pass every trial."""
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "K-transfer", "--trials", "2",
              "--tol", tol])
    assert exc.value.code == 2
    assert "tol must be finite, > 0 and < 1" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["abc", "", "1e-3x"])
def test_verify_non_numeric_tol_is_usage_error(capsys, tol):
    """The message names the option and the value, not the parser's
    private converter."""
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "K-transfer", "--trials", "2",
              "--tol", tol])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --tol: not a number: {tol!r}" in err
    assert "_tolerance" not in err


@pytest.mark.parametrize("suite, repeated", [
    ("K-transfer,K-transfer", "K-transfer"),
    ("allW, translations,allW", "allW"),
    ("translations,translations", "translations"),
])
def test_verify_repeated_suite_is_usage_error(capsys, monkeypatch, suite,
                                              repeated):
    """A suite named twice is refused before any suite runs."""
    def run(*args, **kwargs):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(cli, "identity_check", run)
    monkeypatch.setattr(cli, "phi_translate_check", run)
    code, out, err = run_cli(capsys, "verify", "--suite", suite)
    assert code == 2 and out == ""
    assert err == f"suite {repeated!r} is named twice\n"


@pytest.mark.parametrize("suite", [",", " , ,"])
def test_verify_empty_suite_list_is_usage_error(capsys, suite):
    code, out, err = run_cli(capsys, "verify", "--suite", suite)
    assert code == 2 and out == ""
    assert "no suite named" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--suite", "K-transfer", "--tau", "1j"),
        ("index", "--manifold", "s2", "--seed", "1"),
        ("rigidity", "--manifold", "s2", "--tol", "1e-3"),
        ("special", "--manifold", "s2", "--q-order", "4"),
        ("expand", "--phi", "1", "--trials", "3"),
        ("catalog", "--tau", "1j"),
    ],
    ids=lambda argv: f"{argv[0]}{argv[-2]}",
)
def test_unread_option_is_usage_error(capsys, argv):
    """Each subcommand declares only the options it reads."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


def test_verify_tol_reaches_degenerate_reduction(capsys):
    for other in ("K-transfer", "allW"):
        argv = ("verify", "--suite", f"degenerate-reduction,{other}",
                "--trials", "3")
        code, out, _ = run_cli(capsys, *argv, "--tol", "1e-3")
        data = json.loads(out)
        assert code == 0
        assert data["config"]["tol"] == 1e-3
        assert [rep["tol"] for rep in data["suites"]] == [1e-3, 1e-3]
        # without --tol each suite keeps its own tolerance
        code, out, _ = run_cli(capsys, *argv)
        data = json.loads(out)
        assert code == 0
        assert data["config"]["tol"] == 1e-8
        assert [rep["tol"] for rep in data["suites"]] == [1e-10, 1e-8]


@pytest.mark.parametrize("dims", ["1", "0", "-4"])
def test_verify_dims_without_a_plane_is_usage_error(capsys, dims):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "K-transfer", "--trials", "2",
              "--dims", dims])
    assert exc.value.code == 2
    assert "must be an integer >= 2" in capsys.readouterr().err
