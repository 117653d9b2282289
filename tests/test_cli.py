import contextlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspdyn.cli import main
from cuspdyn.exact import Rational, compare, emit_value, parse_value


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_domain_json_and_svg(tmp_path, capsys):
    svg_path = tmp_path / "dom.svg"
    code, out = run_cli(capsys, "domain", "--p", "5", "--svg", str(svg_path))
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == 1 and len(data["spheres"]) == 4
    text = svg_path.read_text()
    assert text.count('class="sphere"') == 4
    assert text.count('class="wall"') == 6


def test_branches_json_round_trip(capsys):
    code, out = run_cli(capsys, "branches", "--p", "5")
    assert code == 0
    data = json.loads(out)
    labels = [b["label"] for b in data["branches"]]
    assert labels == ["-inf", -1, 0, 1, 2, 3, 4, 5]
    for b in data["branches"]:
        for side in ("lo", "hi"):
            v = b["interval"][side]
            if v is not None:
                assert emit_value(parse_value(v)) == v


def test_code_golden_ratio(capsys):
    code, out = run_cli(
        capsys, "code", "--modular", "--x", "surd:(1+1*sqrt(5))/2", "--steps", "10"
    )
    assert code == 0
    data = json.loads(out)
    assert data["letters"] == [1, 0]
    assert data["termination"]["kind"] == "periodic"
    assert data["termination"]["period"] == 2 and data["termination"]["preperiod"] == 0


def test_code_two_sided(capsys):
    code, out = run_cli(
        capsys,
        "code",
        "--modular",
        "--x", "surd:(1+1*sqrt(5))/2",
        "--y", "surd:(1+-1*sqrt(5))/2",
        "--steps", "4",
        "--past", "4",
    )
    assert code == 0
    data = json.loads(out)
    assert data["letters"][data["origin"]] == 1


def test_cf(capsys):
    code, out = run_cli(capsys, "cf", "--x", "rat:7/3")
    assert code == 0
    data = json.loads(out)
    assert data["digits"] == [2, 3] and data["complete"]
    code2, out2 = run_cli(capsys, "cf", "--x", "surd:(1+1*sqrt(2))/1", "--digits", "6")
    data2 = json.loads(out2)
    assert data2["digits"] == [2] * 6
    # sqrt 31 = [5; 1, 1, 3, 5, 3, 1, 1, 10]: preperiod + period is 9 digits,
    # so --digits 7 cuts them with no split and --digits 8 keeps the split
    sqrt31 = ("cf", "--x", "surd:(0+1*sqrt(31))/1", "--digits")
    data3 = json.loads(run_cli(capsys, *sqrt31, "7")[1])
    assert data3["digits"] == [5, 1, 1, 3, 5, 3, 1] and "period" not in data3
    data4 = json.loads(run_cli(capsys, *sqrt31, "8")[1])
    assert data4["digits"] == [5, 1, 1, 3, 5, 3, 1, 1]
    assert (data4["preperiod"], data4["period"]) == ([5], [1, 1, 3, 5, 3, 1, 1, 10])



@pytest.mark.parametrize("x, pre, per", [("surd:(0+1*sqrt(2))/1", [1], [2]),
                                         ("surd:(1+1*sqrt(5))/2", [], [1]),
                                         ("surd:(0+1*sqrt(13))/1", [3], [1, 1, 1, 1, 6]),
                                         ("surd:(0+1*sqrt(41))/1", [6], [2, 2, 12])])
def test_cf_reports_the_minimal_period(capsys, x, pre, per):
    code, out = run_cli(capsys, "cf", "--x", x, "--digits", "12")
    assert code == 0
    data = json.loads(out)
    assert (data["preperiod"], data["period"]) == (pre, per)

def test_return_record(capsys):
    code, out = run_cli(
        capsys,
        "return",
        "--p", "5",
        "--x", "surd:(-1+1*sqrt(2))/1",
        "--y", "surd:(0+-1*sqrt(2))/1",
    )
    assert code == 0
    data = json.loads(out)
    assert data["letter"] == 2
    assert data["translate"] == "[[3,-2],[5,-3]]"
    assert data["renormalized"]["geodesic"]["forward"] == "surd:(10+1*sqrt(2))/14"


def test_return_previous(capsys):
    code, out = run_cli(
        capsys,
        "return",
        "--p", "5",
        "--previous",
        "--x", "surd:(0+1*sqrt(2))/1",
        "--y", "rat:1/5",
    )
    assert code == 0
    assert json.loads(out)["previous"] is None



def test_code_two_sided_trace_has_the_future_states(capsys):
    x = "surd:(1+1*sqrt(5))/2"
    code, out = run_cli(capsys, "code", "--modular", "--x", x, "--y", "surd:(1+-1*sqrt(5))/2",
                        "--steps", "3", "--trace")
    assert code == 0
    data = json.loads(out)
    _, future = run_cli(capsys, "code", "--modular", "--x", x, "--steps", "3", "--trace")
    assert data["states"] == json.loads(future)["states"] == [x, "surd:(-1+1*sqrt(5))/2", x]
    assert len(data["states"]) == len(data["letters"]) - data["origin"] + 1


@pytest.mark.parametrize("pair", [("surd:(0+1*sqrt(2))/1", "rat:1/5"),
                                  ("surd:(-1+1*sqrt(2))/1", "surd:(0+-1*sqrt(2))/1")])
def test_return_previous_trace_has_the_section_point(capsys, pair):
    where = ["--p", "5", "--x", pair[0], "--y", pair[1]]
    code, out = run_cli(capsys, "return", *where, "--previous", "--trace")
    assert code == 0
    _, nxt = run_cli(capsys, "return", *where, "--trace")
    _, plain = run_cli(capsys, "return", *where, "--previous")
    data = json.loads(out)
    assert data.pop("section_point") == json.loads(nxt)["section_point"]
    assert data == json.loads(plain)

def test_conjugacy_check_deterministic(capsys):
    code1, out1 = run_cli(
        capsys, "conjugacy-check", "--p", "3", "--samples", "30", "--seed", "42"
    )
    code2, out2 = run_cli(
        capsys, "conjugacy-check", "--p", "3", "--samples", "30", "--seed", "42"
    )
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["matches"] == 30 and data["mismatches"] == []


def test_transfer_value(capsys):
    code, out = run_cli(
        capsys,
        "transfer",
        "--modular",
        "--beta", "1.0",
        "--phi", "invx",
        "--x", "surd:(0+1*sqrt(2))/1",
    )
    assert code == 0
    data = json.loads(out)
    assert data["value_exact"] == "surd:(0+1*sqrt(2))/2"


def test_transfer_from_sample_file(tmp_path, capsys):
    import numpy as np

    nodes = list(np.linspace(0.05, 30.0, 400))
    payload = {"nodes": nodes, "values": [1.0 / t for t in nodes]}
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(payload))
    code, out = run_cli(
        capsys, "transfer", "--modular", "--beta", "1.0", "--phi", f"file:{path}", "--x", "rat:31/10"
    )
    assert code == 0
    data = json.loads(out)
    assert abs(data["value"] - 10.0 / 31.0) < 1e-3


@pytest.mark.parametrize(
    "content, message",
    [
        ("{}", "a JSON object with nodes and values"),
        ("[1, 2]", "a JSON object with nodes and values"),
        ('"x"', "a JSON object with nodes and values"),
        ('{"nodes": {"a": 1}, "values": [1, 2]}', "samples must be numbers"),
        ('{"nodes": [1e400, 2], "values": [1, 2]}', "samples must be finite"),
        ('{"nodes": [1, 2], "values": [1, 1e400]}', "samples must be finite"),
        ('{"nodes": [1, 2], "values": [1, null]}', "samples must be numbers"),
        ('{"nodes": ["0", "2"], "values": [1, 3]}', "samples must be numbers"),
        ('{"nodes": [[0], [1, 2]], "values": [1, 3]}', "samples need matching 1-d nodes and values"),
        ('{"nodes": [true, 2], "values": [1, 2]}', "samples must be numbers, not booleans"),
        ('{"nodes": [0, 1], "values": [false, 2]}', "samples must be numbers, not booleans"),
        ('{"nodes": [0, 0, 1], "values": [1, 5, 2]}', "sample nodes must be distinct"),
    ],
    ids=["empty-object", "list", "string", "dict-nodes", "inf-node", "inf-value", "null-value", "string-nodes",
         "ragged-nodes", "boolean-node", "boolean-value", "repeated-node"],
)
def test_transfer_refuses_a_malformed_sample_file(tmp_path, capsys, content, message):
    path = tmp_path / "phi.json"
    path.write_text(content)
    code = main(["transfer", "--modular", "--phi", f"file:{path}", "--x", "rat:1/2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


def test_spectrum(capsys):
    code, out = run_cli(capsys, "spectrum", "--modular", "--beta", "1.0", "--nodes", "8", "--top", "4")
    assert code == 0
    data = json.loads(out)
    mags = [e["abs"] for e in data["eigenvalues"]]
    assert len(mags) == 4 and mags == sorted(mags, reverse=True)


def test_parse_error_exit_2(capsys):
    code = main(["code", "--modular", "--x", "rat:nonsense"])
    assert code == 2
    assert main(["code", "--x", "rat:1/2"]) == 2  # neither --p nor --modular


def test_cusp_input_reports_cleanly(capsys):
    # coding a rational for a congruence table terminates with a cusp record
    code, out = run_cli(capsys, "code", "--p", "5", "--x", "rat:3/7", "--steps", "5")
    assert code == 0
    data = json.loads(out)
    assert data["termination"]["kind"] == "cusp" and data["letters"] == []


def test_cusp_input_with_long_continued_fraction(capsys):
    # consecutive Fibonacci numbers (627 digits): the witness comes from one modular inverse
    a, b = 0, 1
    for _ in range(2999):
        a, b = b, a + b
    code, out = run_cli(capsys, "code", "--p", "5", "--x", f"rat:{a}/{b}")
    assert code == 0
    assert json.loads(out)["termination"]["kind"] == "cusp"


def test_domain_without_group_is_argument_error(capsys):
    assert main(["domain"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("p", ["5", "4"])
def test_p_with_modular_is_argument_error(capsys, p):
    assert main(["branches", "--p", p, "--modular"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:") and "--modular" in captured.err

@pytest.mark.parametrize("extra", [(), ("--previous",)])
def test_return_approx_endpoints_are_argument_errors(capsys, extra):
    code = main(["return", "--p", "5", "--x", "approx:0.3", "--y", "approx:-0.5", *extra])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "exact finite endpoints" in err


@pytest.mark.parametrize("x", ["rat:-3/2", "rat:1/1", "inf"])
def test_cf_needs_finite_x_above_one(capsys, x):
    code = main(["cf", "--x", x])
    assert code == 2
    assert "cf needs a finite x > 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("domain", "--p", "2", "--svg", "/nonexistent/x.svg"),
        ("spectrum", "--modular", "--nodes", "4", "--top", "-1"),
        ("conjugacy-check", "--p", "5", "--samples", "-1"),
    ],
)
def test_bad_counts_and_paths_are_argument_errors(capsys, argv):
    code = main(list(argv))
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "Traceback" not in captured.err


def _raise(error):
    def raiser(*args, **kwargs):
        raise error
    return raiser


@pytest.mark.parametrize(
    "target, error, argv, says",
    [
        # numpy's allocation error names the size it could not allocate
        ("cuspdyn.transfer.collocation_matrix", MemoryError("Unable to allocate 298. GiB"),
         ("spectrum", "--modular", "--nodes", "100000"), "error: Unable to allocate 298. GiB"),
        # the interpreter's own MemoryError has no text
        ("cuspdyn.dynamics.CFDigits.expand", MemoryError(),
         ("cf", "--x", "surd:(0+1*sqrt(2))/1", "--digits", "4000000"), "error: out of memory"),
    ],
    ids=["spectrum", "cf"],
)
def test_out_of_memory_is_an_argument_error(capsys, monkeypatch, target, error, argv, says):
    monkeypatch.setattr(target, _raise(error))
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == says + "\n"


def test_a_collocation_matrix_beyond_memory_is_refused_before_its_nodes(capsys, monkeypatch):
    # at 10^9 nodes per interval the node arrays alone take 8 GB each; numpy refuses
    # the (size x size) matrix at once, so it is allocated first
    monkeypatch.setattr("cuspdyn.transfer._cheb_nodes", _raise(AssertionError("nodes built before the matrix")))
    assert main(["spectrum", "--modular", "--nodes", "1000000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


@pytest.mark.parametrize("argv, count", [
    (("code", "--modular", "--x", "rat:23/2", "--steps", "100"), 12),  # 11 letters 1, one letter 0
    (("code", "--modular", "--x", "rat:13/2", "--trace"), 15),  # 7 letters and 8 states
    (("code", "--p", "5", "--x", "surd:(0+1*sqrt(2))/1", "--y", "surd:(0+-1*sqrt(2))/1",
      "--steps", "6", "--past", "6"), 12),
    (("cf", "--x", "surd:(1+1*sqrt(5))/2", "--digits", "12"), 12),  # the period unrolled
    (("cf", "--x", "rat:610/377"), 13),  # a terminating expansion, all digits
])
def test_printed_output_beyond_the_bound_is_refused_before_it_is_spelled_out(capsys, monkeypatch, argv, count):
    monkeypatch.setattr("cuspdyn.cli.MAX_PRINTED", count)
    assert main(list(argv)) == 0
    out = json.loads(capsys.readouterr().out)
    printed = len(out.get("digits", [])) + len(out.get("letters", [])) + len(out.get("states", []))
    assert printed == count
    monkeypatch.setattr("cuspdyn.cli.MAX_PRINTED", count - 1)
    for target in ("CodingSequence.letters", "CodingSequence.to_json", "CFDigits.expand", "CFDigits.to_json"):
        monkeypatch.setattr(f"cuspdyn.dynamics.{target}", property(_raise(AssertionError(f"{target} spelled out")))
                            if target.endswith("letters") else _raise(AssertionError(f"{target} called")))
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: the output would hold {count} ") and str(count - 1) in captured.err


def test_modular_domain_second_sphere(tmp_path, capsys):
    # the modular preset is level 1: spheres |z| = 1 and |z - 1| = 1
    svg_path = tmp_path / "modular.svg"
    code, out = run_cli(capsys, "domain", "--modular", "--svg", str(svg_path))
    assert code == 0
    spheres = json.loads(out)["spheres"]
    assert [(s["center"], s["radius"], s["element"]) for s in spheres] == [
        ("rat:0/1", "rat:1/1", "[[0,-1],[1,0]]"),
        ("rat:1/1", "rat:1/1", "[[0,-1],[1,-1]]"),
    ]
    text = svg_path.read_text()
    assert text.count('class="sphere"') == 2
    assert 'd="M 200.000000 1200.000000 A 1000.000000 1000.000000 0 0 1 2200.000000' in text


@pytest.mark.parametrize(
    "argv, says",
    [
        (("transfer", "--modular", "--beta", "nan", "--x", "rat:1/2"), "--beta"),
        (("transfer", "--modular", "--beta", "inf", "--x", "rat:1/2"), "--beta"),
        (("spectrum", "--modular", "--beta", "nan", "--nodes", "4"), "--beta"),
        (("spectrum", "--modular", "--beta", "inf", "--nodes", "4"), "--beta"),
        (("cf", "--x", "rat:7/3", "--digits", "-1"), "--digits"),
        (("code", "--modular", "--x", "surd:(1+1*sqrt(5))/2", "--y", "surd:(1+-1*sqrt(5))/2",
          "--past", "-1"), "--past"),
        (("code", "--p", "5", "--x", "approx:1e400"), "out of float range"),
        (("transfer", "--p", "5", "--x", "approx:1e308", "--beta", "0.5"), "out of float range"),
    ],
)
def test_out_of_range_arguments_are_argument_errors(capsys, argv, says):
    code = main(list(argv))
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and says in captured.err


@pytest.mark.parametrize("cmd", ["code", "return"])
def test_approx_on_a_cut_is_an_argument_error(capsys, cmd):
    # the backward endpoint needs the branch of x, which an approx within its error of 3/5 has not
    code = main([cmd, "--p", "5", "--x", "approx:0.5999999999999", "--y", "approx:-0.5"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: approx value 0.5999999999999 within error 1e-12 of endpoint rat:3/5")


def test_radicand_over_the_bound_is_an_argument_error(capsys):
    # d = 2^89 - 1 has no small factor, so the squarefree split would try about 2.5e13
    code = main(["code", "--modular", "--x", f"surd:(0+1*sqrt({2**89 - 1}))/1"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: radicand 618970019642690137449562111 exceeds the bound")


def test_exact_beta_is_a_power(capsys):
    # at x = 1/2 the modular branches have weights (3/2)^(-2 beta) and 1
    code, out = run_cli(capsys, "transfer", "--modular", "--beta", "50", "--x", "rat:1/2")
    assert code == 0
    assert json.loads(out)["value_exact"] == f"rat:{4**50 + 9**50}/{9**50}"


def test_past_side_ends_where_an_approx_straddles_a_pole(capsys):
    # after one past letter the backward endpoint is an interval around -1, the pole of x/(x+1)
    code, out = run_cli(capsys, "code", "--modular", "--x", "approx:0.3", "--y", "approx:-0.5",
                        "--steps", "20", "--past", "20")
    assert code == 0
    assert json.loads(out)["past_termination"] == {"kind": "precision-exhausted", "step": 1}


def test_past_side_ends_where_an_approx_holds_the_representative_line(capsys):
    argv = ("code", "--p", "5", "--x", "surd:(-1+1*sqrt(2))/1", "--y", "approx:-0.5", "--past", "10")
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out)["past_termination"] == {"kind": "precision-exhausted", "step": 2}


@pytest.mark.parametrize("extra", [("code", "--past", "5"), ("return",)])
def test_pair_off_the_representative_line_is_an_argument_error(capsys, extra):
    # y lies in branch 5's product rectangle but right of its representative line 4/5
    code = main([extra[0], "--p", "5", "--x", "surd:(5+1*sqrt(2))/2", "--y", "surd:(1+1*sqrt(2))/3", *extra[1:]])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "Traceback" not in captured.err


def test_exact_value_past_float_range_of_its_integers(capsys):
    code, out = run_cli(capsys, "transfer", "--p", "13", "--beta", "300", "--phi", "invx",
                        "--x", "surd:(1+1*sqrt(2))/7")
    assert code == 0
    data = json.loads(out)
    exact, value = parse_value(data["value_exact"]), Fraction(data["value"])
    tol = Fraction(1, 10**15)
    assert compare(Rational(value * (1 - tol)), exact) == -1 and compare(Rational(value * (1 + tol)), exact) == 1


def test_value_beyond_float_range_is_an_argument_error(capsys):
    # x/(x+1) maps 10^-400 to about 10^-400, and invx turns that into about 10^400
    code = main(["transfer", "--modular", "--beta", "0", "--phi", "invx", "--x", f"rat:1/{10**400}"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the value's magnitude is beyond float range\n"


def test_exact_beta_just_under_the_weight_bound(capsys):
    # (3/2)^(-9000) has 4294 digits, inside the bound of 4300
    code, out = run_cli(capsys, "transfer", "--modular", "--beta", "4500", "--x", "rat:1/2")
    assert code == 0
    assert parse_value(json.loads(out)["value_exact"]) == Rational(Fraction(4**4500 + 9**4500, 9**4500))


def test_exact_beta_over_the_digit_bound_is_an_argument_error(capsys):
    code = main(["transfer", "--modular", "--beta", "6000", "--x", "rat:1/2"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the exact weight at beta = 6000 has about 5726 digits, over the bound of 4300\n"


def test_exact_beta_over_the_weight_bound_is_an_argument_error(capsys):
    code = main(["transfer", "--modular", "--beta", "1e9", "--x", "rat:1/2"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the exact weight at beta = 1000000000 has about")


@pytest.mark.parametrize("value", ["abc", "nan", "-1"])
def test_bad_approx_error_bound_is_an_argument_error(capsys, monkeypatch, value):
    monkeypatch.setenv("CUSPDYN_APPROX_ERR", value)
    code = main(["code", "--modular", "--x", "rat:3/2"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: CUSPDYN_APPROX_ERR must be a finite number >= 0")


def test_approx_error_bound_from_the_environment(capsys, monkeypatch):
    monkeypatch.setenv("CUSPDYN_APPROX_ERR", "0.001")
    code = main(["code", "--p", "5", "--x", "approx:0.5999"])  # within 1e-3 of the cut 3/5
    assert code == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["termination"]["kind"] == "precision-exhausted"


# --- every grammar-valid input ends with an exit code ---------------------------

_INTS = st.one_of(st.integers(-12, 12), st.integers(-(10**40), 10**40))
_VALUES = st.one_of(
    st.builds("rat:{}/{}".format, _INTS, _INTS),
    # trial division makes the squarefree split cost sqrt(d), so d stays moderate
    st.builds("surd:({}+{}*sqrt({}))/{}".format, _INTS, _INTS, st.integers(0, 10**6), _INTS),
    st.just("inf"),
    st.builds(
        "approx:{}{}.{}e{}".format,
        st.sampled_from(["", "-"]),
        st.integers(0, 10**20),
        st.integers(0, 10**6),
        st.integers(-400, 400),
    ),
)
_GROUPS = st.sampled_from([["--modular"], ["--p", "2"], ["--p", "3"], ["--p", "5"], ["--p", "13"]])
_SMALL = st.integers(-2, 12).map(str)


@st.composite
def _argv(draw):
    cmd = draw(st.sampled_from(["code", "cf", "transfer", "return", "domain", "branches", "spectrum",
                                "conjugacy-check"]))
    if cmd in ("domain", "branches"):
        show = ["--show", draw(st.sampled_from(["precells", "cells"]))] if cmd == "domain" else []
        return [cmd, *draw(_GROUPS), *show]
    if cmd == "spectrum":
        beta = draw(st.sampled_from(["0", "1", "0.5", "-1", "nan"]))
        return [cmd, *draw(_GROUPS), "--beta", beta, "--nodes", draw(st.integers(-1, 8).map(str)),
                "--top", draw(_SMALL)]
    if cmd == "conjugacy-check":
        return [cmd, *draw(_GROUPS), "--samples", draw(st.integers(-1, 3).map(str)),
                "--seed", draw(st.integers(-(10**6), 10**6).map(str))]
    x = ["--x", draw(_VALUES)]
    if cmd == "cf":
        return [cmd, *x, "--digits", draw(_SMALL), "--steps", draw(st.integers(-2, 40).map(str))]
    group = draw(_GROUPS)
    if cmd == "code":
        y = ["--y", draw(_VALUES)] if draw(st.booleans()) else []
        trace = ["--trace"] if draw(st.booleans()) else []
        return [cmd, *group, *x, *y, "--steps", draw(_SMALL), "--past", draw(_SMALL), *trace]
    if cmd == "transfer":
        beta = draw(st.sampled_from(["0", "1", "2", "3", "0.5", "1.5", "-1", "nan", "inf"]))
        return [cmd, *group, *x, "--beta", beta, "--phi", draw(st.sampled_from(["one", "invx"]))]
    previous = ["--previous"] if draw(st.booleans()) else []
    return [cmd, *group, *x, "--y", draw(_VALUES), *previous]


@given(_argv())
@settings(max_examples=300, deadline=None)
def test_grammar_valid_inputs_exit_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse exits on its own argument errors
            code = exc.code
    assert code in (0, 2), (argv, code, err.getvalue())  # exit 1 would be a conjugacy mismatch
    if code == 0:
        json.loads(out.getvalue())
    else:
        assert "error:" in err.getvalue()
