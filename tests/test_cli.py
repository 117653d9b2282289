import json

import pytest

from cuspdyn.cli import main
from cuspdyn.exact import emit_value, parse_value


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


def test_spectrum(capsys):
    code, out = run_cli(capsys, "spectrum", "--modular", "--beta", "1.0", "--nodes", "8", "--top", "4")
    assert code == 0
    data = json.loads(out)
    mags = [e["abs"] for e in data["eigenvalues"]]
    assert len(mags) == 4 and mags == sorted(mags, reverse=True)


def test_parse_error_exit_2(capsys):
    code = main(["code", "--modular", "--x", "rat:nonsense"])
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        main(["code", "--x", "rat:1/2"])  # neither --p nor --modular
    assert exc.value.code == 2


def test_cusp_input_reports_cleanly(capsys):
    # coding a rational for a congruence table terminates with a cusp record
    code, out = run_cli(capsys, "code", "--p", "5", "--x", "rat:3/7", "--steps", "5")
    assert code == 0
    data = json.loads(out)
    assert data["termination"]["kind"] == "cusp" and data["letters"] == []


def test_cusp_input_with_long_continued_fraction(capsys):
    # consecutive Fibonacci numbers (627 digits): 3000 Euclid steps for the witness
    a, b = 0, 1
    for _ in range(2999):
        a, b = b, a + b
    code, out = run_cli(capsys, "code", "--p", "5", "--x", f"rat:{a}/{b}")
    assert code == 0
    assert json.loads(out)["termination"]["kind"] == "cusp"


def test_domain_without_group_is_argument_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["domain"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


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
