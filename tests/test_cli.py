import json
import math
import shlex
from pathlib import Path

import numpy as np
import pytest

from opineq.cli import _build_parser, main
from opineq.linalg import numerical_radius, save_matrix

NILPOTENT = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_mu_subcommand(capsys):
    code, out, _ = run(capsys, "mu", "--theta", "1.5707963267948966")
    assert code == 0
    assert out.strip() == "0.5"


def test_mu_degrees_flag(capsys):
    code, out, _ = run(capsys, "mu", "--theta", "90", "--degrees")
    assert code == 0
    assert out.strip() == "0.5"


def test_mu_json(capsys):
    code, out, _ = run(capsys, "mu", "--theta", "1.0", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["mu"] == pytest.approx(0.7126976470501074, rel=1e-15)


def test_gamma_subcommand(capsys):
    code, out, _ = run(capsys, "gamma", "--t", "0.5", "--theta", str(math.pi / 3.0))
    assert code == 0
    assert float(out.strip()) == pytest.approx(0.5, abs=1e-15)


def test_segment_with_quadrature(capsys):
    code, out, _ = run(capsys, "segment", "--c", "3,4", "--d", "1,-2",
                       "--quadrature", "64", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["closed"] == pytest.approx(2.688107285858488, rel=1e-13)
    assert payload["quadrature"] == pytest.approx(payload["closed"], rel=1e-10)


def test_triangle_chain_and_exit_code(capsys):
    code, out, _ = run(capsys, "triangle", "--c", "1,0", "--d", "-1,0", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["lhs"] == 0.0
    assert payload["mid"] == pytest.approx(0.5, abs=1e-15)
    assert payload["rhs"] == 1.0
    assert payload["holds"] is True


def test_reverse_triangle(capsys):
    code, out, _ = run(capsys, "reverse-triangle", "--c", "1,0", "--d", "-1,0",
                       "--t", "0.5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["lhs"] == pytest.approx(0.0, abs=1e-14)
    assert payload["holds"] is True


@pytest.mark.parametrize("command", [("triangle",), ("reverse-triangle", "--t", "0.3")])
def test_triangle_terms_stay_finite_near_the_double_range(capsys, command):
    code, out, _ = run(capsys, *command, "--c", "1e308,1e308", "--d", "1e308,1e308", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["holds"] is True
    for key in ("lhs", "mid", "rhs"):
        assert math.isfinite(payload[key]), payload


def test_triangle_non_finite_input_is_usage_error(capsys):
    code, out, err = run(capsys, "triangle", "--c", "nan,0", "--d", "1,0")
    assert code == 2 and out == "" and "finite" in err


@pytest.mark.parametrize("command", [("triangle",), ("reverse-triangle", "--t", "0.3")])
def test_triangle_modulus_overflow_is_usage_error(capsys, command):
    code, out, err = run(capsys, *command, "--c", "1.5e308,1.5e308", "--d", "1.5e308,1.5e308")
    assert code == 2 and out == "" and "double range" in err


def test_reverse_triangle_bad_weight_is_usage_error(capsys):
    code, _, err = run(capsys, "reverse-triangle", "--c", "1,0", "--d", "-1,0",
                       "--t", "0")
    assert code == 2
    assert "error:" in err


def test_radius_subcommand(capsys, tmp_path):
    path = tmp_path / "m.json"
    save_matrix(NILPOTENT, path)
    code, out, _ = run(capsys, "radius", "--input", str(path))
    assert code == 0
    assert float(out.strip()) == pytest.approx(0.5, abs=1e-8)


def test_radius_subcommand_uses_library_defaults(capsys, tmp_path):
    rng = np.random.default_rng(77)
    A = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    path = tmp_path / "m.json"
    save_matrix(A, path)
    code, out, _ = run(capsys, "radius", "--input", str(path), "--json")
    assert code == 0
    assert json.loads(out)["radius"] == numerical_radius(A)
    # the scan grid and the Newton stop are numerical_radius's own constants
    for flag in ("--grid", "--refine-tol"):
        with pytest.raises(SystemExit) as exc:
            main(["radius", "--input", str(path), flag, "100"])
        assert exc.value.code == 2


def test_bounds_subcommand(capsys, tmp_path):
    path = tmp_path / "m.json"
    save_matrix(NILPOTENT, path)
    code, out, _ = run(capsys, "bounds", "--input", str(path), "--v", "0.5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["spectral_norm"] == pytest.approx(1.0, abs=1e-12)
    assert payload["numerical_radius"] == pytest.approx(0.5, abs=1e-8)
    assert payload["kittaneh_bound"] == pytest.approx(0.5, abs=1e-12)
    # at v = 1/2 the weighted bound is the Kittaneh bound
    assert payload["weighted_bound"] == payload["kittaneh_bound"]
    assert set(payload) == {"spectral_norm", "numerical_radius", "kittaneh_bound",
                            "weighted_bound", "v"}


def test_bounds_has_no_theta_ref(capsys, tmp_path):
    # a per-vector refinement has no global angle to take
    path = tmp_path / "m.json"
    save_matrix(NILPOTENT, path)
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--input", str(path), "--v", "0.5", "--theta-ref", "0.3"])
    assert exc.value.code == 2


def test_angle_profile_subcommand(capsys, tmp_path):
    path = tmp_path / "m.json"
    save_matrix(NILPOTENT, path)
    code, out, _ = run(capsys, "angle-profile", "--input", str(path), "--v", "0",
                       "--samples", "500", "--seed", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["samples"] == 500
    assert payload["theta_max"] - payload["theta_min"] > 1.0
    assert len(payload["histogram"]) == 36


def test_readme_usage_lines_parse():
    # every `opineq ...` line of README's CLI block is a valid command line
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("opineq ")]
    assert len(lines) >= 10
    parser = _build_parser()
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        try:
            parser.parse_args(argv)
        except SystemExit as exc:
            pytest.fail(f"README usage line does not parse ({exc.code}): {line}")


def test_check_subcommand_writes_reports(capsys, tmp_path):
    jpath = tmp_path / "report.json"
    cpath = tmp_path / "report.csv"
    code, out, _ = run(capsys, "check", "--suite", "scalar", "--trials", "50",
                       "--seed", "7", "--out", str(jpath), "--csv", str(cpath))
    assert code == 0
    assert "total failures: 0" in out
    report = json.loads(jpath.read_text())
    assert report["config"]["seed"] == 7
    assert cpath.read_text().startswith("name,pass,fail")


def test_check_reports_are_reproducible(capsys, tmp_path):
    p1 = tmp_path / "r1.json"
    p2 = tmp_path / "r2.json"
    for path in (p1, p2):
        code, _, _ = run(capsys, "check", "--suite", "all", "--trials", "100",
                         "--operator-trials", "4", "--seed", "7", "--out", str(path))
        assert code == 0
    r1 = json.loads(p1.read_text())
    r2 = json.loads(p2.read_text())
    r1.pop("wall_ms")
    r2.pop("wall_ms")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_usage_errors_exit_2(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["mu", "--theta", "abc"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["segment", "--c", "1", "--d", "0,0"])
    assert exc.value.code == 2

    code, _, err = run(capsys, "radius", "--input", str(tmp_path / "missing.json"))
    assert code == 2 and "error:" in err

    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, _, err = run(capsys, "radius", "--input", str(bad))
    assert code == 2 and "error:" in err

    code, _, err = run(capsys, "mu", "--theta", "nan")
    assert code == 2 and "error:" in err


def test_radius_rejects_non_finite_matrix_json(capsys, tmp_path):
    # Python's json reads and writes NaN and Infinity; the matrix loader must not
    path = tmp_path / "nan.json"
    path.write_text(json.dumps({"rows": 2, "cols": 2,
                                "data": [[[math.nan, 0.0], [1.0, 0.0]],
                                         [[0.0, 0.0], [0.0, 0.0]]]}))
    code, out, err = run(capsys, "radius", "--input", str(path))
    assert code == 2 and out == "" and "finite" in err
    # an integer beyond the double range is no finite entry either
    path.write_text('{"rows": 1, "cols": 1, "data": [[[1' + "0" * 400 + ', 0]]]}')
    code, out, err = run(capsys, "radius", "--input", str(path))
    assert code == 2 and out == "" and "finite" in err
