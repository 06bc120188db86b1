import json
import math
import shlex
from pathlib import Path

import numpy as np
import pytest

import opineq
from opineq.cli import _build_parser, main
from opineq.linalg import numerical_radius

NILPOTENT = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def write_matrix(M, path):
    """Write M in the matrix JSON interchange format that `--input` reads."""
    data = [[[z.real, z.imag] for z in row] for row in np.asarray(M, dtype=complex).tolist()]
    Path(path).write_text(json.dumps({"rows": len(data), "cols": len(data[0]), "data": data}))


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


def test_segment_with_a_modulus_beyond_the_double_range(capsys):
    # finite parts whose modulus |c| overflows, though I(c, 0) = |c|/2 does not
    code, out, _ = run(capsys, "segment", "--c", "1.5e308,1.5e308", "--d", "0,0", "--json")
    assert code == 0
    assert json.loads(out)["closed"] == pytest.approx(1.5e308 / math.sqrt(2.0), rel=1e-15)
    # the quadrature sums at unit scale, so it stays finite there too
    code, out, _ = run(capsys, "segment", "--c", "1.5e308,1.5e308", "--d", "0,0",
                       "--quadrature", "8")
    assert code == 0
    assert out.splitlines() == ["closed = 1.0606601717798212e+308",
                                "quadrature[8] = 1.0606601717798214e+308"]
    # where I itself leaves the double range, the closed form is inf
    code, out, _ = run(capsys, "segment", "--c", "1.5e308,1.5e308", "--d", "1.5e308,1.5e308")
    assert code == 0
    assert out.strip() == "closed = inf"


def test_triangle_holds_on_subnormal_ends(capsys):
    code, out, _ = run(capsys, "triangle", "--c", "5e-324,0", "--d", "0,5e-324", "--json")
    assert code == 0
    assert json.loads(out)["holds"] is True


def test_triangle_chain_and_exit_code(capsys):
    code, out, _ = run(capsys, "triangle", "--c", "1,0", "--d", "-1,0", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["lhs"] == 0.0
    assert payload["mid"] == pytest.approx(0.5, abs=1e-15)
    assert payload["rhs"] == 1.0
    assert payload["holds"] is True
    # a segment one ulp long, far from the origin: I(c, d) must not fall below |c + d|/2
    code, out, _ = run(capsys, "triangle", "--c", "3,1", "--d", "3.0000000000000004,1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["mid"] >= payload["lhs"]
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
    write_matrix(NILPOTENT, path)
    code, out, _ = run(capsys, "radius", "--input", str(path))
    assert code == 0
    assert float(out.strip()) == pytest.approx(0.5, abs=1e-8)
    # finite entries near the double range: (M + M*)/2 must not overflow
    write_matrix(np.array([[1e308, 1e308], [0.0, 0.0]]), path)
    code, out, _ = run(capsys, "radius", "--input", str(path))
    assert code == 0
    assert float(out.strip()) == pytest.approx((1.0 + math.sqrt(2.0)) / 2.0 * 1e308, rel=1e-14)
    # ||(|A| + |A*|)/2|| stays finite; at v = 0.3, sigma^1.4 leaves the double range
    code, out, _ = run(capsys, "bounds", "--input", str(path), "--v", "0.5", "--json")
    assert code == 0
    assert all(math.isfinite(value) for value in json.loads(out).values())
    code, out, err = run(capsys, "bounds", "--input", str(path), "--v", "0.3")
    assert code == 2 and out == "" and "double range" in err


def test_radius_subcommand_uses_library_defaults(capsys, tmp_path):
    rng = np.random.default_rng(77)
    A = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    path = tmp_path / "m.json"
    write_matrix(A, path)
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
    write_matrix(NILPOTENT, path)
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
    write_matrix(NILPOTENT, path)
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--input", str(path), "--v", "0.5", "--theta-ref", "0.3"])
    assert exc.value.code == 2


def test_angle_profile_subcommand(capsys, tmp_path):
    path = tmp_path / "m.json"
    write_matrix(NILPOTENT, path)
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


def test_public_names_are_pinned():
    # a name joins or leaves the package's surface only on purpose
    assert sorted(opineq.__all__) == [
        "AngleProfile", "ChainReport", "CheckStats", "EigSystem", "PolarFrame",
        "SuiteSummary", "SweepConfig", "angle_profile", "check_geomean_lower",
        "check_log_bound", "check_mixed_schwarz", "check_radius_chain", "check_reverse_cs",
        "check_reverse_triangle", "check_triangle_refinement", "frac_power", "gamma",
        "gauss_legendre", "gauss_legendre_01", "gen_instance", "geometric_mean",
        "hermitian_eig", "is_unitary", "kittaneh_bound", "load_matrix", "matrix_from_json",
        "mu", "mu_derivative", "nu", "numerical_radius", "polar", "run_suite",
        "segment_mean_abs", "segment_mean_abs_quadrature", "spectral_norm",
        "summary_to_dict", "svd", "write_report"]
    assert all(hasattr(opineq, name) for name in opineq.__all__)


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
