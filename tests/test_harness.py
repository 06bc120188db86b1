import json
import re
import tracemalloc

import numpy as np
import pytest

from opineq import harness, operators, scalars
from opineq.harness import (
    MATRIX_KINDS,
    CheckStats,
    SuiteSummary,
    SweepConfig,
    gen_instance,
    run_suite,
    summary_to_dict,
    trial_rng,
    write_report,
)
from opineq.linalg import is_unitary, numerical_radius, spectral_norm
from opineq.scalars import ChainReport

SMALL = dict(seed=1, trials=60, operator_trials=6)


# --- config ------------------------------------------------------------------


def test_config_defaults_match_acceptance_run():
    cfg = SweepConfig()
    assert cfg.trials == 10_000
    assert cfg.operator_trials == 200
    assert cfg.dims == (2, 3, 4, 6, 8)
    assert 0.5 in cfg.v_grid and 0.0 in cfg.v_grid and 1.0 in cfg.v_grid


@pytest.mark.parametrize("kwargs", [dict(trials=0), dict(operator_trials=0)])
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        SweepConfig(**kwargs)


def test_config_fixes_grids_and_tolerances():
    # only seed, trials and operator_trials are settable ...
    with pytest.raises(TypeError):
        SweepConfig(dims=(2,))
    with pytest.raises(TypeError):
        SweepConfig(tolerances={})
    # ... but a report still echoes every fixed value
    config = summary_to_dict(run_suite(SweepConfig(**SMALL), suite="scalar"))["config"]
    assert config["dims"] == (2, 3, 4, 6, 8)
    assert config["v_grid"] == (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)
    assert config["t_grid"] == (0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95)
    assert config["scalar_scale"] == 10.0
    assert config["ensembles"] == MATRIX_KINDS
    assert config["tolerances"] == {
        "scalar_chain": 1e-10, "operator_chain": 1e-8, "radius": 1e-8, "equality": 1e-12,
        "geomean_equality": 1e-10, "grid_monotonicity": 1e-12, "derivative_rel": 1e-6}


# --- gen_instance -------------------------------------------------------------


def test_gen_instance_deterministic():
    a = gen_instance(trial_rng(42, 1, 0), "ginibre", 4)
    b = gen_instance(trial_rng(42, 1, 0), "ginibre", 4)
    c = gen_instance(trial_rng(42, 1, 1), "ginibre", 4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_gen_instance_kinds():
    rng = trial_rng(1, 2, 3)
    H = gen_instance(rng, "hermitian", 4)
    assert np.allclose(H, H.conj().T)
    P = gen_instance(trial_rng(1, 2, 4), "psd", 3)
    assert np.allclose(P, P.conj().T)
    assert np.linalg.eigvalsh(P).min() >= -1e-10
    U = gen_instance(trial_rng(7, 2, 5), "unitary", 5)
    assert is_unitary(U, tol=1e-10)
    N = gen_instance(trial_rng(1, 2, 6), "nilpotent-like", 4)
    assert np.allclose(np.tril(N), 0.0)
    x = gen_instance(trial_rng(1, 2, 7), "unit-vector", 6)
    assert abs(np.linalg.norm(x) - 1.0) < 1e-12
    c, d = gen_instance(trial_rng(1, 2, 8), "scalar-pair", 0, scale=10.0)
    assert abs(c) <= 10.0 and abs(d) <= 10.0
    with pytest.raises(ValueError, match="unknown kind"):
        gen_instance(rng, "wishart", 3)


def test_gen_instance_scalar_pair_keeps_its_draw():
    # the disk-pair formula as it read before it was shared with the block draw
    for trial in range(300):
        rng = trial_rng(11, 1, trial, trial % 4)
        radii = 10.0 * np.sqrt(rng.uniform(size=2))
        z = radii * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=2))
        pair = gen_instance(trial_rng(11, 1, trial, trial % 4), "scalar-pair", 0, 10.0)
        assert pair == (complex(z[0]), complex(z[1]))
        assert all(type(v) is complex for v in pair)


# --- run_suite -----------------------------------------------------------------


def test_small_suite_zero_fails():
    summary = run_suite(SweepConfig(**SMALL))
    assert sum(c.n_fail for c in summary.checks) == 0
    names = {c.name for c in summary.checks}
    assert {
        "triangle_refinement",
        "reverse_triangle",
        "log_bound",
        "mu_grid_properties",
        "gamma_grid_properties",
        "mu_derivative_consistency",
        "mixed_schwarz",
        "radius_chain",
        "reverse_cs",
        "geomean_lower",
        "radius_sandwich",
    } <= names


def test_suite_counts_sum_to_trials():
    cfg = SweepConfig(**SMALL)
    summary = run_suite(cfg)
    by_name = {c.name: c for c in summary.checks}
    for name in ("triangle_refinement", "reverse_triangle", "log_bound"):
        c = by_name[name]
        assert c.n_pass + c.n_fail + c.n_undefined + c.n_skipped == cfg.trials
    for name in ("mixed_schwarz", "radius_chain", "reverse_cs", "geomean_lower",
                 "radius_sandwich"):
        c = by_name[name]
        total = cfg.operator_trials * len(cfg.dims)
        assert c.n_pass + c.n_fail + c.n_undefined + c.n_skipped == total
    # nilpotent-like trials are skipped by the geometric-mean check
    assert by_name["geomean_lower"].n_skipped > 0


def test_suite_deterministic_modulo_wall_time():
    s1 = run_suite(SweepConfig(**SMALL))
    s2 = run_suite(SweepConfig(**SMALL))
    d1 = json.dumps(summary_to_dict(s1, include_wall=False), sort_keys=True)
    d2 = json.dumps(summary_to_dict(s2, include_wall=False), sort_keys=True)
    assert d1 == d2


def test_suite_subsets():
    scalar = run_suite(SweepConfig(**SMALL), suite="scalar")
    operator = run_suite(SweepConfig(**SMALL), suite="operator")
    assert all(not c.name.startswith(("mixed", "radius", "reverse_cs", "geomean"))
               for c in scalar.checks)
    assert all(c.name in ("mixed_schwarz", "radius_chain", "reverse_cs",
                          "geomean_lower", "radius_sandwich")
               for c in operator.checks)
    with pytest.raises(ValueError):
        run_suite(SweepConfig(**SMALL), suite="everything")


def test_zero_tolerance_turns_round_off_into_fails():
    # at the fixed tolerances every chain check's worst slack is round-off at
    # most: it stays above -1e-10
    summary = run_suite(SweepConfig(**SMALL))
    chain_checks = [c for c in summary.checks if c.name not in
                    ("mu_grid_properties", "gamma_grid_properties",
                     "mu_derivative_consistency")]
    for c in chain_checks:
        if c.worst_slack is not None:
            assert c.worst_slack >= -1e-10, c


def _scalar_report_bytes(cfg):
    return json.dumps(summary_to_dict(run_suite(cfg, suite="scalar"), include_wall=False),
                      sort_keys=True)


def test_scalar_digest_replays_from_its_counter_block():
    # 2,500 trials cross two chunk boundaries of the block draw
    cfg = SweepConfig(trials=2500)
    by_name = {c.name: c for c in run_suite(cfg, suite="scalar").checks}

    def block(j, digest):
        k = int(re.search(r";trial=(\d+)", digest).group(1))
        rng = trial_rng(cfg.seed, 1, 0, j)
        rng.bit_generator.advance(k)
        return rng

    tri = by_name["triangle_refinement"]
    c, d = gen_instance(block(1, tri.worst_digest), "scalar-pair", 0, cfg.scalar_scale)
    assert scalars.check_triangle_refinement(c, d).worst_slack == tri.worst_slack

    rev = by_name["reverse_triangle"]
    c, d = gen_instance(block(2, rev.worst_digest), "scalar-pair", 0, cfg.scalar_scale)
    t = float(re.search(r";t=([^;]+)", rev.worst_digest).group(1))
    assert scalars.check_reverse_triangle(c, d, t).worst_slack == rev.worst_slack

    log = by_name["log_bound"]
    x = float(block(3, log.worst_digest).uniform(-0.9999, 0.9999))
    assert log.worst_digest.endswith(f";x={x!r}")
    assert scalars._log_bound_margin(x) == log.worst_slack


@pytest.mark.parametrize("chunk", [1, 7])
def test_scalar_report_is_independent_of_the_chunk_size(monkeypatch, chunk):
    cfg = SweepConfig(seed=5, trials=2500)
    expected = _scalar_report_bytes(cfg)
    monkeypatch.setattr(harness, "_SCALAR_CHUNK", chunk)
    assert _scalar_report_bytes(cfg) == expected


def test_scalar_trials_draw_in_bounded_memory():
    tracemalloc.start()
    try:
        harness._run_scalar_trials(SweepConfig(trials=10_000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20, peak


def _operator_report_bytes(cfg):
    return json.dumps(summary_to_dict(run_suite(cfg, suite="operator"), include_wall=False),
                      sort_keys=True)


@pytest.mark.parametrize("block", [1, 7])
def test_operator_report_is_independent_of_the_block_size(monkeypatch, block):
    # 60 trials per dimension cross one boundary of the default block
    cfg = SweepConfig(seed=5, operator_trials=60)
    expected = _operator_report_bytes(cfg)
    monkeypatch.setattr(harness, "_OPERATOR_BLOCK", block)
    assert _operator_report_bytes(cfg) == expected


def test_operator_blocks_report_what_the_public_checks_report():
    # the stacked kernels against the public checks, one trial at a time
    cfg = SweepConfig(seed=11, operator_trials=24)
    tol = cfg.tolerances
    stats = {name: CheckStats(name) for name in (
        "mixed_schwarz", "radius_chain", "reverse_cs", "geomean_lower", "radius_sandwich")}
    for dim in cfg.dims:
        for k in range(cfg.operator_trials):
            kind, v, t = (grid[k % len(grid)] for grid in (cfg.ensembles, cfg.v_grid, cfg.t_grid))
            digest = f"seed={cfg.seed};dim={dim};trial={k};kind={kind};v={v:g};t={t:g}"
            rng = trial_rng(cfg.seed, 2, k, dim)
            A = gen_instance(rng, kind, dim)
            x, y, xv, yv = (gen_instance(rng, vk, dim)
                            for vk in ("unit-vector", "unit-vector", "vector", "vector"))
            op_tol = tol["operator_chain"]
            stats["mixed_schwarz"].add(digest, operators.check_mixed_schwarz(A, x, y, v, op_tol))
            stats["radius_chain"].add(digest, operators.check_radius_chain(A, v, x, op_tol))
            stats["reverse_cs"].add(digest, operators.check_reverse_cs(
                xv, yv, t, op_tol, tol["equality"]))
            geo = None
            if kind in harness.INVERTIBLE_KINDS:
                try:
                    geo = operators.check_geomean_lower(A, v, x, op_tol, tol["geomean_equality"])
                except ValueError:
                    pass
            stats["geomean_lower"].add(digest, geo)
            w, nrm, kb = numerical_radius(A), spectral_norm(A), operators.kittaneh_bound(A)
            slacks = (w - nrm / 2.0, nrm - w, kb - w, nrm - kb)
            stats["radius_sandwich"].add(digest, ChainReport(
                (), min(slacks) >= -tol["radius"] * max(1.0, nrm), min(slacks)))
    expected = summary_to_dict(SuiteSummary(cfg, tuple(stats.values()), 0.0), include_wall=False)
    got = summary_to_dict(run_suite(cfg, suite="operator"), include_wall=False)
    assert got == expected


def test_operator_trials_run_in_bounded_memory():
    harness._run_operator_trials(SweepConfig(operator_trials=5))  # first-call allocations
    tracemalloc.start()
    try:
        harness._run_operator_trials(SweepConfig())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 1.3 MiB in 50-trial blocks; whole-dimension blocks of 200 take 4.8 MiB
    assert peak <= 3 << 20, peak


# --- aggregation ---------------------------------------------------------------


def test_check_stats_add_counts_buckets_and_keeps_first_worst():
    stats = CheckStats("probe")
    stats.add("skipped", None)
    # an undefined report is counted, but its slack is no verdict's slack
    stats.add("undefined", ChainReport((("t", 1.0),), True, -5.0, angle_undefined=True))
    for digest, slack in [("big", 5e4), ("mid", 3e-7), ("first-worst", -1e-20),
                          ("zero", 0.0), ("tiny", 5e-19)]:
        stats.add(digest, ChainReport((("t", 1.0),), True, slack))
    stats.add("tied-worst", ChainReport((("t", 1.0),), False, -1e-20))

    assert (stats.n_pass, stats.n_fail, stats.n_undefined, stats.n_skipped) == (5, 1, 1, 1)
    assert stats.worst_slack == -1e-20
    assert stats.worst_digest == "first-worst"
    # 5e-19 and 5e4 clamp to the end decades; order is by decade, not arrival
    expected = [["negative", 2], ["zero", 1], ["1e-18", 1], ["1e-07", 1], ["1e+03", 1]]
    assert [list(b) for b in stats.slack_histogram] == expected
    summary = SuiteSummary(config=SweepConfig(**SMALL), checks=(stats,), wall_ms=0.0)
    assert summary_to_dict(summary)["checks"][0]["slack_histogram"] == expected


# --- reports -------------------------------------------------------------------


def test_write_report_json_echoes_config(tmp_path):
    cfg = SweepConfig(**SMALL)
    summary = run_suite(cfg, suite="scalar")
    path = tmp_path / "report.json"
    write_report(summary, path, format="json")
    obj = json.loads(path.read_text())
    assert obj["config"]["seed"] == cfg.seed
    assert obj["config"]["trials"] == cfg.trials
    assert obj["config"]["tolerances"] == cfg.tolerances
    assert obj["config"]["dims"] == list(cfg.dims)
    assert "wall_ms" in obj
    for entry in obj["checks"]:
        assert set(entry) >= {"name", "pass", "fail", "undefined", "skipped",
                              "worst_slack", "worst_digest"}


def test_write_report_csv_agrees_with_json(tmp_path):
    summary = run_suite(SweepConfig(**SMALL), suite="scalar")
    jpath = tmp_path / "r.json"
    cpath = tmp_path / "r.csv"
    write_report(summary, jpath, format="json")
    write_report(summary, cpath, format="csv")
    obj = json.loads(jpath.read_text())
    lines = cpath.read_text().strip().splitlines()
    assert lines[0] == "name,pass,fail,undefined,skipped,worst_slack"
    rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    assert len(rows) == len(obj["checks"])
    for entry in obj["checks"]:
        row = rows[entry["name"]]
        assert [int(row[1]), int(row[2]), int(row[3]), int(row[4])] == [
            entry["pass"], entry["fail"], entry["undefined"], entry["skipped"]]


def test_write_report_csv_slacks_are_plain_floats(tmp_path):
    # every worst_slack cell must parse as a number, including the operator
    # checks and the grid checks
    summary = run_suite(SweepConfig(**SMALL))
    path = tmp_path / "r.csv"
    write_report(summary, path, format="csv")
    rows = path.read_text().strip().splitlines()[1:]
    cells = [row.split(",")[5] for row in rows]
    assert len(cells) == 11 and all(cells)
    for cell in cells:
        float(cell)


def test_write_report_empty_summary(tmp_path):
    empty = SuiteSummary(config=SweepConfig(**SMALL), checks=(), wall_ms=0.0)
    jpath = tmp_path / "empty.json"
    cpath = tmp_path / "empty.csv"
    write_report(empty, jpath, format="json")
    write_report(empty, cpath, format="csv")
    assert json.loads(jpath.read_text())["checks"] == []
    assert cpath.read_text().strip() == "name,pass,fail,undefined,skipped,worst_slack"


def test_write_report_bad_path_and_format(tmp_path):
    summary = SuiteSummary(config=SweepConfig(**SMALL), checks=(), wall_ms=0.0)
    with pytest.raises(OSError, match="cannot write report"):
        write_report(summary, tmp_path / "no" / "dir" / "r.json")
    with pytest.raises(ValueError):
        write_report(summary, tmp_path / "r.xml", format="xml")
