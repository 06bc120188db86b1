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
from opineq.linalg import is_unitary, numerical_radius, svd
from opineq.scalars import ChainReport

SMALL = dict(seed=1, trials=60, operator_trials=6)


def add_reports(stats: CheckStats, reports: list, digest) -> None:
    """Record a block of public-check reports in order, the reference that the
    harness's array recording is compared against: None counts as skipped and
    an angle-undefined report as undefined; the verdicts of the rest enter
    `stats.add_verdicts`, with digest(i) the digest of attempt i of the block."""
    judged = [i for i, r in enumerate(reports) if r is not None and not r.angle_undefined]
    skipped = sum(r is None for r in reports)
    stats.n_skipped += skipped
    stats.n_undefined += len(reports) - skipped - len(judged)
    stats.add_verdicts(np.array([reports[i].holds for i in judged]),
                       np.array([reports[i].worst_slack for i in judged]),
                       lambda j: digest(judged[j]))


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
        "scalar_chain": 1e-12, "operator_chain": 1e-8, "radius": 1e-8, "equality": 1e-12,
        "geomean_equality": 1e-10, "grid_monotonicity": 1e-12, "derivative_rel": 1e-6}


# --- gen_instance -------------------------------------------------------------


def test_gen_instance_deterministic():
    a = gen_instance(trial_rng(42, 1, 0), "ginibre", 4)
    b = gen_instance(trial_rng(42, 1, 0), "ginibre", 4)
    c = gen_instance(trial_rng(42, 1, 1), "ginibre", 4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_trial_rng_rejects_keys_beyond_their_fields():
    # each of these aliased another key: (1, 2, 0, 256) drew as (1, 2, 0, 0),
    # stream 258 as stream 2, trial 2^48 as trial 0 and trial -1 as 2^48 - 1
    for args, field in (((1, 2, 0, 256), "dim"), ((1, 258, 0, 0), "stream"),
                        ((1, 2, 2**48, 0), "trial"), ((1, 2, -1, 0), "trial"),
                        ((1, -1, 0, 0), "stream"), ((1, 2, 0, -1), "dim")):
        with pytest.raises(ValueError, match=f"trial_rng: {field} must lie in"):
            trial_rng(*args)
    # a seed beyond its 64-bit key word aliased another: seed -1 drew as
    # 2^64 - 1 and 2^64 + 5 as 5, in trial_rng and in angle_profile
    for seed in (-1, 2**64, 2**64 + 5):
        with pytest.raises(ValueError, match="seed must lie in"):
            trial_rng(seed, 2, 0, 0)
        with pytest.raises(ValueError, match="seed must lie in"):
            operators.angle_profile(np.eye(2), 0.5, 3, seed)
    # the last key of every field is still taken
    assert trial_rng(1, 255, 2**48 - 1, 255).random() != trial_rng(1, 255, 2**48 - 2, 255).random()
    assert trial_rng(2**64 - 1, 2, 0, 0).random() != trial_rng(2**64 - 2, 2, 0, 0).random()
    # numpy integers are the same keys as Python ints
    for args in ((1, 2, np.int64(5), 3), (np.int64(1), 2, 0, 4), (np.uint64(2**63), np.int8(3), 7)):
        assert trial_rng(*args).random(3).tolist() == trial_rng(*map(int, args)).random(3).tolist()
    # a float is no key, not even an integral one: truncating 2.5 would alias trial 2
    for args in ((1, 2, 2.5, 0), (1, 2, 2.0, 0), (1, 2.0, 0, 0), (1, 2, 0, 3.0), (1.0, 2, 0, 0)):
        with pytest.raises(TypeError):
            trial_rng(*args)


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
    assert scalars.check_log_bound(x).worst_slack == log.worst_slack


@pytest.mark.parametrize("chunk", [1, 7])
def test_scalar_report_is_independent_of_the_chunk_size(monkeypatch, chunk):
    cfg = SweepConfig(seed=5, trials=2500)
    expected = _scalar_report_bytes(cfg)
    monkeypatch.setattr(harness, "_SCALAR_CHUNK", chunk)
    assert _scalar_report_bytes(cfg) == expected


def test_scalar_trials_draw_in_bounded_memory():
    harness._run_scalar_trials(SweepConfig(trials=5))  # first-call allocations
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


@pytest.mark.parametrize("block", [1, 7, 50])
def test_operator_report_is_independent_of_the_block_size(monkeypatch, block):
    # 60 trials per dimension fit in one default block (200) and cross a
    # boundary of each block size here
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
            # trial k alone, from its own counter blocks
            A, x, y, xv, yv = (a[0] for a in harness._operator_draws(cfg.seed, dim, k, [kind]))
            op_tol = tol["operator_chain"]
            add_reports(stats["mixed_schwarz"],
                        [operators.check_mixed_schwarz(A, x, y, v, op_tol)], lambda i: digest)
            add_reports(stats["radius_chain"],
                        [operators.check_radius_chain(A, v, x, op_tol)], lambda i: digest)
            add_reports(stats["reverse_cs"],
                        [operators.check_reverse_cs(xv, yv, t, op_tol, tol["equality"])],
                        lambda i: digest)
            geo = None
            if kind in harness.INVERTIBLE_KINDS:
                try:
                    geo = operators.check_geomean_lower(A, v, x, op_tol, tol["geomean_equality"])
                except ValueError:
                    pass
            add_reports(stats["geomean_lower"], [geo], lambda i: digest)
            # ||A|| is the top singular value of the polar frame's SVD
            w, nrm, kb = numerical_radius(A), svd(A)[1][0], operators.kittaneh_bound(A)
            # the chain ||A||/2 <= w(A) <= kittaneh <= ||A||, one slack per link
            slacks = (w - nrm / 2.0, kb - w, nrm - kb)
            sandwich = ChainReport((), min(slacks) >= -tol["radius"] * nrm, min(slacks))
            add_reports(stats["radius_sandwich"], [sandwich], lambda i: digest)
    expected = summary_to_dict(SuiteSummary(cfg, tuple(stats.values()), 0.0), include_wall=False)
    got = summary_to_dict(run_suite(cfg, suite="operator"), include_wall=False)
    assert got == expected


def test_operator_phase_builds_no_chain_report(monkeypatch):
    # every operator chain is judged as arrays, a block at a time: the phase
    # constructs no ChainReport, not even for a block's worst trial
    built = []
    init = ChainReport.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ChainReport, "__init__", counting_init)
    stats = harness._run_operator_trials(SweepConfig(operator_trials=20))
    assert sum(c.n_pass + c.n_fail for c in stats) > 0
    assert not built
    operators.check_mixed_schwarz(np.eye(2), [1.0, 0.0], [1.0, 0.0], 0.5)
    assert built  # the count sees a construction


def test_operator_digest_replays_from_its_counter_block(monkeypatch):
    # 60 trials per dimension cross one boundary of 50-trial blocks
    monkeypatch.setattr(harness, "_OPERATOR_BLOCK", 50)
    cfg = SweepConfig(operator_trials=60)
    by_name = {c.name: c for c in run_suite(cfg, suite="operator").checks}
    for name in ("radius_chain", "mixed_schwarz"):
        stats = by_name[name]
        fields = dict(item.split("=") for item in stats.worst_digest.split(";"))
        dim, k, v = int(fields["dim"]), int(fields["trial"]), float(fields["v"])
        A, x, y, _, _ = (a[0] for a in harness._operator_draws(cfg.seed, dim, k, [fields["kind"]]))
        if name == "radius_chain":
            rep = operators.check_radius_chain(A, v, x)
        else:
            rep = operators.check_mixed_schwarz(A, x, y, v)
        assert rep.worst_slack == stats.worst_slack, name


def test_operator_phase_draws_each_block_at_once(monkeypatch):
    # one generator per (dim, block), no per-trial instance draw, one stacked
    # SVD per block for the unitary ensemble instead of one per trial, a radius
    # scan that solves only the grid angles where the maximum can lie (only the
    # first level where ||A|| may bound the radius), a Newton phase from only
    # the peaks that can beat the scan (or the best first-level angle alone,
    # where ||A|| may bound it), and Kittaneh norms by eigvalsh, within budget
    cfg = SweepConfig()
    calls = {"svd": 0, "svd_matrices": 0, "eigh": 0, "eigh_matrices": 0,
             "eigvalsh": {}, "eigvalsh_matrices": {}, "gen_instance": 0, "trial_rng": {}}
    layer = ["other"]  # the operator layer whose eigvalsh work is counted
    svd_, eigh_, eigvalsh_ = np.linalg.svd, np.linalg.eigh, np.linalg.eigvalsh
    trial_rng_, gen_instance_ = harness.trial_rng, harness.gen_instance

    def matrices(M):
        return int(np.prod(np.shape(M)[:-2]))

    def counting_svd(M, *args, **kwargs):
        calls["svd"] += 1
        calls["svd_matrices"] += matrices(M)
        return svd_(M, *args, **kwargs)

    def counting_eigh(M, *args, **kwargs):
        calls["eigh"] += 1
        calls["eigh_matrices"] += matrices(M)
        return eigh_(M, *args, **kwargs)

    def counting_eigvalsh(M, *args, **kwargs):
        for key, n in (("eigvalsh", 1), ("eigvalsh_matrices", matrices(M))):
            calls[key][layer[-1]] = calls[key].get(layer[-1], 0) + n
        return eigvalsh_(M, *args, **kwargs)

    def in_layer(name, function):
        def wrapped(*args, **kwargs):
            layer.append(name)
            try:
                return function(*args, **kwargs)
            finally:
                layer.pop()
        return wrapped

    def counting_trial_rng(seed, stream, trial, dim=0):
        calls["trial_rng"][dim] = calls["trial_rng"].get(dim, 0) + 1
        return trial_rng_(seed, stream, trial, dim)

    def counting_gen_instance(*args, **kwargs):
        calls["gen_instance"] += 1
        return gen_instance_(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    monkeypatch.setattr(harness, "_numerical_radii", in_layer("radius", harness._numerical_radii))
    monkeypatch.setattr(operators, "_kittaneh_bounds",
                        in_layer("kittaneh", operators._kittaneh_bounds))
    monkeypatch.setattr(harness, "trial_rng", counting_trial_rng)
    monkeypatch.setattr(harness, "gen_instance", counting_gen_instance)
    harness._run_operator_trials(cfg)
    blocks = -(-cfg.operator_trials // harness._OPERATOR_BLOCK)
    assert calls["gen_instance"] == 0
    assert set(calls["trial_rng"]) == set(cfg.dims)
    assert max(calls["trial_rng"].values()) <= blocks, calls["trial_rng"]
    # measured: 15 SVD calls on 2,000 matrices (1,000 polar frames, 200
    # unitary draws, 800 geometric-mean forms)
    assert calls["svd"] <= 15 and calls["svd_matrices"] <= 2_000, calls
    # measured: 22 eigh calls on 4,662 matrices
    assert calls["eigh"] <= 22 and calls["eigh_matrices"] <= 4_760, calls
    # measured: 71 eigvalsh calls on 8,082 matrices in the radius, and 10 on
    # 2,000 in the Kittaneh norms; none elsewhere
    assert set(calls["eigvalsh"]) == {"radius", "kittaneh"}, calls
    assert calls["eigvalsh"]["radius"] <= 72, calls
    assert calls["eigvalsh_matrices"]["radius"] <= 8_250, calls
    assert calls["eigvalsh"]["kittaneh"] <= 10, calls
    assert calls["eigvalsh_matrices"]["kittaneh"] <= 2_000, calls


def test_scalar_blocks_report_what_the_public_checks_report(monkeypatch):
    # the scalar kernels against the public checks, one trial at a time; 2,500
    # trials in chunks of 300 (not a multiple of the t grid's 7) check each
    # chunk's weights across its boundaries
    monkeypatch.setattr(harness, "_SCALAR_CHUNK", 300)
    cfg = SweepConfig(seed=11, trials=2500)
    tol = cfg.tolerances["scalar_chain"]
    tri, rev, log = (CheckStats(name) for name in
                     ("triangle_refinement", "reverse_triangle", "log_bound"))
    rngs = [trial_rng(cfg.seed, 1, 0, j) for j in (1, 2, 3)]
    for k in range(cfg.trials):
        digest = f"seed={cfg.seed};trial={k}"
        c, d = gen_instance(rngs[0], "scalar-pair", 0, cfg.scalar_scale)
        add_reports(tri, [scalars.check_triangle_refinement(c, d, tol)], lambda i: digest)
        c, d = gen_instance(rngs[1], "scalar-pair", 0, cfg.scalar_scale)
        t = cfg.t_grid[k % len(cfg.t_grid)]
        add_reports(rev, [scalars.check_reverse_triangle(c, d, t, tol)],
                        lambda i: f"{digest};t={t:g}")
        x = -0.9999 + 1.9998 * float(rngs[2].random(4)[0])  # trial k reads counter block k
        add_reports(log, [scalars.check_log_bound(x)], lambda i: f"{digest};x={x!r}")
    expected = summary_to_dict(SuiteSummary(cfg, (tri, rev, log), 0.0), include_wall=False)
    got = summary_to_dict(SuiteSummary(cfg, harness._run_scalar_trials(cfg), 0.0),
                          include_wall=False)
    assert got == expected


def test_operator_trials_run_in_bounded_memory():
    # the block, not operator_trials, caps the memory: 400 trials run two blocks
    # per dimension. Measured: 2.35 MiB at 200 (one whole-dimension block) and
    # 2.44 MiB at 400
    harness._run_operator_trials(SweepConfig(operator_trials=5))  # first-call allocations
    for operator_trials in (200, 400):
        tracemalloc.start()
        try:
            harness._run_operator_trials(SweepConfig(operator_trials=operator_trials))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 << 20, (operator_trials, peak)


# --- aggregation ---------------------------------------------------------------


def test_check_stats_add_counts_buckets_and_keeps_first_worst():
    stats = CheckStats("probe")
    add_reports(stats, [None], lambda i: "skipped")
    # an undefined report is counted, but its slack is no verdict's slack
    add_reports(stats, [ChainReport((("t", 1.0),), True, -5.0, angle_undefined=True)],
                lambda i: "undefined")
    for digest, slack in [("big", 5e4), ("mid", 3e-7), ("first-worst", -1e-20),
                          ("zero", 0.0), ("tiny", 5e-19)]:
        add_reports(stats, [ChainReport((("t", 1.0),), True, slack)], lambda i: digest)
    add_reports(stats, [ChainReport((("t", 1.0),), False, -1e-20)], lambda i: "tied-worst")
    # the same attempts as one block
    digests = ["skipped", "undefined", "big", "mid", "first-worst", "zero", "tiny", "tied-worst"]
    reports = [None, ChainReport((("t", 1.0),), True, -5.0, angle_undefined=True)] + [
        ChainReport((("t", 1.0),), True, slack) for slack in (5e4, 3e-7, -1e-20, 0.0, 5e-19)] + [
        ChainReport((("t", 1.0),), False, -1e-20)]
    block = CheckStats("probe")
    add_reports(block, reports, digests.__getitem__)
    assert block == stats

    assert (stats.n_pass, stats.n_fail, stats.n_undefined, stats.n_skipped) == (5, 1, 1, 1)
    assert stats.worst_slack == -1e-20
    assert stats.worst_digest == "first-worst"
    # 5e-19 and 5e4 clamp to the end decades; order is by decade, not arrival
    expected = [["negative", 2], ["zero", 1], ["1e-18", 1], ["1e-07", 1], ["1e+03", 1]]
    assert [list(b) for b in stats.slack_histogram] == expected
    summary = SuiteSummary(config=SweepConfig(**SMALL), checks=(stats,), wall_ms=0.0)
    assert summary_to_dict(summary)["checks"][0]["slack_histogram"] == expected


def _slack_probes():
    """Slacks at and next to every decade edge, signed zeros, negatives,
    subnormals, and a tie for the worst slack."""
    edges = [float(f"1e{e}") for e in range(-18, 4)]
    probes = edges + [float(np.nextafter(x, 0.0)) for x in edges] + [
        float(np.nextafter(x, np.inf)) for x in edges]
    probes += [0.0, -0.0, 5e-324, 2.5e-310, -5e-324, -1e-20, -3.0, 5e4, -3.0, 7e-19]
    return probes


@pytest.mark.parametrize("block, path", [
    pytest.param(block, path, id=str(block) if path == "verdicts" else f"{path}-{block}")
    for path in ("verdicts", "reports") for block in (1, 5, 1000)])
def test_add_verdicts_builds_what_add_builds(block, path):
    slacks = _slack_probes()
    holds = [i % 3 != 0 for i in range(len(slacks))]
    reports = [ChainReport((), h, s) for h, s in zip(holds, slacks)]
    if path == "reports":
        # skipped and angle-undefined attempts interleaved with the verdicts
        undefined = ChainReport((), True, -5.0, angle_undefined=True)
        for i in range(len(reports), 0, -4):
            reports[i:i] = [None] if i % 8 else [undefined]
    one_by_one, blocked = CheckStats("probe"), CheckStats("probe")
    for i, report in enumerate(reports):
        add_reports(one_by_one, [report], lambda j: f"attempt {i}")
    for start in range(0, len(reports), block):
        if path == "verdicts":
            blocked.add_verdicts(np.array(holds[start:start + block]),
                                 np.array(slacks[start:start + block]),
                                 lambda i, start=start: f"attempt {start + i}")
        else:
            add_reports(blocked, reports[start:start + block],
                        lambda i, start=start: f"attempt {start + i}")
    assert blocked == one_by_one
    assert blocked.slack_histogram == one_by_one.slack_histogram
    assert one_by_one.n_pass + one_by_one.n_fail == len(slacks)
    if path == "reports":
        assert one_by_one.n_skipped > 0 and one_by_one.n_undefined > 0
    # the first of the two -3.0 slacks is the worst
    worst = next(i for i, r in enumerate(reports) if r is not None and r.worst_slack == -3.0)
    assert (blocked.worst_slack, blocked.worst_digest) == (-3.0, f"attempt {worst}")


def test_decade_buckets_read_the_doubles_nearest_the_powers_of_ten():
    stats = CheckStats("probe")
    for e in (-18, -5, 3):
        edge = float(f"1e{e}")
        add_reports(stats, [ChainReport((), True, edge),
                            ChainReport((), True, float(np.nextafter(edge, 0.0)))], lambda i: "")
    assert [list(b) for b in stats.slack_histogram] == [
        ["1e-18", 2], ["1e-06", 1], ["1e-05", 1], ["1e+02", 1], ["1e+03", 1]]


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
