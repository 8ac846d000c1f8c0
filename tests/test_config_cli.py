import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import hwmlab
from hwmlab.cli import main
from hwmlab.config import DEFAULT_TEXT, ConfigError, ExperimentConfig, config_hash, load_config, parse_config
from hwmlab.experiments import build_datum, rng_for, run_bench, run_evolve, write_text_atomic
from hwmlab.grassmann import loop_to_json


BASE_CFG = """
experiment = evolve
datum = blaschke
blaschke_zeros = 0.0
velocity = 0.5
N = 16
t0 = 0.0
t1 = 5.0
samples = 6
seed = 9
"""


def test_parse_defaults_and_types():
    cfg = parse_config(BASE_CFG)
    assert cfg.velocity == 0.5
    assert cfg.samples == 6
    assert cfg.blaschke_zeros == (0.0 + 0.0j,)
    assert cfg.d == 2  # untouched default


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("experiment = evolve\nnonsense = 3\n")


def test_parse_rejects_bad_values():
    with pytest.raises(ConfigError):
        parse_config("experiment = warp\n")
    with pytest.raises(ConfigError):
        parse_config("velocity = 1.5\n")
    with pytest.raises(ConfigError):
        parse_config("samples = zero\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("seed = 1\nseed = 2\n")
    with pytest.raises(ConfigError):
        parse_config("d = 2\nk = 2\n")


def test_config_hash_tracks_content():
    a = parse_config(BASE_CFG)
    b = parse_config(BASE_CFG.replace("seed = 9", "seed = 10"))
    assert config_hash(a) != config_hash(b)
    assert config_hash(a) == config_hash(parse_config(BASE_CFG))


def test_rng_is_counter_based_and_seeded():
    cfg = parse_config(BASE_CFG)
    a = rng_for(cfg).random(4)
    b = rng_for(cfg).random(4)
    assert np.array_equal(a, b)
    assert isinstance(rng_for(cfg).bit_generator, np.random.Philox)


def test_build_datum_deterministic():
    cfg = parse_config(BASE_CFG.replace("blaschke_zeros = 0.0", "blaschke_degree = 2") .replace("N = 16", "N = 64"))
    a = build_datum(cfg)
    b = build_datum(cfg)
    assert np.array_equal(a.series.coeffs, b.series.coeffs)


def test_evolve_csv_deterministic(tmp_path):
    cfg = parse_config(BASE_CFG)
    run_evolve(cfg, tmp_path / "a", quiet=True)
    run_evolve(cfg, tmp_path / "b", quiet=True)
    a = (tmp_path / "a" / "trajectory.csv").read_text()
    b = (tmp_path / "b" / "trajectory.csv").read_text()
    assert a == b
    assert a.splitlines()[0].startswith("# hwmlab")
    assert config_hash(cfg) in a.splitlines()[0]


def test_cli_evolve_and_resume(tmp_path):
    runner = CliRunner()
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(BASE_CFG)
    out = tmp_path / "out"
    res = runner.invoke(main, ["evolve", "--config", str(cfg_file), "--out", str(out), "--quiet"])
    assert res.exit_code == 0, res.output
    assert (out / "trajectory.csv").exists()
    assert (out / "loop_initial.json").exists()

    # resume from the final snapshot deterministically
    resume_cfg = tmp_path / "resume.cfg"
    resume_cfg.write_text(
        "experiment = evolve\ndatum = file\nfile = {}\nt1 = 2.0\nsamples = 3\n".format(
            out / "loop_final.json"
        )
    )
    res2 = runner.invoke(main, ["evolve", "--config", str(resume_cfg), "--out", str(tmp_path / "o2"), "--quiet"])
    assert res2.exit_code == 0, res2.output
    res3 = runner.invoke(main, ["evolve", "--config", str(resume_cfg), "--out", str(tmp_path / "o3"), "--quiet"])
    assert (tmp_path / "o2" / "trajectory.csv").read_text() == (tmp_path / "o3" / "trajectory.csv").read_text()


def test_cli_spectrum_report(tmp_path):
    runner = CliRunner()
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(BASE_CFG.replace("experiment = evolve", "experiment = spectrum"))
    out = tmp_path / "spec"
    res = runner.invoke(main, ["spectrum", "--config", str(cfg_file), "--out", str(out), "--quiet"])
    assert res.exit_code == 0, res.output
    payload = json.loads((out / "spectrum.json").read_text())
    assert set(payload) >= {"eigenvalues", "near_edge_count", "residuals", "rank_sweep"}
    ranks = {int(v["rank"]) for v in payload["rank_sweep"].values()}
    assert ranks == {2}


def test_cli_usage_errors_exit_2(tmp_path):
    runner = CliRunner()
    res = runner.invoke(main, ["evolve", "--config", str(tmp_path / "missing.cfg")])
    assert res.exit_code == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("walrus = true\n")
    res2 = runner.invoke(main, ["validate", "--config", str(bad)])
    assert res2.exit_code == 2
    small = tmp_path / "small.cfg"
    small.write_text("datum = blaschke\nblaschke_zeros = 0.9\nN = 16\n")
    res3 = runner.invoke(main, ["evolve", "--config", str(small)])
    assert res3.exit_code == 2  # cutoff cannot resolve the requested zeros


def test_cli_numerical_failure_exits_1(tmp_path, monkeypatch):
    # LinAlgError subclasses ValueError, but a failed eigensolve is no usage error
    from hwmlab import experiments

    def failing_run(cfg, out, quiet=False):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(experiments, "run_spectrum", failing_run)
    res = CliRunner().invoke(main, ["spectrum", "--out", str(tmp_path / "s")])
    assert res.exit_code == 1
    assert "numerical failure: Eigenvalues did not converge" in res.output
    assert "Usage" not in res.output


def test_cli_validate_flags_corrupted_loop(tmp_path):
    from hwmlab.grassmann import BlaschkeProduct, half_harmonic_map

    loop = half_harmonic_map(BlaschkeProduct(0.0, (0.0,)), N=8)
    payload = json.loads(loop_to_json(loop))
    # corrupt the (0,0) entry of the zero mode: stays Hermitian, breaks U^2 = 1
    payload["coeffs"][loop.N * loop.d * loop.d] = [2.0, 0.0]
    bad_file = tmp_path / "bad_loop.json"
    bad_file.write_text(json.dumps(payload))

    cfg_file = tmp_path / "v.cfg"
    cfg_file.write_text(f"experiment = validate\ndatum = file\nfile = {bad_file}\n")
    runner = CliRunner()
    res = runner.invoke(main, ["validate", "--config", str(cfg_file), "--out", str(tmp_path / "v")])
    assert res.exit_code == 1
    assert "FAIL loop_file_constraints" in res.output
    assert "involution" in res.output


def test_cli_seed_override_changes_output(tmp_path):
    runner = CliRunner()
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(BASE_CFG.replace("blaschke_zeros = 0.0", "blaschke_degree = 1").replace("N = 16", "N = 64"))
    outs = {}
    for seed in (1, 2):
        out = tmp_path / f"s{seed}"
        res = runner.invoke(main, ["evolve", "--config", str(cfg_file), "--out", str(out), "--seed", str(seed), "--quiet"])
        assert res.exit_code == 0, res.output
        outs[seed] = (out / "loop_initial.json").read_text()
    assert outs[1] != outs[2]


def test_integrator_rows_share_trajectory_schema(tmp_path):
    from hwmlab.experiments import integrator_trajectory_rows, trajectory_rows
    from hwmlab.evolution import make_plan
    from hwmlab.integrator import integrate

    cfg = parse_config(BASE_CFG)
    loop = build_datum(cfg)
    plan = make_plan(loop)
    exact = trajectory_rows(plan, [0.0, 0.1])
    states = integrate(loop, 0.1, 0.05, sample_every=1)
    direct = integrator_trajectory_rows(states)
    assert set(direct[0]) == set(exact[0][0])
    assert abs(direct[-1]["energy"] - exact[-1][0]["energy"]) < 1e-9


def test_cli_validate_reduced_cutoff_downgrades(tmp_path):
    cfg_file = tmp_path / "v.cfg"
    cfg_file.write_text("experiment = validate\nN = 12\nseed = 4\n")
    runner = CliRunner()
    res = runner.invoke(main, ["validate", "--config", str(cfg_file), "--out", str(tmp_path / "v")])
    assert res.exit_code == 0, res.output
    assert "FAIL" not in res.output


def test_cli_validate_reads_datum(tmp_path):
    from hwmlab.evolution import make_plan
    from hwmlab.operators import kronecker_rank

    cfg_file = tmp_path / "v.cfg"
    cfg_file.write_text("experiment = validate\ndatum = random_rational\nd = 3\ntwists = 2\n")
    out = tmp_path / "v"
    res = CliRunner().invoke(main, ["validate", "--config", str(cfg_file), "--out", str(out), "--quiet"])
    assert res.exit_code == 0, res.output
    cfg = load_config(cfg_file)
    loop = build_datum(cfg)
    plan = make_plan(loop, N_out=cfg.N_out, rank_tol=cfg.rank_tol, tail_tol=cfg.tail_tol)
    rank = kronecker_rank(loop, plan.N_op)[0]
    lines = (out / "validate.txt").read_text().splitlines()
    (line,) = [ln for ln in lines if " hankel_rank_conserved " in ln]
    assert line == f"PASS hankel_rank_conserved (rank {rank} at t0, {rank} at t1)"


def test_validate_default_config_passes_without_warnings():
    from hwmlab.checks import run_invariant_suite

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = run_invariant_suite(ExperimentConfig())
    assert [r.name for r in results if not r.passed] == []


def test_cli_init_config_writes_atomically(tmp_path, monkeypatch):
    targets = []
    real_replace = os.replace

    def recording_replace(src, dst):
        targets.append(str(dst))
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", recording_replace)
    target = tmp_path / "run.cfg"
    res = CliRunner().invoke(main, ["init-config", str(target)])
    assert res.exit_code == 0, res.output
    assert targets == [str(target)]
    assert load_config(target) == parse_config(DEFAULT_TEXT)
    assert not list(tmp_path.glob("*.tmp"))


def test_default_artifacts_are_byte_reproducible(tmp_path):
    # byte equality holds at an equal BLAS thread count; fresh interpreters at one thread
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(hwmlab.__file__).parents[1]),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
    )
    for command, artifact in (("spectrum", "spectrum.json"), ("stability", "stability.csv")):
        runs = []
        for i in range(2):
            out = tmp_path / f"{command}{i}"
            cmd = [sys.executable, "-m", "hwmlab.cli", command, "--out", str(out), "--quiet"]
            subprocess.run(cmd, env=env, capture_output=True, check=True)
            runs.append((out / artifact).read_bytes())
        assert runs[0] == runs[1]


def test_default_text_is_the_default_config():
    # `hwmlab validate` without a config and the fresh template check one datum under one hash
    assert parse_config(DEFAULT_TEXT) == ExperimentConfig()
    assert config_hash(parse_config(DEFAULT_TEXT)) == config_hash(ExperimentConfig())


def test_bench_console_prints_measured_crossover(tmp_path, capsys):
    cfg = parse_config(BASE_CFG + "bench_degrees = 1\n")
    assert run_bench(cfg, tmp_path) == 0
    printed = capsys.readouterr().out.split("crossover t*=")[1].split()[0]
    header, row = (tmp_path / "bench.csv").read_text().splitlines()[1:]
    crossover = float(row.split(",")[header.split(",").index("crossover_t")])
    assert printed == f"{crossover:.3g}"
    assert float(printed) > 0.0


def test_bench_times_one_batched_solve(tmp_path, monkeypatch):
    # evolve solves all its times in one batch, so the bench's per-time cost must too
    from hwmlab import experiments

    def lone_solve(*args):
        raise AssertionError("run_bench timed a lone per-time solve")

    monkeypatch.setattr(experiments, "solve_at_time", lone_solve, raising=False)
    cfg = parse_config(BASE_CFG + "bench_degrees = 1\n")
    assert run_bench(cfg, tmp_path, quiet=True) == 0
    header, row = (tmp_path / "bench.csv").read_text().splitlines()[1:]
    assert float(row.split(",")[header.split(",").index("solve_per_time_s")]) > 0.0


def test_write_text_atomic_uses_unique_temp_files(tmp_path, monkeypatch):
    sources = []
    real_replace = os.replace

    def recording_replace(src, dst):
        sources.append(src)
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", recording_replace)
    target = tmp_path / "out" / "a.csv"
    write_text_atomic(target, "first\n")
    write_text_atomic(target, "second\n")
    assert len(set(sources)) == 2
    assert all(os.path.dirname(src) == str(target.parent) for src in sources)
    assert target.read_text() == "second\n"
    assert not list(target.parent.glob("*.tmp"))


def test_write_text_atomic_failure_leaves_target_and_no_temp(tmp_path, monkeypatch):
    target = tmp_path / "a.csv"
    write_text_atomic(target, "kept\n")

    def failing_fsync(fd):
        raise OSError("disk full")

    monkeypatch.setattr(os, "fsync", failing_fsync)
    with pytest.raises(OSError, match="disk full"):
        write_text_atomic(target, "lost\n")
    assert target.read_text() == "kept\n"
    assert not list(tmp_path.glob("*.tmp"))
