"""Canned experiments behind the command-line interface.

Each runner takes a validated config, writes its artifacts atomically under
the output directory, and returns a process exit code: 0 for success or
all-pass, 1 for an invariant failure; its docstring is its subcommand's help
text.  Randomized data always come from a counter-based Philox generator
keyed by the single config seed, so a config plus seed reproduces every
artifact byte for byte below the version header, at an equal BLAS thread
count.
"""

from __future__ import annotations

import functools
import json
import os
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig, config_hash
from .hardy import FourierSeries, project_plus
from .grassmann import (
    BlaschkeProduct,
    GrassmannLoop,
    embed_block,
    loop_from_json,
    loop_to_json,
    pauli_encode,
    random_blaschke,
    random_rational_loop,
    random_unitary,
    traveling_profile,
    validate_loop,
)
from .operators import hermitian_eigh, kronecker_rank, toeplitz_vector_section
from .evolution import make_plan, solve_many
from .stability import (
    curve_verdict,
    hwm_model,
    model_at_time,
    strong_stability_test,
    zd_bo_norm_curve,
)
from .integrator import integrate

__all__ = [
    "rng_for",
    "build_datum",
    "run_evolve",
    "run_spectrum",
    "run_stability",
    "run_zdbo",
    "run_validate",
    "run_bench",
    "write_text_atomic",
]


def rng_for(cfg: ExperimentConfig) -> np.random.Generator:
    """Counter-based generator keyed by the config's 64-bit seed."""
    return np.random.Generator(np.random.Philox(key=cfg.seed))


def write_text_atomic(path: Path, text: str) -> None:
    """fsync a uniquely named sibling (umask mode, unlike mkstemp's 0600), then rename it."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fh = open(tmp, "x")
    try:
        with fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink()
        raise


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _csv(header_cols, rows, cfg: ExperimentConfig) -> str:
    lines = [f"# hwmlab {__version__} config={config_hash(cfg)}"]
    lines.append(",".join(header_cols))
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in header_cols))
    return "\n".join(lines) + "\n"


def build_datum(cfg: ExperimentConfig) -> GrassmannLoop:
    """Initial loop from the config's datum block (seeded where randomized)."""
    rng = rng_for(cfg)
    if cfg.datum == "file":
        try:
            text = Path(cfg.file).read_text()
        except OSError as exc:
            raise ValueError(f"cannot read loop file {cfg.file!r}: {exc}") from exc
        loop = loop_from_json(text)
        if (loop.d, loop.k) != (cfg.d, cfg.k):
            raise ValueError(
                f"loop file has (d, k) = ({loop.d}, {loop.k}), config wants ({cfg.d}, {cfg.k})"
            )
        return loop
    if cfg.datum == "constant":
        axis = np.asarray(cfg.constant_axis, dtype=float)
        axis = axis / np.linalg.norm(axis)
        coeffs = np.zeros((3, 2, 2), dtype=complex)
        coeffs[1] = pauli_encode(axis)
        loop = validate_loop(2, 1, FourierSeries(2, 1, coeffs))
        return embed_block(loop, cfg.d, cfg.k)
    if cfg.datum == "random_rational":
        return random_rational_loop(rng, cfg.d, cfg.k, twists=cfg.twists)
    # blaschke
    if cfg.blaschke_zeros:
        b = BlaschkeProduct(cfg.blaschke_phase, cfg.blaschke_zeros)
    else:
        b = random_blaschke(rng, cfg.blaschke_degree)
    conj = random_unitary(rng, 2) if cfg.conjugate_random else None
    # at velocity 0 (or -0.0) this is half_harmonic_map's loop, bit for bit
    loop = traveling_profile(b, cfg.velocity, conj, N=cfg.N, tail_tol=cfg.tail_tol)
    return embed_block(loop, cfg.d, cfg.k)


TRAJECTORY_BASE_COLS = ("t", "energy")
TRAJECTORY_TAIL_COLS = ("constraint_residual", "spectral_radius", "n_modes_used")


@functools.cache
def _mean_cols(d: int) -> tuple:
    return tuple(f"mean_{i}{j}_{part}" for i in range(d) for j in range(d) for part in ("re", "im"))


def trajectory_rows(plan, times):
    samples = solve_many(plan, times)
    # the float view of the means lists (re, im) per entry in row-major order, as _mean_cols does
    means = np.array([s.diagnostics["mean"] for s in samples], dtype=complex).view(np.float64)
    cols = _mean_cols(plan.d)
    rows = []
    for s, m in zip(samples, means.reshape(len(samples), len(cols)).tolist()):
        row = {"t": s.t, **s.diagnostics}
        row.update(zip(cols, m))
        rows.append((row, s))
    return rows


def run_evolve(cfg: ExperimentConfig, out_dir: Path, quiet: bool = False) -> int:
    """Evolve a rational datum; write trajectory CSV and loop snapshots."""
    loop = build_datum(cfg)
    plan = make_plan(loop, N_out=cfg.N_out, rank_tol=cfg.rank_tol, tail_tol=cfg.tail_tol)
    times = np.linspace(cfg.t0, cfg.t1, cfg.samples)
    rows = trajectory_rows(plan, times)
    cols = TRAJECTORY_BASE_COLS + _mean_cols(cfg.d) + TRAJECTORY_TAIL_COLS
    write_text_atomic(out_dir / "trajectory.csv", _csv(cols, [r for r, _ in rows], cfg))
    write_text_atomic(out_dir / "loop_initial.json", loop_to_json(loop))
    write_text_atomic(out_dir / "loop_final.json", loop_to_json(rows[-1][1].loop))
    energies = np.array([r["energy"] for r, _ in rows])
    drift = float(np.max(np.abs(energies - energies[0])))
    if not quiet:
        print(f"evolve: {len(rows)} samples on [{cfg.t0}, {cfg.t1}], energy drift {drift:.3e}")
    return 0 if drift < 1e-6 else 1


def run_spectrum(cfg: ExperimentConfig, out_dir: Path, quiet: bool = False) -> int:
    """Toeplitz spectral report and Hankel rank sweep as JSON."""
    loop = build_datum(cfg)
    # the matrix section is kron(vector section, I_d): its spectrum is the vector one, each value d times
    T = toeplitz_vector_section(loop, cfg.N)
    lam, vecs = hermitian_eigh(T)
    near_edge = int(np.count_nonzero(np.abs(lam) > 0.9))
    sweep = {}
    for N in sorted({max(4, cfg.N // 4), max(6, cfg.N // 2), cfg.N}):
        rank, sv = kronecker_rank(loop.series, N, rank_tol=cfg.rank_tol)
        sweep[str(N)] = {"rank": rank, "leading_singulars": [float(s) for s in sv[: rank + 3]]}
    payload = {
        "config": config_hash(cfg),
        "eigenvalues": [float(x) for x in np.repeat(lam, cfg.d)],
        "near_edge_count": cfg.d * near_edge,
        "residuals": {"eig": float(np.max(np.linalg.norm(T @ vecs - vecs * lam, axis=0)))},
        "rank_sweep": sweep,
    }
    write_text_atomic(out_dir / "spectrum.json", json.dumps(payload, indent=1))
    if not quiet:
        print(
            f"spectrum: dim {cfg.d * lam.size}, near edge {cfg.d * near_edge}, "
            f"interior {cfg.d * np.count_nonzero(np.abs(lam) < 0.9)}"
        )
    return 0


def run_stability(cfg: ExperimentConfig, out_dir: Path, quiet: bool = False) -> int:
    """Strong-stability verdicts for the flow model of the configured datum."""
    loop = build_datum(cfg)
    N = cfg.N
    base = hwm_model(loop, N)
    pu = project_plus(loop.series.with_cutoff(N))
    norm0 = float(np.linalg.norm(pu))
    rng = rng_for(cfg)
    probe = np.zeros((N + 1, cfg.d, cfg.d), dtype=complex)
    probe[:4] = rng.standard_normal(probe[:4].shape) + 1j * rng.standard_normal(probe[:4].shape)
    probe /= np.linalg.norm(probe)
    vectors = [pu.reshape(-1), probe.reshape(-1)]
    rows = []
    ok = True
    for t in cfg.stability_times:
        model = model_at_time(base, float(t))
        res = strong_stability_test(model, vectors, cfg.stability_n_max, tol=cfg.stability_tol)
        tail = res["reports"][0].limit_estimate
        deficit = norm0 - float(np.sqrt(max(0.0, norm0**2 - tail**2)))
        rows.append(
            {"t": float(t), "N": N, "norm": norm0 - deficit, "deficit": deficit, "verdict": res["verdict"]}
        )
        ok = ok and res["verdict"] == "stable"
    write_text_atomic(out_dir / "stability.csv", _csv(("t", "N", "norm", "deficit", "verdict"), rows, cfg))
    if not quiet:
        for r in rows:
            print(f"stability t={r['t']}: {r['verdict']} (deficit {r['deficit']:.2e})")
    return 0 if ok else 1


def run_zdbo(cfg: ExperimentConfig, out_dir: Path, quiet: bool = False) -> int:
    """Zero-dispersion norm-loss curve across cutoffs; onset localization."""
    coeffs = np.zeros((3, 1, 1), dtype=complex)
    coeffs[0, 0, 0] = -0.5
    coeffs[2, 0, 0] = -0.5
    u0 = FourierSeries(1, 1, coeffs)
    curve = zd_bo_norm_curve(
        u0,
        cfg.zdbo_times,
        Ns=cfg.zdbo_cutoffs,
        checkpoint=cfg.zdbo_checkpoint,
    )
    rows = [
        {**r, "verdict": curve_verdict(r["deficit"] <= curve["threshold"], r["tail_slope"])}
        for r in curve["rows"]
    ]
    write_text_atomic(out_dir / "zdbo_curve.csv", _csv(("t", "N", "norm", "deficit", "verdict"), rows, cfg))
    onsets = [v for v in curve["onsets"].values() if v is not None]
    all_detected = len(onsets) == len(curve["onsets"]) and bool(onsets)
    agree = all_detected and max(onsets) - min(onsets) < 1e-9
    if not quiet:
        print(f"zdbo onsets by cutoff: {curve['onsets']}")
    return 0 if agree else 1


def run_validate(cfg: ExperimentConfig, out_dir: Path, quiet: bool = False) -> int:
    """Check the configured datum's invariants along its flow; nonzero exit on any failure."""
    from .checks import run_invariant_suite

    results = run_invariant_suite(cfg)
    lines = []
    for res in results:
        lines.append(f"{'PASS' if res.passed else 'FAIL'} {res.name} ({res.detail})")
        if not quiet:
            print(lines[-1])
    write_text_atomic(out_dir / "validate.txt", "\n".join(
        [f"# hwmlab {__version__} config={config_hash(cfg)}"] + lines) + "\n")
    return 0 if all(res.passed for res in results) else 1


def run_bench(cfg: ExperimentConfig, out_dir: Path, quiet: bool = False) -> int:
    """Timing table: plan build vs per-time solve vs RK4 stepping."""
    rng = rng_for(cfg)
    rows = []
    for m in cfg.bench_degrees:
        b = random_blaschke(rng, m, max_radius=0.4)
        loop = traveling_profile(b, 0.5, N=max(cfg.N, 16), tail_tol=1e-10)
        t0 = time.perf_counter()
        plan = make_plan(loop)
        t_build = time.perf_counter() - t0

        # one batch, as evolve solves its times, after an untimed warm-up solve and RK4 step
        times = 1.0 + 0.1 * np.arange(5)
        solve_many(plan, times[:1])
        integrate(loop, cfg.dt, cfg.dt)
        t0 = time.perf_counter()
        solve_many(plan, times)
        t_solve = (time.perf_counter() - t0) / times.size

        t0 = time.perf_counter()
        state = integrate(loop, 20 * cfg.dt, cfg.dt)
        t_step = (time.perf_counter() - t0) / state.stats["steps"]

        crossover = t_solve / t_step * cfg.dt if t_step > 0 else float("inf")
        rows.append(
            {
                "degree": m,
                "dim_subspace": plan.model.lam.size,
                "plan_build_s": t_build,
                "solve_per_time_s": t_solve,
                "rk4_per_step_s": t_step,
                "crossover_t": crossover,
            }
        )
        if not quiet:
            print(
                f"bench m={m}: dim {plan.model.lam.size}, build {t_build * 1e3:.1f} ms, "
                f"solve {t_solve * 1e3:.2f} ms, rk4 step {t_step * 1e3:.2f} ms, crossover t*={crossover:.3g}"
            )
    cols = ("degree", "dim_subspace", "plan_build_s", "solve_per_time_s", "rk4_per_step_s", "crossover_t")
    write_text_atomic(out_dir / "bench.csv", _csv(cols, rows, cfg))
    return 0
