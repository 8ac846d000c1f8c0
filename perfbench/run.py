"""hwmlab benchmark: one closed-loop workload, host-corrected, with an optional traced run.

    python3 perfbench/run.py --workload flow --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository; it imports hwmlab from ``src/``.  One
caller in one process runs ops back to back for ``--seconds``, with BLAS
pinned to one thread.  Every op and every set-up sample is bracketed by
reference samples and scaled by the host-speed factor (see ``reference.py``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced ops and reports the per-layer metrics, from spans
recorded around hwmlab's public functions (see ``tracing.py``).  Both print
a table, then one JSON line, and keep the raw seconds and every reference
sample in ``perfbench/runs/<workload>-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported, here and in set-up samples
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import reference  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"

SETUP_SAMPLES = 5
WARNING_KINDS = {"DegenerateEigenvalueWarning": "degenerate", "SlowDecayWarning": "slow_decay"}

# (name, unit, better); the bounds live in BENCHMARK.json
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_tail_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_ratio", "ratio", "higher"),
)


def per_layer_catalog() -> tuple:
    out = []
    for name in tracing.SPAN_NAMES:
        out += [(f"{name}.self_ms", "ms", "lower"), (f"{name}.calls", "count", "lower"),
                (f"{name}.setup_ms", "ms", "lower")]
    out += [
        ("operators.section_fill", "ratio", "higher"),
        ("evolution.modes_per_solve", "count", "lower"),
        ("stability.contraction_steps", "count", "lower"),
        ("setup.import", "ms", "lower"),
        ("setup.inputs", "ms", "lower"),
        ("setup.plans", "ms", "lower"),
        ("warnings.degenerate", "count", "lower"),
        ("warnings.slow_decay", "count", "lower"),
        ("trace.unattributed_share", "ratio", "lower"),
        ("trace.overhead", "ratio", "lower"),
    ]
    return tuple(out)


# ---- environment ----------------------------------------------------------

def steal_jiffies():
    """Aggregate steal time from /proc/stat (read only), or None."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level} {kind}"] = size
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "cpu_count": os.cpu_count(),
        "caches": caches,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(),
    }


# ---- set-up samples in fresh interpreters ---------------------------------

def setup_samples(workload: str, seed: int, n: int) -> list:
    """``n`` host-corrected set-up samples, after one uncounted warm-up
    (which also writes the bytecode cache)."""
    out = []
    for j in range(n + 1):
        reference.spin()
        before = reference.sample()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up sample failed:\n{proc.stderr}")
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        ra = rec.pop("ref_after")
        after = reference.RefSample(ra["wall_s"], ra["cpu_s"], ra["span_s"], tuple(ra["subruns_s"]))
        f = reference.factor(before, after)
        raw_total = rec["import_s"] + rec["inputs_s"] + rec["plans_s"]
        rec.update(raw_total_s=raw_total, factor=f, total_s=raw_total * f,
                   ref_before=before.to_json(), ref_after=after.to_json())
        if j > 0:
            out.append(rec)
    return out


# ---- the op loop ----------------------------------------------------------

def _warning_counts(caught) -> dict:
    counts = {}
    for w in caught:
        kind = WARNING_KINDS.get(w.category.__name__, "other")
        counts[kind] = counts.get(kind, 0) + 1
    return counts


def call_captured(fn, *args):
    """(result or None, error text or None, warning counts, raw seconds)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = perf_counter()
        try:
            result, error = fn(*args), None
        except Exception:  # a failing op is counted and the run goes on
            result, error = None, traceback.format_exc(limit=3)
        raw = perf_counter() - t0
    return result, error, _warning_counts(caught), raw


def op_loop(workload, state, seconds: float, recorder=None) -> list:
    """Closed loop for ``seconds``; with a recorder, even-numbered ops are traced."""
    records = []
    before = reference.sample()
    deadline = perf_counter() + seconds
    i = 0
    while perf_counter() < deadline:
        traced = recorder is not None and i % 2 == 0
        if traced:
            recorder.install()
            result, error, warned, raw = call_captured(recorder.run, i, workload.op, state)
            recorder.uninstall()
        else:
            result, error, warned, raw = call_captured(workload.op, state)
        after = reference.sample()
        problems = [error] if error else workload.check(result)
        quiet = before.quiet and after.quiet
        f = reference.factor(before, after)
        records.append({
            "i": i, "traced": traced, "raw_s": raw, "factor": f, "corrected_s": raw * f,
            "checked": not problems, "quiet": quiet, "ok": not problems and quiet,
            "problems": problems, "warnings": warned,
            "ref_after": after.to_json(),
        })
        if i == 0:
            records[0]["ref_before"] = before.to_json()
        before = after
        i += 1
    return records


# ---- statistics -----------------------------------------------------------

def tail(values: list) -> tuple:
    """Value at the highest percentile with at least ten samples beyond it:
    (value, percentile, sample count).  Below eleven samples, the maximum."""
    xs = sorted(values)
    n = len(xs)
    k = n - 11 if n >= 11 else n - 1
    return xs[k], 100.0 * (k + 1) / n, n


def loop_stats(records: list) -> dict:
    ok = [r["corrected_s"] for r in records if r["ok"]]
    busy = sum(r["corrected_s"] for r in records)
    stats = {"attempted": len(records), "ok": len(ok), "busy_s": busy,
             "ops_per_s": len(ok) / busy if busy > 0 else 0.0}
    if ok:
        value, pct, n = tail(ok)
        stats.update(p50_s=statistics.median(ok), tail_s=value, tail_percentile=pct, tail_samples=n)
    return stats


def end_to_end_metrics(setup: list, stats: dict) -> dict:
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": statistics.median(s["total_s"] for s in setup),
        "ops_per_s": stats["ops_per_s"],
        "op_p50_ms": stats.get("p50_s", float("nan")) * 1e3,
        "op_tail_ms": stats.get("tail_s", float("nan")) * 1e3,
        "peak_rss_mb": peak_kb / 1024.0,
        "ok_ratio": stats["ok"] / stats["attempted"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}


def per_layer_metrics(recorder, records, setup, setup_factor, setup_warned) -> dict:
    traced = [r for r in records if r["traced"]]
    plain = [r for r in records if not r["traced"]]
    selfs = recorder.self_times()
    roots = recorder.root_durations()
    n = len(traced)
    values = {}
    for name in tracing.SPAN_NAMES:
        self_ms = sum(selfs[r["i"]][name][0] * r["factor"] for r in traced) * 1e3 / n
        calls = sum(selfs[r["i"]][name][1] for r in traced) / n
        values[f"{name}.self_ms"] = self_ms
        values[f"{name}.calls"] = calls
        values[f"{name}.setup_ms"] = selfs["setup"][name][0] * setup_factor * 1e3

    counts = recorder.counts
    visited = counts["setup", "section_visited"] + counts["op", "section_visited"]
    useful = counts["setup", "section_useful"] + counts["op", "section_useful"]
    values["operators.section_fill"] = useful / visited if visited else 0.0
    solves = counts["op", "solves"]
    values["evolution.modes_per_solve"] = counts["op", "modes_used"] / solves if solves else 0.0
    values["stability.contraction_steps"] = counts["op", "contraction_steps"] / n
    for phase in ("import", "inputs", "plans"):
        values[f"setup.{phase}"] = statistics.median(s[f"{phase}_s"] * s["factor"] for s in setup) * 1e3
    for kind in ("degenerate", "slow_decay"):
        per_op = sum(r["warnings"].get(kind, 0) for r in records) / len(records)
        values[f"warnings.{kind}"] = setup_warned.get(kind, 0) + per_op
    root_self = sum(selfs[r["i"]][tracing.ROOT][0] for r in traced)
    values["trace.unattributed_share"] = root_self / sum(roots[r["i"]] for r in traced)
    traced_rate, plain_rate = loop_stats(traced)["ops_per_s"], loop_stats(plain)["ops_per_s"]
    values["trace.overhead"] = plain_rate / traced_rate if traced_rate > 0 else float("nan")
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in per_layer_catalog()}


# ---- main -----------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("flow", "zdbo", "crosscheck"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hwmlab" / "__init__.py").is_file():
        print(f"perfbench: no hwmlab sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    steal0 = steal_jiffies()

    import workloads

    workload = workloads.WORKLOADS[args.workload]
    setup = setup_samples(args.workload, args.seed, SETUP_SAMPLES)

    def build(seed):
        return workload.prepare(workload.inputs(seed))

    recorder = tracing.Recorder() if args.trace else None
    reference.spin()
    ref_setup0 = reference.sample()
    if recorder is not None:
        recorder.install()
        state, error, setup_warned, raw_setup = call_captured(recorder.run, "setup", build, args.seed)
        recorder.uninstall()
    else:
        state, error, setup_warned, raw_setup = call_captured(build, args.seed)
    ref_setup1 = reference.sample()
    if error:
        print(f"perfbench: set-up failed:\n{error}", file=sys.stderr)
        return 1
    setup_factor = reference.factor(ref_setup0, ref_setup1)

    warm, warm_error, _, warm_raw = call_captured(workload.op, state)
    warm_problems = [warm_error] if warm_error else workload.check(warm)
    warm_digest = workloads.digest(warm) if not warm_error else None

    records = op_loop(workload, state, args.seconds, recorder)
    stats = loop_stats(records)
    steal1 = steal_jiffies()

    if recorder is not None:
        metrics = per_layer_metrics(recorder, records, setup, setup_factor, setup_warned)
    else:
        metrics = end_to_end_metrics(setup, stats)

    refs = [s["ref_after"]["wall_s"] for s in setup] + [r["ref_after"]["wall_s"] for r in records]
    env = environment()
    env.update(
        ref_nominal_s=reference.REF_NOMINAL_S,
        ref_measured_median_s=statistics.median(refs),
        steal_jiffies_delta=None if steal0 is None or steal1 is None else steal1 - steal0,
    )
    failed = stats["attempted"] - stats["ok"]
    correct = not warm_problems and all(r["checked"] for r in records)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "setup_samples": setup,
        "inproc_setup": {"raw_s": raw_setup, "factor": setup_factor, "warnings": setup_warned,
                         "ref_before": ref_setup0.to_json(), "ref_after": ref_setup1.to_json()},
        "warmup": {"raw_s": warm_raw, "problems": warm_problems, "result_sha256": warm_digest},
        "ops": records, "stats": stats, "fail_ratio": failed / stats["attempted"],
        "metrics": metrics,
    }
    RUNS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RUNS / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    if recorder is not None:
        with gzip.open(RUNS / f"{stem}-spans.json.gz", "wt") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "scope"], "spans": recorder.spans}, fh)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {stats['attempted']} (failed {failed}, fail_ratio {failed / stats['attempted']:.4g})")
    if "tail_percentile" in stats:
        print(f"  op_tail is p{stats['tail_percentile']:.1f} of {stats['tail_samples']} samples")
    print(f"  reference median {env['ref_measured_median_s'] * 1e3:.4f} ms "
          f"(nominal {reference.REF_NOMINAL_S * 1e3:.4f} ms)")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": stats["attempted"], "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
