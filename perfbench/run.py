"""sdnqueue benchmark: one closed-loop caller, fixed workloads, checked results.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sim-paper --seed 1 --seconds 30 --trace 0

The package is imported from the checkout's ``src`` directory.  A run makes
the workload's inputs from ``--seed``, runs passes over them for ``--seconds``
seconds with every result checked, and prints as its last line one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and traced
passes and reports the per-layer metrics and the tracing overhead.  Each run
also writes its record (machine, versions, seed, sample counts, unscaled
times) and, when traced, its spans under ``perfbench/out/``.

End-to-end times are scaled to a fixed machine speed (see ``speed``); the
traced run's times are as measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

import speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 60
SETUP_REF_LOOPS = 20
MIN_PASSES = 2

END_TO_END_UNITS = {
    "wall_s": "s",
    "queries_per_s": "1/s",
    "query_latency_p50_us": "us",
    "query_latency_p99_us": "us",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# per-layer timing metrics: (metric, span name, unit, scale, statistic)
SPAN_TIMES = [
    ("analytic.solve_rates.us", "analytic.solve_rates", "us", 1e6, "median"),
    ("analytic.mean_sojourn_openflow.us", "analytic.mean_sojourn_openflow", "us", 1e6, "median"),
    ("analytic.solve_chain.us", "analytic.solve_chain", "us", 1e6, "median"),
    ("analytic.chain_sojourn.us", "analytic.chain_sojourn", "us", 1e6, "median"),
    ("distribution.ccdf.scalar_us", "distribution.ccdf", "us", 1e6, "median"),
    ("distribution.pdf.scalar_us", "distribution.pdf", "us", 1e6, "median"),
    ("distribution.prob_within_deadline.us", "distribution.prob_within_deadline", "us", 1e6,
     "median"),
    ("distribution.quantile.us", "distribution.quantile", "us", 1e6, "median"),
    ("distribution.ccdf.vector_ns_per_point", "distribution.ccdf.vector", "ns", 1e3, "median"),
    ("dimensioning.max_throughput.us", "dimensioning.max_throughput", "us", 1e6, "median"),
    ("cli.analyze.ms", "cli.analyze", "ms", 1e3, "mean"),
    ("cli.dimension.ms", "cli.dimension", "ms", 1e3, "mean"),
    ("cli.sweep.ms", "cli.sweep", "ms", 1e3, "mean"),
    ("cli.figure.ms", "cli.figure", "ms", 1e3, "mean"),
]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import and make the inputs, then exit (times setup_s)")
    p.add_argument("--memory-probe", action="store_true",
                   help="run one pass and print the peak resident memory it added")
    return p.parse_args(argv)


def import_package():
    """Import sdnqueue from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    init = src / "sdnqueue" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init} not found; run from a source checkout")
    sys.path.insert(0, str(src))
    import sdnqueue
    if Path(sdnqueue.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported sdnqueue from {sdnqueue.__file__}, not {init}")
    return sdnqueue


def setup(workload_name: str, seed: int):
    """Everything before timing starts: imports, lazy imports, inputs."""
    import_package()
    import workloads
    if workload_name not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {workload_name!r}; "
                         f"expected one of {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[workload_name]
    if wl.needs_scipy:
        import scipy.integrate  # noqa: F401  (criterion 3 imports it on first use)
    return workloads, wl, wl.make_inputs(seed)


def time_setup(args) -> tuple[list[float], list[float]]:
    """Wall time of fresh interpreters that only set up, started one at a
    time: as measured, and scaled by the reference loop's mean time just
    before and after each (see ``speed``)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    raw, scaled = [], []
    ref = speed.reference_s(SETUP_REF_LOOPS)
    for _ in range(SETUP_SAMPLES):
        start = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        raw.append(perf_counter() - start)
        if proc.returncode != 0:
            raise SystemExit(f"error: setup subprocess failed:\n{proc.stderr}")
        after = speed.reference_s(SETUP_REF_LOOPS)
        scaled.append(raw[-1] * 2.0 * speed.NOMINAL_S / (ref + after))
        ref = after
    return raw, scaled


def _rss_kb(field: str) -> int:
    with open("/proc/self/status", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"{field} not in /proc/self/status")


def memory_probe(args) -> int:
    """In a fresh process: peak resident memory one pass adds over set-up."""
    workloads, wl, inputs = setup(args.workload, args.seed)
    before = _rss_kb("VmRSS")
    rec = workloads.Recorder()
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        wl.run_pass(rec, inputs[-1], Path(tmp))
    growth_mb = max(0, _rss_kb("VmHWM") - before) / 1024.0
    print(json.dumps({"growth_mb": growth_mb, "failed": rec.failed}))
    return 0


def memory_probe_growth(args) -> float:
    """Peak memory a pass adds, measured in a fresh interpreter; a traced
    process has already reached its own peak and tracemalloc slows the
    simulator about 35-fold."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--memory-probe"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise SystemExit(f"error: memory probe failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if result["failed"]:
        raise SystemExit("error: memory probe pass failed its checks")
    return result["growth_mb"]


def run_passes(wl, inputs, tmp, recorders, seconds):
    """Run passes for about ``seconds``, cycling through ``recorders``.

    A pass starts only if the passes so far say it will end within the
    window, and at least MIN_PASSES run.  Returns the wall time of each pass
    and, for recorders with a speed clock, its scaled time, each grouped by
    recorder index; a clocked pass's times leave out the clock's samples.
    """
    walls = [[] for _ in recorders]
    scaled = [[] for _ in recorders]
    start = perf_counter()
    k = 0
    while k < len(inputs):
        elapsed = perf_counter() - start
        if k >= MIN_PASSES and elapsed * (k + 1) / k > seconds:
            break
        i = k % len(recorders)
        rec = recorders[i]
        mark = rec.clock.mark() if rec.clock is not None else None
        t0 = perf_counter()
        if rec.tracer is not None:
            with rec.tracer.span("pass", -1):
                wl.run_pass(rec, inputs[k], tmp)
        else:
            wl.run_pass(rec, inputs[k], tmp)
        wall = perf_counter() - t0
        if mark is None:
            walls[i].append(wall)
        else:
            raw, wall_scaled = rec.clock.scale(mark, wall)
            walls[i].append(raw)
            scaled[i].append(wall_scaled)
        k += 1
    return walls, scaled


def hd_quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a beta-weighted mean of all
    order statistics.  The simulation workloads' latencies fall in clusters
    (one per operating point), and the sample median of such data jumps
    between the edges of two clusters; this estimate moves smoothly."""
    from scipy.special import betainc
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    weights = np.diff(betainc(p * (n + 1), (1.0 - p) * (n + 1), np.arange(n + 1) / n))
    return float(weights @ x)


def end_to_end(latencies, walls, setup_samples) -> dict:
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "wall_s": statistics.median(walls),
        "queries_per_s": len(latencies) / sum(walls),
        "query_latency_p50_us": hd_quantile(latencies, 0.5) * 1e6,
        "query_latency_p99_us": hd_quantile(latencies, 0.99) * 1e6,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup_samples),
    }


def layer_metrics(spans, rec, pass_walls) -> dict:
    """Per-layer metrics, as (value, unit), from one recorder's spans and counts."""
    from spans import self_time_by_name
    by_name = self_time_by_name(spans)
    m = {}
    for metric, name, unit, scale, stat in SPAN_TIMES:
        times = by_name.get(name) or [0.0]
        value = statistics.median(times) if stat == "median" else statistics.fmean(times)
        m[metric] = (value * scale, unit)
    sweep_t = sum(by_name.get("dimensioning.sweep", []))
    rows = rec.counts["dimensioning.sweep.rows"]
    m["dimensioning.sweep.us_per_row"] = (sweep_t / rows * 1e6 if rows else 0.0, "us")
    m["dimensioning.sweep.ok_rows_ratio"] = (
        rec.counts["dimensioning.sweep.ok_rows"] / rows if rows else 0.0, "ratio")
    m["cli.exit_nonzero"] = (rec.counts["cli.exit_nonzero"], "count")
    for n in (1, 2, 3, 7):
        vals = rec.values.get(f"validation.criterion_{n}.s", [])
        m[f"validation.criterion_{n}.s"] = (statistics.median(vals) if vals else 0.0, "s")
    m["validation.failed"] = (rec.counts["validation.failed"], "count")

    sim_time = packets = 0
    for kind in ("run_single_node", "run_chain"):
        t = sum(by_name.get(f"simulate.{kind}", []))
        n = rec.counts[f"simulate.{kind}.packets"]
        m[f"simulate.{kind}.packets_per_s"] = (n / t if t else 0.0, "1/s")
        sim_time += t
        packets += n
    m["simulate.calls"] = (rec.counts["simulate.run_single_node"]
                           + rec.counts["simulate.run_chain"], "count")
    m["simulate.packets"] = (packets, "count")
    m["simulate.wall_share"] = (sim_time / sum(pass_walls) if pass_walls else 0.0, "ratio")
    m["simulate.reservoir_samples"] = (max(rec.values.get("reservoir_samples", [0])), "count")
    return m


def span_shares(spans, pass_walls) -> dict:
    """Self time per span name (a layer's call kind, a check, the pass loop)
    as a share of traced pass time, largest first."""
    from spans import self_time_by_name
    total = sum(pass_walls)
    shares = {name: sum(times) / total for name, times in self_time_by_name(spans).items()}
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def traced_run(args, workloads, wl, inputs, tmp):
    """Untraced and traced passes in turn; layers a workload never calls read 0."""
    from spans import Tracer
    plain = workloads.Recorder()
    traced = workloads.Recorder(tracer=Tracer())
    walls, _ = run_passes(wl, inputs, tmp, [plain, traced], args.seconds)
    metrics = layer_metrics(traced.tracer.spans, traced, walls[1])
    metrics["trace.overhead_s"] = (statistics.median(walls[1]) - statistics.median(walls[0]), "s")
    growth = 0.0
    if wl.run_pass is workloads.run_sim_pass:
        growth = memory_probe_growth(args)
    metrics["simulate.peak_rss_growth_mb"] = (growth, "MB")
    return metrics, [plain, traced], walls, traced.tracer


def environment(args, samples: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), platform.processor() or "unknown")
    except OSError:
        pass
    sha = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_sha": sha, "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "samples": samples}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        setup(args.workload, args.seed)
        return 0
    if args.memory_probe:
        return memory_probe(args)
    import_package()  # fail before the slow part when the sources are missing
    setup_raw, setup_samples = ([], []) if args.trace else time_setup(args)
    workloads, wl, inputs = setup(args.workload, args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        tmp = Path(tmp)
        if args.trace:
            metrics, recorders, walls, tracer = traced_run(args, workloads, wl, inputs, tmp)
            tracer.write_jsonl(OUT_DIR / f"{stem}-spans.jsonl")
            report = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
            samples = {"untraced_pass_s": walls[0], "traced_pass_s": walls[1],
                       "spans": len(tracer.spans),
                       "span_share": span_shares(tracer.spans, walls[1])}
        else:
            rec = workloads.Recorder(clock=speed.SpeedClock())
            with rec.clock:
                (raw_walls,), (walls,) = run_passes(wl, inputs, tmp, [rec], args.seconds)
            recorders = [rec]
            values = end_to_end(rec.latencies, walls, setup_samples)
            report = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
            packets = (rec.counts["simulate.run_single_node.packets"]
                       + rec.counts["simulate.run_chain.packets"])
            samples = {"passes": len(walls), "pass_s": walls, "unscaled_pass_s": raw_walls,
                       "unscaled_wall_s": statistics.median(raw_walls),
                       "speed_samples": rec.clock.samples,
                       "speed_handler_s": rec.clock.handler_s,
                       "queries": len(rec.latencies),
                       "queries_beyond_p99": sum(x * 1e6 > values["query_latency_p99_us"]
                                                 for x in rec.latencies),
                       "setup_runs": len(setup_samples), "setup_s": setup_samples,
                       "unscaled_setup_s": statistics.median(setup_raw),
                       "sim_packets": packets,
                       "sim_packets_per_s": packets / sum(raw_walls) if packets else None}
    attempted = sum(r.attempted for r in recorders)
    failed = sum(r.failed for r in recorders)
    samples["error_rate"] = failed / attempted if attempted else None
    failures = [f for r in recorders for f in r.failures][:20]
    record = {"environment": environment(args, samples), "metrics": report,
              "attempted": attempted, "failed": failed, "failures": failures}
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    for f in failures:
        print(f"FAILED CHECK: {f}", file=sys.stderr)
    print(json.dumps({"samples": samples}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
