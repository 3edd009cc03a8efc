"""Run one hamlv benchmark workload and print its metrics.

    python3 bench/run.py --workload orbits --seed 0 --seconds 24 --trace 0

Run from the root of a checkout: the package is imported from ``src/``.  The
last line of standard output is the result, a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics named in BENCHMARK.json with
``--trace 1``.  The line before it is the full report (every metric, the run
environment, the failures), which is also written to ``bench/out/``.  See
bench/README.md.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# harness imports no numpy, so the BLAS pin in main() still comes first
import harness  # noqa: E402
from harness import metric  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WORKLOAD_NAMES = ("resonance", "orbits", "ensembles", "web")
# counts every traced run reports, zero where the workload does no such work
SHARED_COUNTS = {"integrate.lv_nfev": "count",
                 "integrate.verlet_steps": "count",
                 "averaging.evolve_nfev": "count",
                 "ensemble.trials": "count",
                 "persistence.lp_calls": "count",
                 "cli.files_written": "count",
                 "cli.bytes_written": "bytes"}
SETUP_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs a few small operations (self-test)")
    parser.add_argument("--refs", default=str(BENCH / "refs.json"),
                        help="reference outputs (default bench/refs.json)")
    parser.add_argument("--out", default=str(BENCH / "out"),
                        help="directory for reports, spans and CLI outputs")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def log(message):
    print(message, file=sys.stderr, flush=True)


def median_of(passes, fn):
    return statistics.median(fn(p) for p in passes)


def wall_at_reference(p):
    return sum(p.phases_at_reference().values())


def end_to_end(workload, clock, untraced, setup_s, attempted, failed):
    """The end-to-end metrics; pass times are medians over untraced passes.

    ``wall_s`` and the phase times are at the reference host speed (see
    harness.HostClock), ``measured_wall_s`` is ``wall_s`` as the clock on
    the wall read it, and ``host_speed`` is the reference kernel time over
    the median kernel time of the run.  ``setup_s`` is as measured.
    """
    out = {"wall_s": metric(median_of(untraced, wall_at_reference), "s"),
           "setup_s": metric(setup_s, "s"),
           "peak_rss_mb": metric(
               resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
               "MB"),
           "failed_ratio": metric(failed / attempted, "ratio"),
           "measured_wall_s": metric(median_of(untraced, lambda p: p.wall),
                                     "s"),
           "host_speed": metric(harness.CALIBRATION_REF_S / clock.kernel_s(),
                                "ratio")}
    for name, phases in workload.phase_metrics.items():
        out[name] = metric(median_of(untraced, lambda p: sum(
            p.phases_at_reference().get(ph, 0.0) for ph in phases)), "s")
    return out


def per_layer(workload, tracer, traced, wall_s):
    spans = tracer.spans
    by_id = {s["id"]: s for s in spans}
    by_pass = {}
    for s in spans:
        by_pass.setdefault(s["pass"], []).append(s)
    tables = [harness.layer_table(by_pass.get(p.index, [])) for p in traced]
    out = {}
    for module in tables[0]:
        for key, unit in (("calls", "count"), ("total_s", "s"),
                          ("self_s", "s")):
            out[f"{module}.{key}"] = metric(
                statistics.median(t[module][key] for t in tables), unit)
    for key, unit in SHARED_COUNTS.items():
        out[key] = metric(median_of(traced, lambda p: p.counts.get(key, 0)),
                          unit)
    traced_wall = median_of(traced, wall_at_reference)
    out["traced_wall_s"] = metric(traced_wall, "s")
    out["trace_overhead_ratio"] = metric(traced_wall / wall_s, "ratio")
    out["span_coverage"] = metric(median_of(
        traced, lambda p: harness.covered_time(by_pass.get(p.index, []))
        / p.wall), "ratio")
    out.update(workload.layer_metrics(spans, by_id, len(traced)))
    return out


def print_layer_table(tracer, traced):
    table = harness.layer_table(tracer.spans)
    n = len(traced)
    log(f"per layer, mean of {n} traced pass(es):")
    log(f"  {'layer':<12} {'calls':>8} {'total_s':>10} {'self_s':>10}")
    for module, row in table.items():
        log(f"  {module:<12} {row['calls'] / n:>8.1f} "
            f"{row['total_s'] / n:>10.4f} {row['self_s'] / n:>10.4f}")


def load_refs(path, size, workload, default_seed):
    with open(path, encoding="utf-8") as fh:
        entry = json.load(fh).get(size, {}).get(workload, {})
    return harness.References(fixed=entry.get("fixed", {}),
                              seeded=entry.get("seeded") if default_seed
                              else None)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "hamlv" / "__init__.py").is_file():
        log(f"error: no hamlv sources under {ROOT / 'src'}")
        return 2
    harness.pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import hamlv.persistence as persistence_mod
    import workloads
    import_s = time.perf_counter() - _START

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    work_dir = out_dir / f"work-{os.getpid()}"
    workload = workloads.make_workloads(work_dir)[args.workload]
    refs = load_refs(args.refs, args.size, args.workload,
                     args.seed == workloads.DEFAULT_SEED)
    tracer = harness.Tracer(args.workload)
    clock = harness.HostClock()

    try:
        reps = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            inputs = workload.inputs(args.seed, args.size)
            workload.warm_up(harness.Pass(tracer, refs, False, log), inputs)
            reps.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(reps)

        def run_pass(traced):
            p = harness.Pass(tracer, refs, traced, log, clock)
            lp_before = tracer.lp_calls
            with tracer.counting_lp(persistence_mod):
                workload.run(p, inputs)
            clock.sample()
            if traced:
                p.count("persistence.lp_calls", tracer.lp_calls - lp_before)
            return p

        passes = harness.measure(run_pass, tracer, args.seconds,
                                 bool(args.trace))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    failures = [f for p in passes for f in p.failures]
    for line in failures[:20]:
        log(f"FAILED {line}")
    e2e = end_to_end(workload, clock, untraced, setup_s, attempted, failed)
    report = {"workload": args.workload, "seed": args.seed,
              "size": args.size, "seconds": args.seconds,
              "trace": args.trace, "untraced_passes": len(untraced),
              "traced_passes": len(traced), "attempted": attempted,
              "failed": failed, "failures": failures[:20],
              "environment": harness.environment(ROOT),
              "end_to_end": e2e,
              "counts": {key: median_of(untraced,
                                        lambda p: p.counts.get(key, 0))
                         for key in sorted({k for p in untraced
                                            for k in p.counts})},
              "kernel_samples": len(clock.samples)}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if traced:
        report["per_layer"] = per_layer(workload, tracer, traced,
                                        e2e["wall_s"]["value"])
        print_layer_table(tracer, traced)
        tracer.write(out_dir / f"spans-{stem}.jsonl")

    # the raw timings behind the reference-speed times
    with open(out_dir / f"timeline-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"kernel_samples": clock.samples,
                   "passes": [{"traced": p.traced, "phases": p.intervals}
                              for p in passes]}, fh)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    section = "per_layer" if traced else "end_to_end"
    metrics = {m["name"]: report[section][m["name"]] for m in spec[section]}
    report_text = json.dumps(report, sort_keys=True)
    with open(out_dir / f"report-{stem}.json", "w", encoding="utf-8") as fh:
        fh.write(report_text + "\n")
    print(report_text)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
