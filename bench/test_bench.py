"""Self-test of the benchmark: tiny runs of every workload.

Checks that every metric is emitted with its unit, that the result line
follows BENCHMARK.json, that a corrupted reference is counted as a failure,
and that a directory without the package sources gives no result.  Nothing
here asserts on a timing.  Run with ``python -m pytest bench/test_bench.py``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = ("model", "canonical", "star", "persistence", "integrate",
          "averaging", "resonance", "ensemble", "cli", "util", "bench")
KINDS = ("census", "curve", "cone_frequency", "positive_frequency")

COMMON_E2E = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "failed_ratio": "ratio", "measured_wall_s": "s",
              "host_speed": "ratio"}
E2E = {
    "resonance": {"simulate_s": "s"},
    "orbits": {"period_s": "s", "average_s": "s"},
    "ensembles": dict([(f"{k}_s", "s") for k in KINDS]
                      + [("ensembles_parallel_s", "s")]),
    "web": {"simulate_s": "s", "canonical_s": "s"},
}
LAYER = {
    "resonance": {"integrate.lv_us_per_eval": "us",
                  "integrate.lv_nfev": "count",
                  "resonance.linearize_ms": "ms"},
    "orbits": {"star.period_ms": "ms", "star.classify_orbit_ms": "ms",
               "integrate.poincare_ms": "ms",
               "integrate.verlet_ns_per_step": "ns",
               "integrate.verlet_steps": "count",
               "averaging.evolve_s_per_eval": "s",
               "averaging.evolve_nfev": "count"},
    "ensembles": dict([(f"ensemble.{k}.ms_per_trial", "ms") for k in KINDS]
                      + [(f"ensemble.{k}.speedup_w2", "ratio")
                         for k in KINDS]
                      + [("ensemble.trials", "count"),
                         ("persistence.lp_calls", "count")]),
    "web": {"integrate.lv_us_per_eval": "us", "integrate.lv_nfev": "count",
            "integrate.transformed_us_per_eval": "us",
            "integrate.transformed_nfev": "count",
            "model.generate_scale_free_ms": "ms",
            "canonical.find_factors_ms": "ms", "cli.check_ms": "ms",
            "cli.simulate_s": "s", "cli.canonical_s": "s",
            "cli.bytes_written": "bytes", "cli.files_written": "count"},
}


def run_bench(tmp_path, workload, *extra, trace=1, cwd=ROOT):
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace),
           "--size", "tiny", "--out", str(tmp_path / "out"), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def parsed(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def check_units(emitted, expected):
    for name, unit in expected.items():
        assert name in emitted, name
        assert emitted[name]["unit"] == unit, name
        assert isinstance(emitted[name]["value"], (int, float)), name


@pytest.mark.parametrize("workload", sorted(E2E))
def test_traced_tiny_run_emits_every_metric(tmp_path, workload):
    report, result = parsed(run_bench(tmp_path, workload))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert set(result["metrics"]) == set(spec)
    check_units(result["metrics"], spec)
    check_units(report["end_to_end"], {**COMMON_E2E, **E2E[workload]})
    check_units(report["per_layer"], LAYER[workload])
    check_units(report["per_layer"], {
        f"{layer}.{key}": unit for layer in LAYERS
        for key, unit in (("calls", "count"), ("total_s", "s"),
                          ("self_s", "s"))})
    check_units(report["per_layer"], {"trace_overhead_ratio": "ratio",
                                      "span_coverage": "ratio"})
    assert report["end_to_end"]["failed_ratio"]["value"] == 0.0
    env = report["environment"]
    for key in ("nproc", "cpu_model", "python", "numpy", "scipy", "openblas",
                "git_commit", "src_loc"):
        assert key in env, key
    assert env["src_loc"] > 0
    assert set(env["blas_threads"].values()) == {"1"}
    spans = (tmp_path / "out" / f"spans-{workload}-seed0-trace1.jsonl")
    first = json.loads(spans.read_text().splitlines()[0])
    assert {"id", "parent", "workload", "name", "module", "function",
            "start", "end", "counts"} <= set(first)


def test_untraced_result_line_holds_the_end_to_end_metrics(tmp_path):
    _, result = parsed(run_bench(tmp_path, "ensembles", trace=0))
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert set(result["metrics"]) == set(spec)
    check_units(result["metrics"], spec)


def test_corrupted_reference_counts_as_failure(tmp_path):
    refs = json.loads((ROOT / "bench" / "refs.json").read_text())
    seeded = refs["tiny"]["resonance"]["seeded"]
    assert seeded["seeded.verdict.damped"] == "damped"
    seeded["seeded.verdict.damped"] = "stable"
    path = tmp_path / "refs.json"
    path.write_text(json.dumps(refs))
    report, result = parsed(run_bench(tmp_path, "resonance", "--refs",
                                      str(path), trace=0))
    assert result["failed"] > 0 and not result["correct"]
    assert report["end_to_end"]["failed_ratio"]["value"] > 0


def test_without_sources_there_is_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "web", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
