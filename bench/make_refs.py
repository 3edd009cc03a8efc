"""Regenerate bench/refs.json, the reference outputs the benchmark checks.

    python3 bench/make_refs.py

Run it from the root of a checkout of the commit whose outputs are to be the
reference.  It runs one pass of every workload at the default seed, at the
full and the tiny size, with every cross-check on, and records each output
that a later run compares against.  For the orbits workload it also runs the
direct slow-fast simulation of the c11 acceptance test once and stores its
burst time.  It stops without writing if any operation fails.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import harness

ROOT = Path(__file__).resolve().parent.parent


def main():
    harness.pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    def log(message):
        print(message, file=sys.stderr, flush=True)

    work = ROOT / "bench" / "out" / "refs-work"
    table = {}
    try:
        for size in ("full", "tiny"):
            for name, workload in workloads.make_workloads(work).items():
                refs = harness.References({}, {}, recording=True)
                if name == "orbits" and size == "full":
                    refs.fixed["fixed.burst.tau_direct"] = \
                        workloads.burst_tau_direct()
                p = harness.Pass(harness.Tracer(name), refs, False, log)
                workload.run(p, workload.inputs(workloads.DEFAULT_SEED, size))
                if p.failed:
                    for line in p.failures:
                        log(f"FAILED {size}/{name} {line}")
                    return 1
                table.setdefault(size, {})[name] = {"fixed": refs.fixed,
                                                    "seeded": refs.seeded}
                log(f"{size}/{name}: {p.attempted} operations recorded")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(ROOT / "bench" / "refs.json", "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
