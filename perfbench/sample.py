"""One benchmark sample, run in a fresh interpreter by run.py.

    python3 perfbench/sample.py CONFIG.json

In order: set-up (import gasketlab, load the spec, build the harmonic
structures), the workload's subcommand through gasketlab.cli.main, then the
output check.  Prints one JSON line with the timings and the check's verdict.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import tracer
import workloads


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        cfg = json.load(fh)
    tr = tracer.Tracer(cfg["sample"]) if cfg["trace"] else None

    span = tr.span if tr else (lambda name: nullcontext())

    t0 = time.perf_counter()
    import gasketlab
    from gasketlab import capacity, cli, harmonic

    spec = cli.load_spec(cfg["spec"])
    for level in spec.levels:
        with span("harmonic.extension_matrices"):
            harmonic.extension_matrices(spec.d, level)
    with span("capacity.default_inner_depth"):
        capacity.default_inner_depth(spec)
    t1 = time.perf_counter()

    src = Path(cfg["src"]).resolve()
    if src not in Path(gasketlab.__file__).resolve().parents:
        raise RuntimeError(f"gasketlab was imported from {gasketlab.__file__}, not from {src}")

    if tr:
        tr.install()
    try:
        t2 = time.perf_counter()
        with span("cli.main"):
            rc = cli.main(cfg["argv"])
        t3 = time.perf_counter()
    finally:
        if tr:
            tr.uninstall()

    result = {"setup_s": t1 - t0, "report_s": t3 - t2, "rc": rc, "error": None}
    if rc != 0:
        result["error"] = f"gasketlab exited {rc}"
    else:
        expected = None
        if cfg["expected"]:
            with open(cfg["expected"], encoding="utf-8") as fh:
                expected = json.load(fh)
        try:
            workloads.check_report(cfg["workload"], cfg["argv"], cfg["out_dir"], expected)
        except workloads.CheckFailed as exc:
            result["error"] = str(exc)
    if tr:
        layers = tr.layer_metrics()
        layers["harmonic.extension_matrices.builds"] = harmonic.extension_matrices.cache_info().misses
        result["layers"] = layers
        tr.write_jsonl(cfg["spans"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
