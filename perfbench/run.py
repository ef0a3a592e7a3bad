"""gasketlab benchmark: one pinned CLI workload, measured end to end or traced.

    python3 perfbench/run.py --workload a3-seeded --seed 1 --seconds 28 --trace 0

Run from a checkout that holds src/gasketlab.  It is a closed loop with one
client: each sample is a fresh interpreter (sample.py) that pays set-up, runs
the subcommand and checks its report, and the next sample starts only after
it has exited.  Samples start until --seconds have passed.

--trace 0 prints the end-to-end metrics, medians over the samples:
report_s, setup_s, cpu_s and peak_rss_mb.  --trace 1 alternates untraced and
traced samples and prints the per-layer metrics instead (medians over the
traced samples) with trace.overhead_s, the traced minus the untraced
report_s.  The last line of the output is one JSON object; the lines before
it give every metric by name and unit, fail_frac, and the run's metadata.
"""

from __future__ import annotations

import argparse
import compileall
import dataclasses
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = HERE / "_run"
EXPECTED_DIR = HERE / "expected"
RUN_LIMIT_S = 170.0

END_TO_END = (("report_s", "s"), ("setup_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))
# BLAS and OpenMP pools pinned to one thread; the sample interpreter sees
# only the checkout's src on its path.
PINNED_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}


class BenchError(Exception):
    """The benchmark cannot run here."""


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def sample_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "GASKETLAB_THREADS"}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def commit() -> str:
    """The checkout's commit, read from .git without running git; "unknown"
    outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def point_candidates(workload: workloads.Workload, size: str) -> list:
    """Vertices of the point-capacity base network that are not its corners."""
    if workload.name != "pointcap-sg":
        return [5]
    sys.path.insert(0, str(SRC))
    from gasketlab.gasket import GasketSpec, level_network

    net = level_network(GasketSpec(2, [2]), workloads.base_depth(workload, size))
    return [v for v in range(net.n_vertices) if v not in net.boundary]


def prepare(name: str, seed: int, size: str, trace: bool, run_dir: Path):
    """Write the spec file and return (inputs, sample config template)."""
    if not (SRC / "gasketlab" / "__init__.py").is_file():
        raise BenchError(f"no gasketlab sources under {SRC}")
    workload = workloads.WORKLOADS[name]
    inputs = workloads.make_inputs(name, seed, point_candidates(workload, size))
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    spec_path = run_dir / "spec.json"
    spec_path.write_text(json.dumps(workloads.spec_dict(workload, inputs), indent=2) + "\n")
    expected = EXPECTED_DIR / size / f"{name}.json"
    cfg = {
        "workload": name,
        "src": str(SRC),
        "spec": str(spec_path),
        "argv": workloads.command(workload, size, inputs, spec_path, run_dir),
        "out_dir": str(run_dir),
        "expected": str(expected) if seed == workloads.DEFAULT_SEED else None,
        "trace": trace,
        "sample": 0,
        "spans": None,
    }
    return inputs, cfg


def _wait(pid: int, deadline: float):
    """wait4 the sample; kill it at the deadline.  Returns (status, rusage, timed out)."""
    try:
        while True:
            done, status, usage = os.wait4(pid, os.WNOHANG)
            if done:
                return status, usage, False
            if time.monotonic() >= deadline:
                os.kill(pid, signal.SIGKILL)
                _, status, usage = os.wait4(pid, 0)
                return status, usage, True
            time.sleep(0.002)
    except BaseException:
        try:
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
        except ChildProcessError:
            pass
        raise


def run_sample(cfg: dict, env: dict, deadline: float) -> dict:
    """Run one sample interpreter to exit.  The result has the sample's
    timings, its CPU time and peak RSS from wait4, and error (None if the
    sample passed)."""
    run_dir = Path(cfg["out_dir"])
    for name in (workloads.REPORT, workloads.GRID):
        (run_dir / name).unlink(missing_ok=True)
    cfg_path = run_dir / "sample.json"
    cfg_path.write_text(json.dumps(cfg))
    out_path, err_path = run_dir / "sample.out", run_dir / "sample.err"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    pid = os.posix_spawn(
        sys.executable,
        [sys.executable, str(HERE / "sample.py"), str(cfg_path)],
        env,
        file_actions=[
            (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644),
        ],
    )
    status, usage, timed_out = _wait(pid, deadline)
    result = {
        "traced": cfg["trace"],
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "error": None,
    }
    code = os.waitstatus_to_exitcode(status)
    lines = out_path.read_text().splitlines()
    if timed_out:
        result["error"] = "timed out"
    elif code != 0 or not lines:
        tail = err_path.read_text().strip().splitlines()
        result["error"] = f"sample exited {code}: {tail[-1] if tail else 'no output'}"
    else:
        result.update(json.loads(lines[-1]))
    return result


def _report_bytes(run_dir: Path) -> bytes:
    paths = (run_dir / workloads.REPORT, run_dir / workloads.GRID)
    return b"".join(p.read_bytes() for p in paths if p.exists())


def run(name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """Run samples for `seconds` and return the run's record (metadata,
    per-sample results and the aggregated metrics)."""
    run_dir = RUN_DIR / f"{name}-{size}-seed{seed}-trace{int(trace)}"
    inputs, cfg = prepare(name, seed, size, trace, run_dir)
    compileall.compile_dir(str(SRC / "gasketlab"), quiet=1)
    env = sample_env()
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    samples: list = []
    first_report = None
    while True:
        k = len(samples)
        traced = trace and k % 2 == 1
        sample_cfg = dict(cfg, sample=k, trace=traced, spans=str(run_dir / f"spans-{k}.jsonl"))
        result = run_sample(sample_cfg, env, deadline)
        if result["error"] is None:
            # Every sample of a run has the same inputs, so traced or not, its
            # report must be byte-identical to the first one's.
            report = _report_bytes(run_dir)
            if first_report is None:
                first_report = report
            elif report != first_report:
                result["error"] = "report bytes differ from the run's first sample"
        samples.append(result)
        now = time.monotonic()
        enough = now - start >= seconds and (not trace or len(samples) >= 2)
        if enough or now >= deadline:
            break

    ok = [s for s in samples if s["error"] is None]
    record = {
        "meta": {
            "workload": name,
            "seed": seed,
            "size": size,
            "trace": trace,
            "inputs": dataclasses.asdict(inputs),
            "argv": cfg["argv"],
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "scipy": importlib.metadata.version("scipy"),
            "commit": commit(),
        },
        "samples": samples,
        "attempted": len(samples),
        "failed": len(samples) - len(ok),
        "metrics": {},
    }
    if not trace:
        for metric, unit in END_TO_END:
            values = [s[metric] for s in ok]
            if values:
                record["metrics"][metric] = {"value": statistics.median(values), "unit": unit}
    else:
        traced = [s for s in ok if s["traced"]]
        plain = [s for s in ok if not s["traced"]]
        if traced and plain:
            for metric in traced[0]["layers"]:
                unit = layer_unit(metric)
                # Counts repeat exactly, so their median is one of the values.
                median = statistics.median if unit == "s" else statistics.median_low
                value = median(s["layers"][metric] for s in traced)
                record["metrics"][metric] = {"value": value, "unit": unit}
            traced_s = statistics.median(s["report_s"] for s in traced)
            plain_s = statistics.median(s["report_s"] for s in plain)
            record["metrics"]["trace.report_s"] = {"value": traced_s, "unit": "s"}
            record["metrics"]["trace.overhead_s"] = {"value": traced_s - plain_s, "unit": "s"}
    (run_dir / "result.json").write_text(json.dumps(record, indent=2) + "\n")
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full",
                    help="tiny runs every workload in seconds, for the benchmark's own tests")
    args = ap.parse_args(argv)
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    for s in record["samples"]:
        if s["error"] is not None:
            sys.stderr.write(f"sample failed: {s['error']}\n")
    if not record["metrics"]:
        sys.stderr.write("error: no sample passed, nothing to report\n")
        return 1
    attempted, failed = record["attempted"], record["failed"]
    n_med = sum(1 for s in record["samples"] if s["error"] is None and s["traced"] == bool(args.trace))
    for metric, m in record["metrics"].items():
        print(f"{metric} = {m['value']:.6g} {m['unit']}  (median of {n_med} samples)")
    print(f"fail_frac = {failed / attempted:.6g} ratio  ({failed} of {attempted} samples failed)")
    print(json.dumps({"meta": record["meta"]}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
