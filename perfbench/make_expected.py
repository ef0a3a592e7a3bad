"""Write the reference reports that samples at the default seed are compared with.

    python3 perfbench/make_expected.py

Runs one sample of every workload at the default seed, in both sizes, and
stores its report section without arithmetic_mode under expected/<size>/.
Only regenerate them on a commit whose reports are known to be right: a
change that alters a reported number must show up as a failed check.
"""

from __future__ import annotations

import json
import time

import run
import workloads


def main() -> None:
    env = run.sample_env()
    for size in ("full", "tiny"):
        out = run.EXPECTED_DIR / size
        out.mkdir(parents=True, exist_ok=True)
        for name in workloads.WORKLOADS:
            run_dir = run.RUN_DIR / f"expected-{name}-{size}"
            _, cfg = run.prepare(name, workloads.DEFAULT_SEED, size, False, run_dir)
            result = run.run_sample(dict(cfg, expected=None), env, time.monotonic() + run.RUN_LIMIT_S)
            if result["error"] is not None:
                raise SystemExit(f"{name} ({size}): {result['error']}")
            with open(run_dir / workloads.REPORT, encoding="utf-8") as fh:
                report = workloads.comparable(json.load(fh)["report"])
            (out / f"{name}.json").write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
            print(f"wrote {out / (name + '.json')}")


if __name__ == "__main__":
    main()
