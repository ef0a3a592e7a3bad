"""The four pinned gasketlab workloads: the inputs each one gets for a seed,
and the checks every report it produces must pass.

Nothing here imports gasketlab at module level, so a sample interpreter can
import this file before its set-up clock starts.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

DEFAULT_SEED = 1
# Not used while the benchmark was tuned; a claimed gain must also hold here.
HELD_OUT_SEED = 2

SEEDED_LEVELS = [2, 3]
# The files a sample's command writes into its output directory.
REPORT = "report.json"
GRID = "grid.csv"

# Labeling seeds of d=2, T={2,3}, weights 1:1 whose word trees have the same
# size as the default labeling (seed 1) where the workload spends its time.
# A seeded tree's size swings by about 2x between labeling seeds, which would
# bury any change under seed noise, so a seed draws its labeling from these.
# find_labelings.py reproduces both lists.
#   verify-a3: same number of depth-3 words, and the first word's subtree
#   within 2% at depths N=4 and N+1=5 (its capacity solves).
A3_LABELINGS = (
    1, 2467, 3339, 4146, 4423, 5307, 5761, 7562,
    9917, 12352, 12546, 14864, 15063, 16206, 19496,
)
#   dim-estimate: cells within 5% at every depth to 8, and within 1% at
#   depth 8 and summed over depths 1..8.
RANK_LABELINGS = (
    1, 406, 485, 487, 550, 598, 621, 686,
    727, 827, 1176, 1387, 1997, 2051, 2094, 2258, 2780,
)


class CheckFailed(Exception):
    """A report that does not match its invariants or its reference."""


@dataclass(frozen=True)
class Inputs:
    """Everything a workload's command depends on, drawn from one seed."""

    labeling_seed: int
    a3_seed: int
    point: int


@dataclass(frozen=True)
class Workload:
    name: str
    seeded: bool     # seeded T={2,3} spec, else the standard gasket (d=2, l=2)
    args: dict       # size -> subcommand arguments after --spec


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "a3-seeded",
            True,
            {
                "full": ["verify-a3", "--depth", "3", "--samples", "64", "--cap-words", "1"],
                "tiny": ["verify-a3", "--depth", "2", "--samples", "8", "--cap-words", "1", "--refine", "0", "--point-samples", "1"],
            },
        ),
        Workload(
            "rank-seeded",
            True,
            {"full": ["dim-estimate", "--depth", "8"], "tiny": ["dim-estimate", "--depth", "6"]},
        ),
        Workload(
            "pointcap-sg",
            False,
            {
                "full": ["capacity", "--base-depth", "6", "--refine", "1"],
                "tiny": ["capacity", "--base-depth", "3", "--refine", "1"],
            },
        ),
        Workload(
            "blowup-sg",
            False,
            {"full": ["blowup", "--depth", "7", "--res", "64"], "tiny": ["blowup", "--depth", "3", "--res", "64"]},
        ),
    )
}


def base_depth(workload: Workload, size: str) -> int:
    args = workload.args[size]
    return int(args[args.index("--base-depth") + 1])


def make_inputs(name: str, seed: int, point_candidates) -> Inputs:
    """The seed-dependent inputs of one workload.  The default seed gives the
    pinned configuration (labeling seed 1, verify-a3 seed 0, vertex 5)."""
    if seed == DEFAULT_SEED:
        return Inputs(labeling_seed=1, a3_seed=0, point=5)
    rng = random.Random(f"{name}:{seed}")
    panel = A3_LABELINGS if name == "a3-seeded" else RANK_LABELINGS
    return Inputs(
        labeling_seed=rng.choice(panel),
        a3_seed=rng.randrange(1 << 31),
        point=rng.choice(point_candidates),
    )


def spec_dict(workload: Workload, inputs: Inputs) -> dict:
    if not workload.seeded:
        return {"dimension": 2, "levels": [2]}
    return {
        "dimension": 2,
        "levels": SEEDED_LEVELS,
        "labeling": {
            "type": "seeded",
            "seed": inputs.labeling_seed,
            "weights": {str(l): 1.0 for l in SEEDED_LEVELS},
        },
    }


def command(workload: Workload, size: str, inputs: Inputs, spec_path, out_dir) -> list:
    """The gasketlab argument list for one sample; reports go under out_dir."""
    out_dir = Path(out_dir)
    sub, *rest = workload.args[size]
    argv = [sub, "--spec", str(spec_path), *rest, "--out", str(out_dir / REPORT)]
    if sub == "verify-a3":
        argv += ["--seed", str(inputs.a3_seed)]
    elif sub == "capacity":
        argv += ["--point", str(inputs.point)]
    elif sub == "blowup":
        argv += ["--out-grid", str(out_dir / GRID)]
    return argv


# --- output checks ---------------------------------------------------------------


def _exact(value, what: str) -> Fraction:
    if not isinstance(value, str) or "/" not in value:
        raise CheckFailed(f"{what} is not an exact rational: {value!r}")
    return Fraction(value)


def check_report(name: str, argv: list, out_dir, expected: dict | None) -> None:
    """Raise CheckFailed unless the sample's report holds its invariants and,
    when a reference is given, equals it."""
    out_dir = Path(out_dir)
    with open(out_dir / REPORT, encoding="utf-8") as fh:
        report = json.load(fh)["report"]
    if name == "a3-seeded":
        if report["inequality_violations"] != 0:
            raise CheckFailed(f"{report['inequality_violations']} mass-inequality violations")
        if _exact(report["worst_mass_ratio"], "worst_mass_ratio") > 2:
            raise CheckFailed(f"worst_mass_ratio {report['worst_mass_ratio']} above 2")
    elif name == "rank-seeded":
        if report["estimated_index"] != 1:
            raise CheckFailed(f"estimated_index {report['estimated_index']} != 1")
    elif name == "pointcap-sg":
        values = [_exact(v, "capacity value") for v in report["values"]]
        refine = int(argv[argv.index("--refine") + 1])
        if len(values) != refine + 1 or len(set(values)) != 1:
            raise CheckFailed(f"capacity values not equal across refinements: {report['values']}")
    elif name == "blowup-sg":
        total = _exact(report["total_mass"], "total_mass")
        depth = int(argv[argv.index("--depth") + 1])
        if report["points"] != 3**depth:
            raise CheckFailed(f"{report['points']} points, want 3^{depth}")
        with open(out_dir / GRID, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        grid_sum = math.fsum(float(row[2]) for row in rows)
        if not math.isclose(grid_sum, float(total), rel_tol=1e-12, abs_tol=0.0):
            raise CheckFailed(f"grid sums to {grid_sum!r}, total_mass is {float(total)!r}")
    if expected is not None:
        _compare(comparable(report), expected, "report")


def comparable(report: dict) -> dict:
    """The part of a report the reference pins: all but arithmetic_mode, which
    later changes may correct on purpose."""
    return {k: v for k, v in report.items() if k != "arithmetic_mode"}


def _compare(got, want, path: str) -> None:
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            raise CheckFailed(f"{path}: keys differ from the reference")
        for key in want:
            _compare(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            raise CheckFailed(f"{path}: length differs from the reference")
        for i, (g, w) in enumerate(zip(got, want)):
            _compare(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        if isinstance(got, bool) or not isinstance(got, (int, float)) or not math.isclose(
            got, want, rel_tol=1e-9, abs_tol=0.0
        ):
            raise CheckFailed(f"{path}: {got!r} differs from the reference {want!r} beyond 1e-9")
    elif got != want or type(got) is not type(want):
        raise CheckFailed(f"{path}: {got!r} differs from the reference {want!r}")
