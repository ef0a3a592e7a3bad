"""Batch front end.

Usage:
    gasketlab renorm --dim 2 --level 3
    gasketlab spectra --dim 2 --levels 2,3
    gasketlab words --spec sg.json --depth 2 --out words.csv
    gasketlab dim-estimate --spec sg.json --depth 10 --out report.json
    gasketlab verify-a3 --spec sg.json --depth 3 --samples 64 --out a3.json
    gasketlab capacity --spec sg.json --inner-n 4 --refine 2
    gasketlab blowup --spec sg.json --depth 6 --res 64 --out-grid grid.csv
    gasketlab hausdorff --spec sg.json

Exit codes: 0 success, 2 invalid input, 3 numerical failure.  The error's
type sets the code: an `InputError` exits 2 and a `NumericalError` exits 3
(see `gasketlab.errors`); either is one line, never a traceback, also for a
spec that is not UTF-8 or is nested too deeply and for an output path
through a regular file.  Reports embed the resolved configuration and are
byte-identical for identical inputs.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from contextlib import contextmanager, suppress
from dataclasses import fields
from fractions import Fraction

from . import blowup as blowup_mod
from . import capacity as capacity_mod
from . import energy as energy_mod
from .errors import GasketLabError, InvalidParameterError, SpecParseError
from .gasket import DEFAULT_WORD_BUDGET, GasketSpec, _check_depth, _rational, encode_word, iter_words, parse_word
from .harmonic import extension_matrices, renormalization_factor, theta
from .subdivision import cell_count


def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


@contextmanager
def _default_int_digits():
    """Python's default limit on an int's digits, which `main` lifts, for the
    duration: past it a conversion is a ValueError, not a quadratic parse."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    lifted = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(lifted)


def load_spec(path: str) -> GasketSpec:
    """Read and validate a gasket spec file, its numbers under the default
    limit on an int's digits."""
    with _default_int_digits():
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise SpecParseError(f"cannot read spec {path!r}: {exc}") from exc
        except (ValueError, RecursionError) as exc:
            # not UTF-8, nested past the decoder's recursion limit, or a
            # number past the digit limit
            raise SpecParseError(f"spec {path!r} is not valid JSON: {exc}") from exc
        return GasketSpec.from_dict(data)


@contextmanager
def _output(out: str | None, **open_args):
    """The stream a result goes to: the file `out`, else stdout.  A file is
    written under a temporary name in its directory and renamed to `out` only
    once the result is complete, so a run that fails leaves no partial file;
    a link, device or pipe is written in place, through the path itself.  A
    path that cannot be written is an input error."""
    if not out:
        yield sys.stdout
        return
    in_place = os.path.islink(out) or (os.path.exists(out) and not os.path.isfile(out))
    head, tail = os.path.split(out)
    tmp = out if in_place else os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", **open_args) as fh:
            yield fh
        os.replace(tmp, out)
    except OSError as exc:
        raise InvalidParameterError(f"cannot write {out!r}: {exc.strerror or exc}") from exc
    finally:
        if not in_place:  # the temporary file may never have been made
            with suppress(OSError):
                os.unlink(tmp)


def _rationals(text: str, flag: str) -> list:
    try:
        return [_rational(x) for x in text.split(",")]
    except (ValueError, ZeroDivisionError):
        raise InvalidParameterError(f"{flag} must be comma-separated rationals, got {text!r}") from None


_OUTPUT_ARGS = ("func", "out", "rows_out", "out_cloud", "out_grid")


def _config(args, spec: GasketSpec, **resolved) -> dict:
    """The run's resolved configuration: every parsed argument but the output
    paths, the parsed spec, and the values the run resolved itself."""
    config = {k: v for k, v in vars(args).items() if k not in _OUTPUT_ARGS}
    return {**config, "spec": spec.to_dict(), **resolved}


def _emit_json(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2, default=str) + "\n"
    with _output(out) as fh:
        fh.write(text)


def _emit_csv(header: list, rows, out: str | None) -> None:
    with _output(out, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


# --- subcommands ---------------------------------------------------------------


def cmd_renorm(args) -> int:
    r = renormalization_factor(args.dim, args.level)
    sys.stdout.write(frac_str(r) + "\n")
    return 0


def cmd_spectra(args) -> int:
    levels = sorted(set(args.levels))
    for l in levels:
        data = extension_matrices(args.dim, l)
        sys.stdout.write(f"level {l} r {frac_str(data.r)}\n")
        sys.stdout.write(f"level {l} s {frac_str(data.s)}\n")
        sys.stdout.write(f"level {l} ratio {float(data.theta_term):.15g}\n")
    th = theta(args.dim, levels)
    sys.stdout.write(f"theta {float(th):.15g}\n")
    return 0


def cmd_words(args) -> int:
    _check_depth(args.depth)  # the walk checks only once the first row is asked for
    spec = load_spec(args.spec)
    rows = (
        [encode_word(w), r.numerator, r.denominator, mu.numerator, mu.denominator]
        for w, r, mu in iter_words(spec, args.depth, args.budget)
    )
    _emit_csv(["word", "r_num", "r_den", "mu_num", "mu_den"], rows, args.out)
    return 0


def cmd_dim_estimate(args) -> int:
    spec = load_spec(args.spec)
    report = energy_mod.index_estimate(
        spec, args.depth, eps=args.eps, delta=args.delta, budget=args.budget
    )
    _emit_json({"config": _config(args, spec), "report": report.to_dict()}, args.out)
    return 0


def _check_refine(refine: int) -> None:
    if refine < 0:
        raise InvalidParameterError(f"refinement must be >= 0, got {refine}")


def cmd_verify_a3(args) -> int:
    spec = load_spec(args.spec)
    _check_refine(args.refine)
    report = capacity_mod.a3_report(
        spec,
        args.depth,
        N=args.inner_n,
        samples=args.samples,
        seed=args.seed,
        cap_words=args.cap_words,
        point_samples=args.point_samples,
        budget=args.budget,
    )
    payload = {"config": _config(args, spec, inner_n=report.inner_depth), "report": {**report.to_dict(), "refinement": args.refine}}
    _emit_json(payload, args.out)
    if args.rows_out:
        _emit_csv(
            [f.name for f in fields(capacity_mod.A3SampleRow)],
            (row.as_list() for row in report.rows),
            args.rows_out,
        )
    return 0


def _refinements(args) -> list:
    """The refinements k = 0..--refine of a capacity report.  A capacity is one
    exact value at every refinement, so the report only repeats it, and at
    most --budget times."""
    _check_refine(args.refine)
    if args.refine + 1 > args.budget:
        raise InvalidParameterError(f"more than {args.budget} refinements")
    return list(range(args.refine + 1))


def cmd_capacity(args) -> int:
    spec = load_spec(args.spec)
    word = parse_word(args.word)
    spec.validate_word(word)
    resolved = {}
    target = args.point
    if target is not None:  # a bad target vertex is refused before --refine, and solved only after it
        target = capacity_mod._point_target(spec, word, target, args.base_depth, args.budget)
    refinements = _refinements(args)
    if target is None:
        _check_depth(args.base_depth)
        resolved["inner_n"] = capacity_mod.inner_depth(spec, args.inner_n)
        value = capacity_mod.corner_chain_capacity(spec, word, resolved["inner_n"])
    else:
        if args.inner_n is not None:  # checked, not resolved: from about d = 30 no default depth is found
            capacity_mod.inner_depth(spec, args.inner_n)
        value = capacity_mod._point_capacity(spec, *target)
    payload = {
        "config": _config(args, spec, **resolved),
        "report": {
            "kind": "inner-set" if args.point is None else "point",
            "refinements": refinements,
            "values": [frac_str(value)] * len(refinements),
            "root_r": frac_str(spec.r_of_word(word)),
            "arithmetic_mode": "exact",
        },
    }
    _emit_json(payload, args.out)
    return 0


def cmd_blowup(args) -> int:
    if args.res < 8:
        raise InvalidParameterError(f"--res must be >= 8, got {args.res}")
    spec = load_spec(args.spec)
    word = parse_word(args.word)
    spec.validate_word(word)
    if (args.b1 is None) != (args.b2 is None):
        raise InvalidParameterError("give both --b1 and --b2 or neither")
    if args.b1 is not None:
        b1 = _rationals(args.b1, "--b1")
        b2 = _rationals(args.b2, "--b2")
    else:
        basis = energy_mod.default_basis(spec.d)
        b1, b2 = basis.raw[0], basis.raw[1]
    cloud = blowup_mod.blowup_cloud(spec, word, b1, b2, args.depth, budget=args.budget)
    # the grid is built before any file is written, so a refused grid leaves none
    grid = blowup_mod.density_grid(cloud, args.res) if args.out_grid else None
    if args.out_cloud:
        rows = (
            [text, float(x), float(y), float(w), float(e)]
            for text, (x, y), w, e in zip(cloud.words(), cloud.points, cloud.weights.floats, cloud.e_means.floats)
        )
        _emit_csv(["word", "x", "y", "weight", "e_value"], rows, args.out_cloud)
    if args.out_grid:
        # nonzero() walks the grid row-major, as the rows were always written
        rows = ([i, j, grid[i, j]] for i, j in zip(*grid.nonzero()))
        _emit_csv(["row", "col", "mass"], rows, args.out_grid)
    payload = {
        "config": _config(args, spec, b1=[frac_str(x) for x in b1], b2=[frac_str(x) for x in b2]),
        "report": {
            "points": cloud.n_points,
            "alpha": cloud.alpha,
            "total_mass": frac_str(cloud.total_mass),
            "arithmetic_mode": "exact",
        },
    }
    _emit_json(payload, args.out)
    return 0


def cmd_hausdorff(args) -> int:
    spec = load_spec(args.spec)
    per_level = {}
    for l in spec.levels:
        n = cell_count(spec.d, l)
        per_level[str(l)] = {
            "cells": n,
            "log_ratio": math.log(n / l),
            "frostman_exponent": math.log(n) / math.log(l),
        }
    payload = {
        "config": _config(args, spec),
        "report": {
            "per_level": per_level,
            "printed_formula_min_log_N_over_l": min(v["log_ratio"] for v in per_level.values()),
            "frostman_exponent_min_logN_over_logl": min(v["frostman_exponent"] for v in per_level.values()),
            "dimension_floor_log_half_d_plus_1": math.log((spec.d + 1) / 2),
            "note": "the two lower-bound expressions are both reported; they differ and neither is adjudicated here",
        },
    }
    _emit_json(payload, args.out)
    return 0


# --- argument wiring -------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument error is an input error: one line and exit 2, no usage block."""

    def error(self, message):
        raise InvalidParameterError(message)


def _int_list(text: str) -> list:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be comma-separated integers, got {text!r}") from None


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="gasketlab", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="subcommand", required=True)
    spec_out = argparse.ArgumentParser(add_help=False)
    spec_out.add_argument("--spec", required=True)
    spec_out.add_argument("--out", default=None)
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--budget", type=_positive_int, default=DEFAULT_WORD_BUDGET)

    p = sub.add_parser("renorm", help="print the renormalization factor r for one level")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--level", type=int, required=True)
    p.set_defaults(func=cmd_renorm)

    # no abbreviations, so that --level is rejected, not read as --levels
    p = sub.add_parser("spectra", help="print r, s and contraction ratios for levels", allow_abbrev=False)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--levels", type=_int_list, required=True)
    p.set_defaults(func=cmd_spectra)

    p = sub.add_parser("words", help="emit the admissible words of one depth as CSV", parents=[spec_out, budget])
    p.add_argument("--depth", type=int, required=True)
    p.set_defaults(func=cmd_words)

    p = sub.add_parser("dim-estimate", help="rank-decay scan and index estimate", parents=[spec_out, budget])
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--eps", type=float, default=1e-8)
    p.add_argument("--delta", type=float, default=1e-3)
    p.set_defaults(func=cmd_dim_estimate)

    p = sub.add_parser("verify-a3", help="energy/capacity balance report", parents=[spec_out, budget])
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--inner-n", type=int, default=None)
    p.add_argument("--samples", type=int, default=64)
    p.add_argument("--refine", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cap-words", type=int, default=8)
    p.add_argument("--point-samples", type=int, default=3)
    p.add_argument("--rows-out", default=None)
    p.set_defaults(func=cmd_verify_a3)

    p = sub.add_parser("capacity", help="relative or point capacity below a word", parents=[spec_out, budget])
    p.add_argument("--word", default="")
    p.add_argument("--inner-n", type=int, default=None)
    p.add_argument("--point", type=int, default=None)
    p.add_argument("--base-depth", type=int, default=1)
    p.add_argument("--refine", type=int, default=1)
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("blowup", help="push-forward cloud and density grid", parents=[spec_out, budget])
    p.add_argument("--word", default="")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--res", type=int, default=64)
    p.add_argument("--b1", default=None, help="comma-separated rationals")
    p.add_argument("--b2", default=None)
    p.add_argument("--out-cloud", default=None)
    p.add_argument("--out-grid", default=None)
    p.set_defaults(func=cmd_blowup)

    p = sub.add_parser("hausdorff", help="report the dimension lower-bound expressions", parents=[spec_out])
    p.set_defaults(func=cmd_hausdorff)
    return ap


def main(argv=None) -> int:
    # an exact rational may run past the interpreter's default limit of 4,300
    # digits for turning an int into a string
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # so a closed stdout fails here, not at exit
        return code
    except GasketLabError as exc:
        sys.stderr.write(f"{exc.prefix}: {exc}\n")
        return exc.exit_code
    except BrokenPipeError:
        # The reader closed stdout early (`| head`): stop quietly, and point
        # stdout at devnull so the interpreter's final flush cannot fail too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
