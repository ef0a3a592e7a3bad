import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gasketlab import capacity, cli, energy, errors, gasket
from gasketlab.capacity import corner_chain_capacity, point_capacity
from gasketlab.cli import load_spec, main
from gasketlab.errors import GasketLabError, SpecParseError, SpecSemanticError
from gasketlab.gasket import DEFAULT_WORD_BUDGET, GasketSpec, _rational, encode_word, iter_words, parse_word
from gasketlab.subdivision import cell_count

SRC = str(Path(__file__).resolve().parents[1] / "src")


# spec files the JSON decoder refuses with something other than a JSONDecodeError
UNDECODABLE_SPECS = {
    "not-utf8.json": b"\xff\xfe",
    "nested-2000.json": b"[" * 2000 + b"]" * 2000,
}


def write_undecodable_spec(tmp_path, name) -> Path:
    path = tmp_path / name
    path.write_bytes(UNDECODABLE_SPECS[name])
    return path


@pytest.fixture()
def sg_spec(tmp_path):
    path = tmp_path / "sg.json"
    path.write_text('{"dimension": 2, "levels": [2]}')
    return str(path)


@pytest.fixture()
def mixed_spec(tmp_path):
    path = tmp_path / "mixed.json"
    path.write_text(
        '{"dimension": 2, "levels": [2, 3],'
        ' "labeling": {"type": "explicit", "entries": [{"word": "", "label": 3}], "default": 2}}'
    )
    return str(path)


def test_load_spec_defaults_and_figure_style(sg_spec, mixed_spec):
    spec = load_spec(sg_spec)
    assert spec.d == 2 and spec.levels == (2,) and spec.measure == "natural"
    mixed = load_spec(mixed_spec)
    assert mixed.label_of(()) == 3
    assert mixed.label_of(((1, 3),)) == 2


def test_load_spec_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(SpecParseError):
        load_spec(str(bad))
    for name in UNDECODABLE_SPECS:
        with pytest.raises(SpecParseError, match="is not valid JSON"):
            load_spec(str(write_undecodable_spec(tmp_path, name)))
    sem = tmp_path / "sem.json"
    sem.write_text('{"dimension": 2, "levels": [2, 3], "labeling": '
                   '{"type": "explicit", "entries": [{"word": "", "label": 5}], "default": 2}}')
    with pytest.raises(SpecSemanticError):
        load_spec(str(sem))


def test_renorm_prints_exact_rational(capsys):
    assert main(["renorm", "--dim", "2", "--level", "3"]) == 0
    assert capsys.readouterr().out == "7/15\n"


def test_spectra_output(capsys):
    assert main(["spectra", "--dim", "2", "--levels", "2,3"]) == 0
    out = capsys.readouterr().out
    assert "level 2 r 3/5" in out
    assert "level 3 r 7/15" in out
    assert "theta 0.333333333333333" in out


def test_words_depth_zero(sg_spec, capsys):
    assert main(["words", "--spec", sg_spec, "--depth", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "word,r_num,r_den,mu_num,mu_den"
    assert lines[1] == ",1,1,1,1"
    assert len(lines) == 2


def test_words_csv_file(sg_spec, tmp_path):
    out = tmp_path / "w.csv"
    assert main(["words", "--spec", sg_spec, "--depth", "2", "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()
    assert len(rows) == 10
    assert rows[1].startswith("1^2.1^2,9,25,1,9")


def test_words_budget_failure_leaves_no_file(sg_spec, tmp_path, capsys):
    out = tmp_path / "w.csv"
    assert main(["words", "--spec", sg_spec, "--depth", "6", "--budget", "10", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: more than 10 words at depth 6\n"
    assert list(tmp_path.iterdir()) == [Path(sg_spec)]
    # a file already there keeps its contents
    out.write_text("old\n")
    assert main(["words", "--spec", sg_spec, "--depth", "6", "--budget", "10", "--out", str(out)]) == 2
    assert out.read_text() == "old\n"
    assert sorted(tmp_path.iterdir()) == sorted([Path(sg_spec), out])


def test_words_refuses_a_depth_that_must_exceed_the_budget_before_a_row(sg_spec, capsys):
    # 3^12 standard-gasket words at depth 12 are more than the budget
    assert main(["words", "--spec", sg_spec, "--depth", "12", "--budget", "100000"]) == 2
    assert capsys.readouterr() == ("word,r_num,r_den,mu_num,mu_den\r\n", "error: more than 100000 words at depth 12\n")


@pytest.mark.parametrize(
    "argv, walks",
    [
        (["capacity", "--point", "5", "--base-depth", "6"], True),
        (["capacity", "--inner-n", "6"], False),
        (["blowup", "--depth", "6"], True),
    ],
    ids=["point", "relative", "blowup"],
)
def test_capacity_and_blowup_honour_and_record_the_budget(argv, walks, sg_spec, tmp_path, capsys):
    out = tmp_path / "r.json"
    if not walks:
        # a relative capacity is the corner-chain identity: it walks no words
        assert main(argv + ["--spec", sg_spec, "--budget", "10", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["budget"] == 10
        return
    assert main(argv + ["--spec", sg_spec, "--budget", "10"]) == 2
    assert capsys.readouterr().err == "error: more than 10 words at depth 6\n"
    assert main(argv[:-1] + ["2", "--spec", sg_spec, "--budget", "100", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["budget"] == 100


GOLDEN = Path(__file__).resolve().parent / "golden"
SG = '{"dimension": 2, "levels": [2]}'
SEEDED_T23 = '{"dimension": 2, "levels": [2, 3], "labeling": {"type": "seeded", "seed": 1, "weights": {"2": 1.0, "3": 1.0}}}'
SEEDED_D3 = '{"dimension": 3, "levels": [2, 3], "labeling": {"type": "seeded", "seed": 7, "weights": {"2": 1.0, "3": 1.0}}}'


@pytest.mark.parametrize(
    "golden, spec_text, argv",
    [
        ("capacity_sg_n4_r2.json", SG, ["--inner-n", "4", "--refine", "2"]),
        ("capacity_seeded_1-3_r2.json", SEEDED_T23, ["--word", "1^3", "--refine", "2"]),
        ("capacity_seeded_d3_n2.json", SEEDED_D3, ["--inner-n", "2"]),
    ],
    ids=["sg", "seeded-d2-T23", "seeded-d3"],
)
def test_relative_capacity_reports_are_the_golden_bytes(golden, spec_text, argv, tmp_path, capsys):
    # the bytes the relative capacity printed when every refinement was a network solve
    spec = tmp_path / "spec.json"
    spec.write_text(spec_text)
    assert main(["capacity", "--spec", str(spec), *argv]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ((GOLDEN / golden).read_text(), "")


@pytest.mark.parametrize(
    "golden, spec_text, argv",
    [
        ("capacity_point_sg_d4_v5.json", SG, ["--point", "5", "--base-depth", "4", "--refine", "1"]),
        ("capacity_point_sg_d4_v100.json", SG, ["--point", "100", "--base-depth", "4", "--refine", "1"]),
        (
            "capacity_point_seeded_1-3_v7_d3.json",
            SEEDED_T23,
            ["--word", "1^3", "--point", "7", "--base-depth", "3", "--refine", "1"],
        ),
    ],
    ids=["sg-v5", "sg-v100", "seeded-d2-T23"],
)
def test_point_capacity_reports_are_the_golden_bytes(golden, spec_text, argv, tmp_path, capsys):
    # the bytes the point capacity printed when it numbered the vertices on a
    # whole network and solved every refinement
    spec = tmp_path / "spec.json"
    spec.write_text(spec_text)
    assert main(["capacity", "--spec", str(spec), *argv]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ((GOLDEN / golden).read_text(), "")


def test_verify_a3_report_and_rows_are_the_golden_bytes(tmp_path, capsys):
    # the bytes verify-a3 wrote when it numbered each capacity word's point
    # samples on the whole depth-N network
    spec = tmp_path / "spec.json"
    spec.write_text(SEEDED_T23)
    rows = tmp_path / "rows.csv"
    argv = ["verify-a3", "--spec", str(spec), "--depth", "2", "--cap-words", "2", "--rows-out", str(rows)]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ((GOLDEN / "verify_a3_seeded_d2_c2.json").read_text(), "")
    assert rows.read_bytes() == (GOLDEN / "verify_a3_seeded_d2_c2_rows.csv").read_bytes()


def test_report_keys_are_the_dataclass_fields(sg_spec, tmp_path):
    spec = load_spec(sg_spec)
    reports = (energy.index_estimate(spec, 3), capacity.a3_report(spec, 1, samples=2, cap_words=1, point_samples=1))
    for report in reports:
        assert list(report.to_dict()) == [f.name for f in fields(report) if f.name != "rows"] + ["arithmetic_mode"]
    rows = tmp_path / "rows.csv"
    argv = ["verify-a3", "--spec", sg_spec, "--depth", "1", "--samples", "2", "--cap-words", "1",
            "--out", str(tmp_path / "a3.json"), "--rows-out", str(rows)]
    assert main(argv) == 0
    assert rows.read_text().splitlines()[0].split(",") == [f.name for f in fields(capacity.A3SampleRow)]


@pytest.mark.parametrize(
    "golden, spec_text, argv",
    [
        ("verify_a3_d3_T2_m2", '{"dimension": 3, "levels": [2]}', ["--depth", "2"]),
        ("verify_a3_seeded_d2_s150_seed-7", SEEDED_T23, ["--depth", "2", "--samples", "150", "--seed", "-7", "--cap-words", "2"]),
    ],
    ids=["d3-T2", "seeded-d2-T23-150-samples"],
)
def test_verify_a3_reports_and_rows_are_the_golden_bytes(golden, spec_text, argv, tmp_path, capsys):
    # the bytes verify-a3 wrote when every direction was hashed and every
    # quadratic form taken one sample at a time
    spec = tmp_path / "spec.json"
    spec.write_text(spec_text)
    rows = tmp_path / "rows.csv"
    assert main(["verify-a3", "--spec", str(spec), *argv, "--rows-out", str(rows)]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ((GOLDEN / f"{golden}.json").read_text(), "")
    assert rows.read_bytes() == (GOLDEN / f"{golden}_rows.csv").read_bytes()


def test_the_point_paths_number_no_whole_network(tmp_path, capsys, monkeypatch):
    # point capacities find their vertices from label counts and take their
    # values by one descent of exterior traces: no network is built or solved
    def refuse(*args, **kwargs):
        raise AssertionError("a network was built or solved")

    for name in ("level_network", "dirichlet_solve"):
        monkeypatch.setattr(gasket, name, refuse)
        monkeypatch.setattr(capacity, name, refuse, raising=False)
    want = json.loads((GOLDEN / "capacity_point_sg_d4_v5.json").read_text())["report"]["values"][0]
    assert point_capacity(GasketSpec(2, [2]), (), 5, base_depth=4) == Fraction(want)
    assert isinstance(point_capacity(GasketSpec(2, [2]), (), 5, base_depth=8), Fraction)
    spec = tmp_path / "spec.json"
    for golden, spec_text, argv in [
        ("capacity_point_sg_d4_v100", SG, ["capacity", "--point", "100", "--base-depth", "4", "--refine", "1"]),
        ("verify_a3_seeded_d2_c2", SEEDED_T23, ["verify-a3", "--depth", "2", "--cap-words", "2"]),
        ("verify_a3_d3_T2_m2", '{"dimension": 3, "levels": [2]}', ["verify-a3", "--depth", "2"]),
    ]:
        spec.write_text(spec_text)
        rows = tmp_path / "rows.csv"
        extra = ["--rows-out", str(rows)] if argv[0] == "verify-a3" else []
        assert main([*argv, "--spec", str(spec), *extra]) == 0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ((GOLDEN / f"{golden}.json").read_text(), "")
        if extra:
            assert rows.read_bytes() == (GOLDEN / f"{golden}_rows.csv").read_bytes()


def test_verify_a3_refuses_a_depth_n_over_the_budget_before_its_floats(tmp_path, capsys):
    # a depth-1200 chain capacity is past float range, so the picked word's
    # depth-N network is numbered, and refused, before it is converted
    spec = tmp_path / "spec.json"
    spec.write_text(SEEDED_T23)
    argv = ["verify-a3", "--spec", str(spec), "--depth", "1", "--inner-n", "1200", "--samples", "1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: more than {DEFAULT_WORD_BUDGET} words at depth 1200\n")


def test_verify_a3_capacities_past_float_range_exit_2(tmp_path, capsys):
    # 21^640 depth-640 leaves below a level-6 word fit the budget, and the
    # chain capacity of that depth is past float range
    spec = tmp_path / "spec.json"
    spec.write_text('{"dimension": 2, "levels": [6]}')
    argv = ["verify-a3", "--spec", str(spec), "--depth", "0", "--inner-n", "640", "--budget", str(21**700)]
    assert main([*argv, "--samples", "1", "--cap-words", "1", "--point-samples", "1"]) == 2
    assert capsys.readouterr() == ("", "error: the capacities below a word are too large for floating point\n")


@pytest.mark.parametrize(
    "spec_text, word, base_depth",
    [(SEEDED_T23, "", 4), (SEEDED_T23, "1^3", 3), (SG, "", 4)],
    ids=["seeded-root", "seeded-below-1^3", "sg-closed-form"],
)
def test_a_point_capacity_takes_a_budget_of_its_leaf_count(spec_text, word, base_depth, tmp_path, capsys):
    # the label counts and the one-level closed form refuse exactly what the
    # numbering walk refused: more depth-base_depth leaves than the budget
    spec = tmp_path / "spec.json"
    spec.write_text(spec_text)
    leaves = len(list(iter_words(load_spec(str(spec)), base_depth, root=parse_word(word))))
    argv = ["capacity", "--spec", str(spec), "--word", word, "--point", "7", "--base-depth", str(base_depth)]
    assert main([*argv, "--budget", str(leaves)]) == 0
    assert json.loads(capsys.readouterr().out)["report"]["kind"] == "point"
    assert main([*argv, "--budget", str(leaves - 1)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: more than {leaves - 1} words at depth {base_depth}\n")


@pytest.mark.parametrize(
    "golden, spec_text, depth",
    [
        ("dim_estimate_seeded_d2_m6.json", SEEDED_T23, 6),
        ("dim_estimate_sg_m8.json", SG, 8),
        ("dim_estimate_seeded_d3_m4.json", SEEDED_D3, 4),
    ],
    ids=["seeded-d2-T23", "sg", "seeded-d3"],
)
def test_dim_estimate_reports_are_the_golden_bytes(golden, spec_text, depth, tmp_path, capsys):
    # the bytes dim-estimate printed when every cell's eigenvalues came from
    # np.linalg.eigvalsh; d = 3 still takes that path
    spec = tmp_path / "spec.json"
    spec.write_text(spec_text)
    assert main(["dim-estimate", "--spec", str(spec), "--depth", str(depth)]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ((GOLDEN / golden).read_text(), "")


@pytest.mark.parametrize(
    "golden, spec_text, argv, files",
    [
        ("blowup_sg_m5", SG, ["--depth", "5", "--res", "64"], True),
        ("blowup_seeded_1-3.2-3_m5", SEEDED_T23, ["--word", "1^3.2^3", "--depth", "5", "--res", "32"], True),
        ("blowup_seeded_m4_b1b2", SEEDED_T23, ["--depth", "4", "--b1", "1/3,5,-7", "--b2", "2,0,1/9"], False),
    ],
    ids=["sg", "seeded-d2-T23-word", "seeded-d2-T23-pair"],
)
def test_blowup_reports_grids_and_clouds_are_the_golden_bytes(golden, spec_text, argv, files, tmp_path, capsys):
    # the bytes blowup wrote when it transported the pair one cell at a time
    spec = tmp_path / "spec.json"
    spec.write_text(spec_text)
    grid, cloud = tmp_path / "grid.csv", tmp_path / "cloud.csv"
    outs = ["--out-grid", str(grid), "--out-cloud", str(cloud)] if files else []
    assert main(["blowup", "--spec", str(spec), *argv, *outs]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ((GOLDEN / f"{golden}.json").read_text(), "")
    if files:
        assert grid.read_bytes() == (GOLDEN / f"{golden}_grid.csv").read_bytes()
        assert cloud.read_bytes() == (GOLDEN / f"{golden}_cloud.csv").read_bytes()


def test_a_capacity_past_the_int_string_limit_prints_in_full(tmp_path, capsys):
    # the depth-10,000 corner chains give a denominator of more than 4,300
    # digits, Python's default limit for turning an int into a string
    spec = tmp_path / "spec.json"
    spec.write_text(SEEDED_T23)
    assert main(["capacity", "--spec", str(spec), "--inner-n", "10000", "--refine", "0"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    (value,) = json.loads(captured.out)["report"]["values"]
    num, den = value.split("/")
    assert len(den) > 4300
    want = corner_chain_capacity(load_spec(str(spec)), (), 10000)
    assert (int(num), int(den)) == (want.numerator, want.denominator)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--point", "5", "--base-depth", "6", "--budget", "100"], "more than 100 words at depth 6"),
        (["--point", "-1", "--base-depth", "6"], "vertex -1 not in depth-6 network"),
        (["--point", "1095", "--base-depth", "6"], "vertex 1095 not in depth-6 network"),
        (["--point", "0", "--base-depth", "6"], "point capacity target must not be a corner of the word"),
    ],
    ids=["budget", "negative", "past-the-last", "corner"],
)
def test_a_bad_point_capacity_input_exits_2_with_one_line(argv, message, sg_spec, capsys):
    # the numbering walk counts the same depth-6 leaves against the budget as
    # the whole network did, and the depth-6 standard gasket has 1,095 vertices
    assert main(["capacity", "--spec", sg_spec, *argv]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["blowup", "--depth", "2", "--b1", "", "--b2", "1,2,3"], "--b1 must be comma-separated rationals, got ''"),
        (["blowup", "--depth", "2", "--b1", "", "--b2", ""], "--b1 must be comma-separated rationals, got ''"),
        (["capacity", "--point", "1", "--inner-n", "0"], "inner-set depth must be >= 1, got 0"),
        (["capacity", "--base-depth", "-1"], "depth must be >= 0, got -1"),
    ],
    ids=["empty-b1", "empty-pair", "point-inner-n", "relative-base-depth"],
)
def test_an_empty_pair_or_an_unused_capacity_depth_exits_2_with_one_line(argv, message, sg_spec, tmp_path, capsys):
    # an empty --b1 is a malformed pair, not the default one, and a capacity
    # run checks the depth it records but does not use
    out = tmp_path / "out.json"
    assert main([*argv, "--spec", sg_spec, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")
    assert not out.exists()


def test_a_point_run_does_not_resolve_the_default_inner_depth(sg_spec, monkeypatch, capsys):
    # from about d = 30 no default inner depth is found, and a point run has
    # no use for one
    def refuse(*args, **kwargs):
        raise AssertionError("a point run resolved the default inner depth")

    monkeypatch.setattr(capacity, "default_inner_depth", refuse)
    assert main(["capacity", "--spec", sg_spec, "--point", "5", "--base-depth", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["inner_n"] is None
    assert main(["capacity", "--spec", sg_spec, "--point", "5", "--base-depth", "2", "--inner-n", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["inner_n"] == 3


@pytest.mark.parametrize(
    "spec_text, argv, message",
    [
        (SG, ["capacity", "--inner-n", "0", "--refine", "-1"], "refinement must be >= 0, got -1"),
        (SG, ["capacity", "--point", "1095", "--base-depth", "6", "--refine", "-1"],
         "vertex 1095 not in depth-6 network"),
        (SG, ["capacity", "--point", "5", "--base-depth", "6", "--refine", "-1"], "refinement must be >= 0, got -1"),
        (SG, ["verify-a3", "--depth", "1", "--samples", "0", "--refine", "-1"], "refinement must be >= 0, got -1"),
        (SEEDED_T23, ["capacity", "--word", "2^3.1^2", "--refine", "-1"],
         "letter 1^2 after prefix '2^3' must have level 3"),
    ],
    ids=["relative-refine-before-inner-n", "point-vertex-before-refine", "point-refine",
         "verify-refine-before-samples", "word-before-refine"],
)
def test_the_first_of_two_bad_inputs_is_the_one_reported(spec_text, argv, message, tmp_path, capsys):
    # a relative run checks --refine before the inner-set depth, a point run
    # only once the target vertex is numbered, verify-a3 before its sampling
    # arguments, and every run after the word
    spec = tmp_path / "spec.json"
    spec.write_text(spec_text)
    assert main([*argv, "--spec", str(spec)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--point", "5", "--base-depth", "6", "--refine", "-1"], "refinement must be >= 0, got -1"),
        (["--point", "4", "--budget", "3", "--refine", "3"], "more than 3 refinements"),
    ],
    ids=["negative", "over-the-budget"],
)
def test_a_point_run_refuses_a_bad_refine_before_it_solves(argv, message, sg_spec, capsys, monkeypatch):
    # the target vertex is numbered first, but no network is built or solved
    def refuse(*args, **kwargs):
        raise AssertionError("solved before --refine was checked")

    for name in ("point_capacity", "_point_capacity"):
        monkeypatch.setattr(capacity, name, refuse)
    assert main(["capacity", "--spec", sg_spec, *argv]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


@pytest.mark.parametrize("point", [[], ["--point", "4"]], ids=["relative", "point"])
def test_capacity_refinements_are_bounded_by_the_budget(point, sg_spec, capsys):
    # the report repeats the one value refine + 1 times, at most --budget
    argv = ["capacity", "--spec", sg_spec, *point, "--budget", "3"]
    assert main([*argv, "--refine", "3"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: more than 3 refinements\n")
    assert main([*argv, "--refine", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["report"]["refinements"] == [0, 1, 2]


@pytest.mark.parametrize(
    "argv",
    [
        ["words", "--depth", "2"],
        ["dim-estimate", "--depth", "1"],
        ["verify-a3", "--depth", "1"],
        ["capacity", "--point", "5", "--base-depth", "2"],
        ["blowup", "--depth", "2"],
    ],
    ids=["words", "dim-estimate", "verify-a3", "capacity", "blowup"],
)
@pytest.mark.parametrize("budget", ["0", "-3"])
def test_budget_below_1_exits_2_before_printing(argv, budget, sg_spec, capsys):
    assert main(argv + ["--spec", sg_spec, "--budget", budget]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: argument --budget: must be >= 1, got {budget}\n"


def test_words_negative_depth_prints_nothing(sg_spec, capsys):
    assert main(["words", "--spec", sg_spec, "--depth", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: depth must be >= 0, got -1\n"


def test_out_through_a_link_writes_its_target(sg_spec, tmp_path):
    target = tmp_path / "target.csv"
    target.write_text("old\n")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    assert main(["words", "--spec", sg_spec, "--depth", "1", "--out", str(link)]) == 0
    assert link.is_symlink()
    assert target.read_text().splitlines()[0] == "word,r_num,r_den,mu_num,mu_den"


def test_exit_codes(sg_spec, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dimension": 2, "levels": [2, 3]}')
    assert main(["words", "--spec", str(bad), "--depth", "1"]) == 2
    missing = tmp_path / "missing.json"
    assert main(["words", "--spec", str(missing), "--depth", "1"]) == 2
    assert main(["words", "--spec", sg_spec, "--depth", "6", "--budget", "10"]) == 2
    assert main(["capacity", "--spec", sg_spec, "--word", "9^2"]) == 2


# every error type with the exit code and stderr prefix the command line gives it
ERROR_EXITS = {
    "GasketLabError": (3, "error"),
    "InputError": (2, "error"),
    "SpecParseError": (2, "error"),
    "SpecSemanticError": (2, "error"),
    "InvalidParameterError": (2, "error"),
    "InadmissibleWordError": (2, "error"),
    "InvalidVertexError": (2, "error"),
    "EmptyBoundaryError": (2, "error"),
    "DegenerateBasisError": (2, "error"),
    "BudgetExceededError": (2, "error"),
    "NumericalError": (3, "numerical failure"),
    "ProportionalityError": (3, "numerical failure"),
    "EigenRelationError": (3, "numerical failure"),
    "DisconnectedNetworkError": (3, "numerical failure"),
    "NotFoundError": (3, "numerical failure"),
}


def test_every_error_type_is_classified():
    defined = {name for name, obj in vars(errors).items() if isinstance(obj, type) and issubclass(obj, GasketLabError)}
    assert defined == set(ERROR_EXITS)


@pytest.mark.parametrize("name", sorted(ERROR_EXITS))
def test_every_error_type_exits_with_its_code(name, monkeypatch, capsys):
    code, prefix = ERROR_EXITS[name]

    def fail(path):
        raise getattr(errors, name)("boom")

    monkeypatch.setattr(cli, "load_spec", fail)
    assert main(["hausdorff", "--spec", "x"]) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"{prefix}: boom\n")


def test_dim_estimate_json(sg_spec, tmp_path):
    # the delta sliver of slow cells only drops below threshold from depth 9 on
    out = tmp_path / "rank.json"
    assert main(["dim-estimate", "--spec", sg_spec, "--depth", "9", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["report"]["estimated_index"] == 1
    assert payload["config"]["depth"] == 9
    assert len(payload["report"]["mean_ratio_trend"]) == 9


def test_dim_estimate_deterministic(sg_spec, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["dim-estimate", "--spec", sg_spec, "--depth", "5", "--out", str(a)])
    main(["dim-estimate", "--spec", sg_spec, "--depth", "5", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_verify_a3_deterministic_and_rows(sg_spec, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    rows = tmp_path / "rows.csv"
    args = ["verify-a3", "--spec", sg_spec, "--depth", "2", "--samples", "8",
            "--refine", "0", "--seed", "1", "--cap-words", "2"]
    assert main(args + ["--out", str(a), "--rows-out", str(rows)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert payload["report"]["inequality_violations"] == 0
    lines = rows.read_text().strip().splitlines()
    assert lines[0].startswith("word,sample_id,nu_U,nu_V,osc")
    assert len(lines) == 1 + 2 * 8


def test_capacity_subcommand(sg_spec, capsys):
    assert main(["capacity", "--spec", sg_spec, "--inner-n", "2", "--refine", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    vals = payload["report"]["values"]
    assert len(vals) == 2 and vals[0] == vals[1]
    assert payload["report"]["arithmetic_mode"] == "exact"


def test_blowup_subcommand(sg_spec, tmp_path, capsys):
    grid = tmp_path / "grid.csv"
    cloudf = tmp_path / "cloud.csv"
    assert main(["blowup", "--spec", sg_spec, "--depth", "2", "--res", "16",
                 "--out-cloud", str(cloudf), "--out-grid", str(grid)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["report"]["points"] == 9
    header = cloudf.read_text().splitlines()[0]
    assert header == "word,x,y,weight,e_value"
    mass = sum(float(line.split(",")[2]) for line in grid.read_text().strip().splitlines()[1:])
    total = payload["report"]["total_mass"]
    num, den = map(int, total.split("/"))
    assert abs(mass - num / den) < 1e-9 * (num / den)


@pytest.mark.parametrize("word", ["2^3", "1^3.2^3"])
def test_blowup_cloud_rows_carry_their_cells_words(word, tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(SEEDED_T23)
    cloudf = tmp_path / "cloud.csv"
    assert main(["blowup", "--spec", str(spec), "--word", word, "--depth", "3", "--out-cloud", str(cloudf)]) == 0
    capsys.readouterr()
    column = [line.split(",")[0] for line in cloudf.read_text().splitlines()[1:]]
    root = parse_word(word)
    assert column == [encode_word(root + w) for w, _, _ in iter_words(load_spec(str(spec)), 3, root=root)]
    assert len(set(column)) == len(column) > 1


def test_blowup_config_records_the_harmonic_pair(sg_spec, capsys):
    assert main(["blowup", "--spec", sg_spec, "--depth", "1", "--b1", "1,0,0", "--b2", "0,1,0"]) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    assert config["b1"] == ["1/1", "0/1", "0/1"] and config["b2"] == ["0/1", "1/1", "0/1"]


def test_capacity_config_records_the_resolved_inner_depth(sg_spec, capsys):
    assert main(["capacity", "--spec", sg_spec, "--refine", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["inner_n"] == 4


def test_hausdorff_reports_both_expressions(sg_spec, capsys):
    assert main(["hausdorff", "--spec", sg_spec]) == 0
    payload = json.loads(capsys.readouterr().out)
    rep = payload["report"]
    assert rep["printed_formula_min_log_N_over_l"] == pytest.approx(math.log(1.5), abs=1e-12)
    assert rep["frostman_exponent_min_logN_over_logl"] == pytest.approx(math.log(3) / math.log(2), abs=1e-12)
    assert rep["dimension_floor_log_half_d_plus_1"] == pytest.approx(math.log(1.5), abs=1e-12)


def test_hausdorff_floor_grows_with_dimension(tmp_path, capsys):
    values = []
    for d in range(2, 11):
        path = tmp_path / f"d{d}.json"
        path.write_text(json.dumps({"dimension": d, "levels": [2]}))
        assert main(["hausdorff", "--spec", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        values.append(payload["report"]["dimension_floor_log_half_d_plus_1"])
    assert all(values[i + 1] > values[i] for i in range(len(values) - 1))


SEEDED = {"type": "seeded", "seed": 1, "weights": {"2": 1.0, "3": 1.0}}


@pytest.mark.parametrize(
    "spec_text",
    [
        '{"dimension": 2, "levels": "ab"}',
        '{"dimension": "x", "levels": [2]}',
        '{"dimension": 2, "levels": [2.5]}',
        json.dumps({"dimension": 2, "levels": [2, 3], "labeling": dict(SEEDED, weights={"2": "a", "3": 1})}),
        json.dumps({"dimension": 2, "levels": [2, 3], "labeling": dict(SEEDED, seed="abc")}),
        # only a missing or null weights means uniform
        *(json.dumps({"dimension": 2, "levels": [2, 3], "labeling": dict(SEEDED, weights=w)}) for w in ({}, [], 0)),
        '{"dimension": 2, "levels": [2, 3], "labeling": {"type": "seeded", "weights": {"2": NaN, "3": 1}}}',
        '{"dimension": 2, "levels": [2, 3], "labeling": {"type": "seeded", "weights": {"2": 1e308, "3": 1e308}}}',
        '{"dimension": 2, "levels": [2], "measure": {"per_letter": {"2": ["x", "1/2", "1/2"]}}}',
        '{"dimension": 2, "levels": [2], "labeling": "x"}',
        '{"dimension": 2, "levels": [2, 3], "labeling": {"type": "explicit", "entries": [{"word": ""}], "default": 2}}',
        '{"dimension": 2, "levels": [2], "labeling": {"type": "explicit", "entries": [{"word": [], "label": 2}], "default": 2}}',
        '{"dimension": 2, "levels": [2, 3], "labeling": {"type": "explicit",'
        ' "entries": [{"word": "1^3", "label": 3}, {"word": "01^3", "label": 2}], "default": 2}}',
    ],
    ids=["levels-str", "dimension-str", "level-fraction", "weight-str", "seed-str", "weights-empty-dict",
         "weights-empty-list", "weights-zero", "weight-nan", "weight-sum-inf",
         "per-letter-str", "labeling-str", "entry-no-label", "entry-word-list",
         "entry-conflict"],
)
def test_malformed_spec_exits_2_with_one_line(spec_text, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(spec_text)
    assert main(["words", "--spec", str(path), "--depth", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("name", sorted(UNDECODABLE_SPECS))
def test_undecodable_spec_exits_2_with_one_line(name, tmp_path, capsys):
    path = write_undecodable_spec(tmp_path, name)
    out = tmp_path / "out.json"
    assert main(["hausdorff", "--spec", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: spec {str(path)!r} is not valid JSON: ") and err.count("\n") == 1
    assert not out.exists()


HUGE_WEIGHT = '{"dimension": 2, "levels": [2], "measure": {"per_letter": {"2": ["1e999999999", "0", "0"]}}}'


@pytest.mark.parametrize(
    "spec_text, argv, message",
    [
        (HUGE_WEIGHT, ["hausdorff"], "measure weight for level 2 is not a valid Fraction: '1e999999999'"),
        (SG, ["blowup", "--depth", "1", "--b1", "1e999999999,0,0", "--b2", "0,1,0"],
         "--b1 must be comma-separated rationals, got '1e999999999,0,0'"),
        (SG, ["blowup", "--depth", "1", "--b1", "1e-999999999,0,0", "--b2", "0,1,0"],
         "--b1 must be comma-separated rationals, got '1e-999999999,0,0'"),
    ],
    ids=["spec-weight", "b1", "negative-exponent"],
)
def test_a_huge_decimal_exponent_exits_2_with_one_line(spec_text, argv, message, tmp_path, capsys):
    # Fraction alone would expand 1e999999999 to an integer of a billion digits
    spec = tmp_path / "spec.json"
    spec.write_text(spec_text)
    assert main([*argv, "--spec", str(spec), "--out", str(tmp_path / "out.json")]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["spec.json"]


@pytest.mark.parametrize(
    "spec_text, message",
    [
        ('{"dimension": 2, "levels": [2, 3], "labeling": {"type": "seeded", "seed": %s}}' % ("9" * 5000),
         "is not valid JSON: Exceeds the limit (4300 digits) for integer string conversion"),
        ('{"dimension": 2, "levels": [2], "measure": {"per_letter": {"2": ["1/%s", "1/3", "1/3"]}}}' % ("3" * 5000),
         "error: measure weight for level 2 is not a valid Fraction: '1/333"),
    ],
    ids=["seed", "per-letter-fraction"],
)
def test_a_spec_number_past_the_default_digit_limit_exits_2_with_one_line(spec_text, message, tmp_path, capsys):
    # a spec is parsed under Python's default limit on an int's digits, not
    # the lifted one the reports print under, and the lifted one is restored
    spec = tmp_path / "spec.json"
    spec.write_text(spec_text)
    assert main(["hausdorff", "--spec", str(spec)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err and captured.err.count("\n") == 1
    assert sys.get_int_max_str_digits() == 0


def test_a_spec_number_within_the_default_digit_limit_loads(tmp_path, capsys):
    seed = int("9" * 4000)
    spec = tmp_path / "spec.json"
    spec.write_text('{"dimension": 2, "levels": [2, 3], "labeling": {"type": "seeded", "seed": %d}}' % seed)
    assert main(["hausdorff", "--spec", str(spec)]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["spec"]["labeling"]["seed"] == seed


def test_rational_refuses_only_a_decimal_exponent_past_4300():
    assert _rational("1e4300") == 10**4300
    assert _rational("-1E-0_4300") == Fraction(-1, 10**4300)
    assert (_rational("2/3"), _rational(" 0.25 "), _rational(7)) == (Fraction(2, 3), Fraction(1, 4), 7)
    for text in ("1e4301", "1e-4301", "1.5e" + "9" * 5000):
        with pytest.raises(ValueError):
            _rational(text)


@pytest.mark.parametrize("argv", [["words", "--depth", "1"], ["hausdorff"]])
def test_unwritable_output_exits_2_with_one_line(argv, sg_spec, tmp_path, capsys):
    regular = tmp_path / "file"
    regular.write_text("")
    # through a missing directory, and through a regular file
    for out in (tmp_path / "missing" / "out.json", regular / "out.json"):
        assert main(argv + ["--spec", sg_spec, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write") and err.count("\n") == 1
    assert err == f"error: cannot write {str(regular / 'out.json')!r}: Not a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "sg.json"] and regular.read_text() == ""


def test_explicit_entry_words_are_normalized(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text('{"dimension": 2, "levels": [2, 3], "labeling": {"type": "explicit",'
                    ' "entries": [{"word": "", "label": 3}, {"word": "01^3", "label": 3}], "default": 2}}')
    assert load_spec(str(path)).label_of(((1, 3),)) == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["blowup", "--depth", "1", "--b1", "1,0,x", "--b2", "0,1,0"],
        ["blowup", "--depth", "1", "--b1", "1/0,0,0", "--b2", "0,1,0"],
        ["verify-a3", "--depth", "1", "--inner-n", "0"],
        ["capacity", "--point", "5", "--base-depth", "2", "--refine", "-1"],
        ["capacity", "--inner-n", "0"],
        ["verify-a3", "--depth", "1", "--point-samples", "0"],
        ["verify-a3", "--depth", "1", "--point-samples", "-2"],
        ["verify-a3", "--depth", "1", "--cap-words", "0"],
        ["verify-a3", "--depth", "1", "--cap-words", "-1"],
        ["verify-a3", "--depth", "1", "--refine", "-1"],
        ["blowup", "--depth", "2", "--res", "4"],
        ["words", "--depth", "x"],
        ["capacity", "--mode", "exact"],
        ["verify-a3", "--depth", "1", "--mode", "float"],
        ["blowup", "--depth", "2", "--b1", "1/2,0,0", "--b2", "0,1e400,0"],
        ["blowup", "--depth", "2", "--b1", "1e-400,0,0", "--b2", "0,1e-400,0"],
    ],
    ids=["b1-not-rational", "b1-zero-denominator", "verify-inner-n-0", "point-refine-negative", "capacity-inner-n-0",
         "point-samples-0", "point-samples-negative", "cap-words-0", "cap-words-negative", "verify-refine-negative",
         "blowup-res-below-8", "depth-not-int", "capacity-mode-removed", "verify-mode-removed",
         "blowup-pair-overflows-float", "blowup-pair-underflows-float"],
)
def test_malformed_argument_exits_2_with_one_line(argv, sg_spec, capsys):
    assert main(argv + ["--spec", sg_spec]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "x, size",
    # at 2**600 the points are floats but the weights, of the order of the
    # pair's square, are not; at 2**1100 the points are not either
    [(str(2**600), "large"), (str(2**1100), "large"), (f"1/{2**600}", "small")],
    ids=["weights-overflow", "points-overflow", "norm-underflows"],
)
def test_blowup_pair_out_of_float_range_exits_2_and_writes_nothing(x, size, sg_spec, tmp_path, capsys):
    outs = [tmp_path / "grid.csv", tmp_path / "cloud.csv"]
    argv = ["blowup", "--spec", sg_spec, "--depth", "2", "--b1", f"{x},-{x},0", "--b2", f"0,{x},-{x}"]
    assert main(argv + ["--out-grid", str(outs[0]), "--out-cloud", str(outs[1])]) == 2
    assert capsys.readouterr() == ("", f"error: the harmonic pair is too {size} for floating point\n")
    assert not any(path.exists() for path in outs)


@pytest.mark.parametrize(
    "argv, mode",
    [
        (["capacity", "--refine", "0"], "exact"),
    ],
    ids=["all-pinned-solve-is-exact"],
)
def test_arithmetic_mode_covers_every_printed_value(argv, mode, sg_spec, capsys):
    assert main(argv + ["--spec", sg_spec]) == 0
    assert json.loads(capsys.readouterr().out)["report"]["arithmetic_mode"] == mode


@pytest.mark.parametrize(
    "argv",
    [
        ["spectra", "--dim", "2", "--levels", "a"],
        ["spectra", "--dim", "2"],
        ["spectra", "--dim", "2", "--level", "2", "--levels", "3"],
        ["spectra", "--dim", "2", "--level", "3"],
        ["words", "--depth", "1"],
        ["frobnicate"],
        [],
    ],
    ids=[
        "levels-not-int",
        "levels-missing",
        "level-removed-beside-levels",
        "level-removed",
        "spec-missing",
        "unknown-subcommand",
        "no-subcommand",
    ],
)
def test_argument_error_exits_2_with_one_line(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_help_still_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["words", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: gasketlab words")


def test_blowup_checks_res_before_writing(sg_spec, tmp_path, capsys):
    cloudf, gridf = tmp_path / "c.csv", tmp_path / "g.csv"
    # 3000000000 passes the CLI's own check, and numpy refuses a grid that large
    for res in ("4", "3000000000"):
        argv = ["blowup", "--spec", sg_spec, "--depth", "2", "--res", res, "--out-cloud", str(cloudf)]
        assert main(argv + ["--out-grid", str(gridf)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not cloudf.exists() and not gridf.exists()


def test_closed_stdout_ends_quietly(sg_spec):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "gasketlab.cli", "words", "--spec", sg_spec, "--depth", "9"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    # 3^9 rows are far more than a pipe buffers, so the writer meets the closed end
    assert proc.stdout.readline().startswith(b"word,r_num,")
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait() == 0
    assert err == b""


def test_verify_a3_and_blowup_import_no_scipy(sg_spec, tmp_path):
    # scipy is a test dependency only, so no run of the program may import it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    script = (
        "import sys\n"
        "from gasketlab.cli import main\n"
        f"assert main(['verify-a3', '--spec', {sg_spec!r}, '--depth', '1', '--out', {str(tmp_path / 'a3.json')!r}]) == 0\n"
        f"assert main(['blowup', '--spec', {sg_spec!r}, '--depth', '2', '--out', {str(tmp_path / 'b.json')!r}]) == 0\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if m.startswith('scipy'))[:5]\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr.decode()


# --- spec fuzz: any spec JSON ends in exit 0 or in exit 2 with one line ----------

# Wrong-typed, non-finite and out-of-range leaves.  Junk text has no digits and
# numbers stay below 5, so no spec is merely huge (d <= 4, levels <= 5).
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), "2", "2.5", "1/0", [], {}]),
    st.floats(-1, 4),
    st.integers(-1, 1),
    st.text(alphabet="ab^. ", max_size=3),
    st.lists(st.integers(-1, 5), max_size=2),
)
BAD_KEYS = st.sampled_from(["x", "2.5", "-1", "1", "9", ""])
# sampled, not st.integers, which hypothesis draws near 0 far more often
ONE_IN_SIX = st.sampled_from([False] * 5 + [True])


@st.composite
def well_formed_specs(draw) -> dict:
    d = draw(st.integers(2, 4))
    levels = sorted(draw(st.lists(st.integers(2, 5), min_size=1, max_size=3, unique=True)))
    spec = {"dimension": d, "levels": levels}
    kinds = ["seeded", "explicit"] + (["homogeneous", "absent"] if len(levels) == 1 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "homogeneous":
        spec["labeling"] = {"type": "homogeneous"}
    elif kind == "seeded":
        weights = {str(l): float(draw(st.integers(1, 3))) for l in levels}
        spec["labeling"] = {"type": "seeded", "seed": draw(st.integers(-(2**70), 2**70)), "weights": weights}
    elif kind == "explicit":
        letters = st.tuples(st.integers(1, 3), st.sampled_from(levels))
        words = st.lists(letters, max_size=2).map(lambda w: ".".join(f"{i}^{l}" for i, l in w))
        entries = draw(st.dictionaries(words, st.sampled_from(levels), max_size=3))
        spec["labeling"] = {
            "type": "explicit",
            "entries": [{"word": w, "label": l} for w, l in entries.items()],
            "default": draw(st.sampled_from(levels)),
        }
    if draw(st.booleans()):
        spec["measure"] = "natural"
    elif draw(st.booleans()):
        spec["measure"] = {"per_letter": {str(l): [f"1/{cell_count(d, l)}"] * cell_count(d, l) for l in levels}}
    return spec


def broken(draw, value):
    """`value` with one leaf replaced by junk, or one key or entry dropped or renamed."""
    if isinstance(value, (dict, list)) and value and not draw(ONE_IN_SIX):
        out = dict(value) if isinstance(value, dict) else list(value)
        key = draw(st.sampled_from(list(out) if isinstance(out, dict) else range(len(out))))
        action = draw(st.sampled_from(["drop", "rename", "leaf"] if isinstance(out, dict) else ["drop", "leaf"]))
        if action == "drop":
            del out[key]
        elif action == "rename":
            out[draw(BAD_KEYS)] = out.pop(key)
        else:
            out[key] = broken(draw, out[key])
        return out
    return draw(JUNK)


@st.composite
def spec_texts(draw):
    """A well-formed spec with up to two of its fields broken, or rarely not
    an object at all."""
    spec = draw(well_formed_specs())
    if draw(ONE_IN_SIX) and draw(ONE_IN_SIX):
        return json.dumps(draw(JUNK))
    for _ in range(draw(st.integers(0, 2))):
        key = draw(st.sampled_from(["dimension", "levels", "labeling", "measure"]))
        if draw(ONE_IN_SIX):
            spec.pop(key, None)
        else:
            spec[key] = broken(draw, spec.get(key))
    return json.dumps(spec)


def run_cli(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=200, deadline=None)
@given(spec_texts())
def test_any_spec_json_exits_0_or_2_with_one_line(tmp_path_factory, spec_text):
    path = tmp_path_factory.mktemp("fuzz") / "spec.json"
    path.write_text(spec_text)
    codes = []
    for argv in (["words", "--depth", "1"], ["hausdorff"]):
        code, err = run_cli(argv + ["--spec", str(path)])
        if code == 0:
            assert err == "", (spec_text, argv, err)
        else:
            assert code == 2, (spec_text, argv, code, err)
            assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), (spec_text, err)
        codes.append(code)
    # both subcommands read the spec the same way
    assert codes[0] == codes[1], spec_text
