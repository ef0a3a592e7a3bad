import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gasketlab.cli import load_spec, main
from gasketlab.errors import SpecParseError, SpecSemanticError

SRC = str(Path(__file__).resolve().parents[1] / "src")


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


def test_exit_codes(sg_spec, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dimension": 2, "levels": [2, 3]}')
    assert main(["words", "--spec", str(bad), "--depth", "1"]) == 2
    missing = tmp_path / "missing.json"
    assert main(["words", "--spec", str(missing), "--depth", "1"]) == 2
    assert main(["words", "--spec", sg_spec, "--depth", "6", "--budget", "10"]) == 2
    assert main(["capacity", "--spec", sg_spec, "--word", "9^2"]) == 2


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
    assert main(["capacity", "--spec", sg_spec, "--inner-n", "2", "--refine", "1",
                 "--mode", "exact"]) == 0
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
        '{"dimension": 2, "levels": [2, 3], "labeling": {"type": "seeded", "weights": {"2": NaN, "3": 1}}}',
        '{"dimension": 2, "levels": [2], "measure": {"per_letter": {"2": ["x", "1/2", "1/2"]}}}',
        '{"dimension": 2, "levels": [2], "labeling": "x"}',
        '{"dimension": 2, "levels": [2, 3], "labeling": {"type": "explicit", "entries": [{"word": ""}], "default": 2}}',
        '{"dimension": 2, "levels": [2, 3], "labeling": {"type": "explicit",'
        ' "entries": [{"word": "1^3", "label": 3}, {"word": "01^3", "label": 2}], "default": 2}}',
    ],
    ids=["levels-str", "dimension-str", "level-fraction", "weight-str", "seed-str", "weight-nan", "per-letter-str",
         "labeling-str", "entry-no-label", "entry-conflict"],
)
def test_malformed_spec_exits_2_with_one_line(spec_text, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(spec_text)
    assert main(["words", "--spec", str(path), "--depth", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["words", "--depth", "1"], ["hausdorff"]])
def test_unwritable_output_exits_2_with_one_line(argv, sg_spec, tmp_path, capsys):
    out = tmp_path / "missing" / "out.json"
    assert main(argv + ["--spec", sg_spec, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and err.count("\n") == 1


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
    ],
    ids=["b1-not-rational", "b1-zero-denominator", "verify-inner-n-0", "point-refine-negative", "capacity-inner-n-0"],
)
def test_malformed_argument_exits_2_with_one_line(argv, sg_spec, capsys):
    assert main(argv + ["--spec", sg_spec]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, mode",
    [
        (["capacity", "--refine", "0"], "exact"),
        (["capacity", "--inner-n", "2", "--refine", "1", "--mode", "float"], "mixed"),
        (["verify-a3", "--depth", "1", "--samples", "2", "--refine", "0", "--mode", "float"], "mixed"),
        (["verify-a3", "--depth", "1", "--samples", "2", "--refine", "1", "--mode", "float"], "float"),
    ],
    ids=["all-pinned-solve-is-exact", "pinned-and-cg", "pinned-capacity-and-cg-points", "all-cg"],
)
def test_arithmetic_mode_covers_every_printed_value(argv, mode, sg_spec, capsys):
    assert main(argv + ["--spec", sg_spec]) == 0
    assert json.loads(capsys.readouterr().out)["report"]["arithmetic_mode"] == mode


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
