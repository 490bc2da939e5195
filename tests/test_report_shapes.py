"""The shape of every measured report: row keys and blanks, details keys,
formula, tolerance and residual cap, and the CSV the CLI writes from the
rows.  Small grids keep each check fast; the shapes do not depend on N."""

import pytest

from powemb import suite, verify
from powemb.cli import _write_rows_csv
from powemb.lpengine import Grid
from powemb.suite import S
from powemb.witnesses import random_band_limited

ROW_KEYS = ["parameter", "ratio", "src_norm", "tgt_norm"]
CSV_HEADER = "parameter,src_norm,tgt_norm,ratio,config_hash"
PEAK_GRID = Grid(1, 16.0, 2 ** 11)
WIDE_GRID = Grid(1, 128.0, 2 ** 11)

PROFILE_DETAILS = ["src_diverged", "src_value", "src_warning", "tgt_diverged",
                   "tgt_warning"]


def _nikolskij():
    base = random_band_limited(Grid(1, 16.0, 2 ** 10), 3, band=1.0)
    return [verify.check_nikolskij(base, 2, 0.5, 4, 1, alpha=(1,),
                                   t_values=(1, 2, 4, 8))]


def _failure(src, tgt, grid=None):
    return [verify.demonstrate_failure(src, tgt, grid=grid)]


# name: (reports, kind, blank row keys, parameter type, details keys,
#        predicted_formula, tolerance, residual_cap)
CASES = {
    "peaks": (
        lambda: [verify.check_peak_scaling(2, 0, 0, n_range=range(2, 6),
                                           grid=Grid(1, 16.0, 2 ** 9))],
        "peak_scaling", ["ratio", "tgt_norm"], float, [],
        "d - (d+gamma)/p", 0.02, 0.05),
    "translation": (
        lambda: [verify.check_translation_scaling(2, 1, grid=WIDE_GRID)],
        "translation_scaling", ["ratio", "tgt_norm"], float, [],
        "gamma/p", 0.05, 0.1),
    "nikolskij": (
        _nikolskij, "nikolskij", [], float,
        ["bound_factor", "condition_forced", "normalized_spread", "seed"],
        "|alpha| + (d+gamma0)/p0 - (d+gamma1)/p1", 0.1, None),
    "gagliardo": (
        lambda: suite._exp_gagliardo(0, grid=Grid(1, 8.0, 256), count=2,
                                     gammas=(0,)),
        "gagliardo", [], int, ["batch_max_ratio", "cap", "s"],
        "batch max of interpolation ratio <= cap", None, None),
    "lacunary": (
        lambda: suite._exp_lacunary(0, grid=PEAK_GRID),
        "lacunary_q", [], int, ["ladder_constants_src", "ladder_constants_tgt"],
        "1/q1 - 1/q0", 0.1, None),
    "equivalences": (
        lambda: suite.check_norm_equivalences(0, grid=Grid(1, 16.0, 2 ** 9),
                                              gammas=(0,), count=2),
        "norm_equivalence", ["src_norm", "tgt_norm"], int,
        ["max_ratio", "min_ratio", "window"],
        "batch ratios within [0.1, 10.0]", None, None),
    "dichotomy": (
        lambda: suite._exp_dichotomy(0),
        "dichotomy", [], int,
        sorted(PROFILE_DETAILS + ["src_converged", "src_tail_rel_changes"]),
        "source quadrature finite, target classified Diverged", None, None),
    "failure_peaks": (
        lambda: _failure(S("B", 0, 2, 2, 0), S("B", 1, 2, 2, 0), PEAK_GRID),
        "failure_peaks", [], float, [],
        "(s1 - (d+g1)/p1) - (s0 - (d+g0)/p0)", 0.05, 0.1),
    "failure_translation": (
        lambda: _failure(S("B", 1, 2, 2, "-1/2"), S("B", 0, 4, 2, "-1/2"),
                         WIDE_GRID),
        "failure_translation", [], float, [], "g1/p1 - g0/p0", 0.05, 0.1),
    "failure_dilation": (
        lambda: _failure(S("B", 0, 4, 2, 0), S("B", 0, 2, 2, 0)),
        "failure_dilation", [], float, [],
        "(d+g0)/p0 - (d+g1)/p1 (in t; ratio grows as t->0)", 0.08, 0.1),
    "failure_lacunary": (
        lambda: _failure(S("B", 1, 2, 2, 0), S("B", "3/4", 4, 1, 0),
                         PEAK_GRID),
        "lacunary_q", [], int, ["ladder_constants_src", "ladder_constants_tgt"],
        "1/q1 - 1/q0", 0.1, None),
    "failure_log_singularity": (
        lambda: _failure(S("B", 1, 2, 1, 0), S("B", 1, "3/2", 1, "-1/4")),
        "failure_log_singularity", [], int, sorted(PROFILE_DETAILS + ["profile"]),
        "source quadrature finite, target classified Diverged", None, None),
    "failure_riesz_log": (
        lambda: _failure(S("H", "3/4", 4, gamma=2),
                         S("H", "3/5", 2, gamma="1/5")),
        "failure_riesz_log", [], int,
        sorted(PROFILE_DETAILS + ["envelope_power", "profile"]),
        "source quadrature finite, target classified Diverged", None, None),
}

BOUNDED = [
    ("bounded_peaks", "no growth along spectral peaks"),
    ("bounded_dilation", "no growth along dilations toward 0"),
    ("bounded_translation", "no growth along translations"),
]


def _check_rows_and_csv(rep, blank, param_type, tmp_path):
    assert rep.rows
    for row in rep.rows:
        assert sorted(row) == ROW_KEYS
        assert sorted(k for k, v in row.items() if v == "") == blank
        assert type(row["parameter"]) is param_type
        assert all(type(v) is float for k, v in row.items()
                   if k != "parameter" and v != "")
    path = tmp_path / "rows.csv"
    _write_rows_csv(path, rep.rows, "abc")
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == len(rep.rows) + 1
    assert all(len(line.split(",")) == 5 for line in lines)
    for line, row in zip(lines[1:], rep.rows):
        cells = line.split(",")
        assert cells[4] == "abc"
        assert [c == "" for c in cells[1:4]] == [
            row[k] == "" for k in ("src_norm", "tgt_norm", "ratio")]


@pytest.mark.parametrize("name", list(CASES))
def test_report_shape(name, tmp_path):
    make, kind, blank, param_type, details, formula, tol, cap = CASES[name]
    reps = make()
    assert reps
    for rep in reps:
        assert rep.passed, rep.experiment_id
        assert rep.kind == kind
        assert sorted(rep.details) == details
        assert rep.predicted_formula == formula
        assert (rep.tolerance, rep.residual_cap) == (tol, cap)
        _check_rows_and_csv(rep, blank, param_type, tmp_path)


def test_bounded_report_shapes(tmp_path):
    reps = verify.check_embedding_bounded(S("B", 1, 2, 1, 0), S("B", 0, 4, 1, 0),
                                          grid=PEAK_GRID)
    assert [(r.kind, r.predicted_formula) for r in reps] == BOUNDED
    for rep in reps:
        assert rep.passed
        assert rep.details == {"pass_rule": "ratio slope within margin 0.05"}
        assert (rep.predicted_exponent, rep.tolerance, rep.residual_cap) == (
            0.0, float("inf"), float("inf"))
        assert rep.src is not None and rep.tgt is not None
        _check_rows_and_csv(rep, [], float, tmp_path)
