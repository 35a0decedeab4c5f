"""Tests of the benchmark's own pieces: span arithmetic, checks, inputs.

Run from the checkout root: python3 -m pytest -q bench
"""

import csv
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import plan  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def _span(name, start, end, parent):
    return [name, start, end, parent, "0.0", None]


def test_self_time_subtracts_direct_children_only():
    # cli [0, 10] -> compare_schemes [1, 9] -> solve_rd [2, 5] -> edm [3, 4]
    #                                        -> solve_rd [6, 8]
    tree = [
        _span("cli.compare_schemes", 0.0, 10.0, -1),
        _span("schemes.compare_schemes", 1.0, 9.0, 0),
        _span("rate_distortion.solve_rd", 2.0, 5.0, 1),
        _span("learning.effective_distortion_matrix", 3.0, 4.0, 2),
        _span("rate_distortion.solve_rd", 6.0, 8.0, 1),
    ]
    assert spans.self_times(tree) == [2.0, 3.0, 2.0, 1.0, 2.0]
    m = spans.summarize(tree)
    assert m["cli.compare_schemes.self_s"] == 2.0
    assert m["rate_distortion.solve_rd.self_s"] == 4.0
    assert m["rate_distortion.solve_rd.calls"] == 2
    assert m["schemes.solves_per_report"] == 2.0
    assert m["rate_distortion.self_share"] == pytest.approx(0.4)
    assert sum(m[f"{layer}.self_share"] for layer in spans.LAYERS) == \
        pytest.approx(1.0)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


SCHEMES_HEADER = ["compressor", "mi_model", "mi_model2", "mi_residual",
                  "delta_r", "bound1", "bound2", "measured_distortion",
                  "rate_budget", "scheme1_rate", "boundary_gap",
                  "distortion_scheme2", "infeasible"]


@pytest.mark.parametrize("mi_model2, scheme1_rate, ok", [
    (0.25, 0.5, True),
    (0.2, 0.5, False),   # chain rule broken by 0.05 bits
    (0.25, 0.9, False),  # scheme 1 above its rate budget
])
def test_compare_schemes_check_rejects_doctored_rows(tmp_path, mi_model2,
                                                     scheme1_rate, ok):
    good = ["0|1|2|3", 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.1, 1.0, 0.5, 0.5,
            0.2, 0]
    row = ["0|0|1|1", 0.75, mi_model2, 0.5, 0.0, 0.0, 0.0, 0.1, 0.75,
           scheme1_rate, 0.0, 0.2, 0]
    _write_csv(tmp_path / "compare-schemes.csv", SCHEMES_HEADER, [good, row])
    op = {"cmd": "compare-schemes", "units": 2, "check": {}}
    res = checks.check_op(op, 0, str(tmp_path))
    assert res.failed == (0 if ok else 1)


def test_rd_curve_gap_misses_are_counted_not_rejected(tmp_path):
    header = ["epsilon", "rate_bits", "rate_with_prior_bits",
              "converged_iters", "duality_gap"]
    _write_csv(tmp_path / "rd-curve.csv", header,
               [[0.0, 1.0, 1.2, 100, 1e-9], [0.1, 0.5, 0.6, 100, 3e-6],
                [0.2, 0.7, 0.6, 100, 0.0]])
    op = {"cmd": "rd-curve", "units": 3, "check": {}}
    res = checks.check_op(op, 0, str(tmp_path))
    assert (res.failed, res.gap_miss) == (1, 1)


def test_failed_invocation_and_missing_rows_fail_every_unit(tmp_path):
    op = {"cmd": "audit", "units": 24, "check": {}}
    assert checks.check_op(op, 3, str(tmp_path)).failed == 24
    _write_csv(tmp_path / "audit.csv", ["check", "case", "ok"],
               [["rd_grid", "case=0", "1"]])
    assert checks.check_op(op, 0, str(tmp_path)).failed == 24


def test_tracer_wraps_every_binding_and_restores_them():
    import beliefcomm
    from beliefcomm import cli, rate_distortion, schemes
    original = rate_distortion.solve_rd
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.solve_rd is schemes.solve_rd is beliefcomm.solve_rd
        assert cli.solve_rd is not original
        inst, q, span = plan.sharp_sender(7000, n_hypotheses=2)
        pt = schemes.solve_rd(inst, q, 0.5 * span)
    finally:
        tracer.uninstall()
    assert cli.solve_rd is schemes.solve_rd is original
    names = [s[spans.NAME] for s in tracer.spans]
    assert "rate_distortion.solve_rd" in names
    m = spans.summarize(tracer.spans)
    assert m["rate_distortion.solve_rd.iters"] == pt.iterations


def test_inputs_follow_the_seed(tmp_path):
    digests = []
    for seed, sub in ((1, "a"), (1, "b"), (2, "c")):
        out = tmp_path / sub
        out.mkdir()
        p = plan.make_inputs("rd-bank", seed, str(out))
        digests.append(plan.inputs_digest(p["hashes"]))
    assert digests[0] == digests[1] != digests[2]


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    tree = [_span("cli.code", 0.0, 1.0, -1)]
    per_layer = set(spans.summarize(tree)) | set(run.WINDOW_METRICS) | \
        {"trace.overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} == per_layer
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
