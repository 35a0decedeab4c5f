"""CLI contracts: exit codes, CSV headers, manifests, reproducibility."""

import json
import math
import os
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefcomm import problem_instance_to_json, random_instance
from beliefcomm.cli import _write_csv, main
from conftest import write_csv_reference


@pytest.fixture
def instance_file(tmp_path):
    rng = np.random.default_rng(0)
    inst = random_instance(rng, n_concepts=2, n_symbols=2, n_hypotheses=2, m=1)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(problem_instance_to_json(inst)))
    return str(path)


def _header(path):
    return path.read_text().splitlines()[0]


def _rows(path):
    lines = path.read_text().splitlines()
    return [line.split(",") for line in lines[1:]]


def test_rd_curve_files_and_manifest(tmp_path, instance_file):
    out = tmp_path / "out"
    rc = main(["rd-curve", "--instance", instance_file, "--out", str(out),
               "--epsilons", "0.0,0.1,0.2"])
    assert rc == 0
    assert _header(out / "rd-curve.csv") == \
        "epsilon,rate_bits,rate_with_prior_bits,converged_iters,duality_gap"
    assert len(_rows(out / "rd-curve.csv")) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "rd-curve"
    assert "seed" not in manifest  # rd-curve draws nothing
    assert set(manifest["versions"]) == {"beliefcomm", "numpy", "python"}
    raw = (out / "manifest.json").read_text()
    assert raw.endswith("\n")
    assert "time" not in manifest


def test_rd_curve_oracle_checks(tmp_path, instance_file):
    out = tmp_path / "out"
    rc = main(["rd-curve", "--instance", instance_file, "--out", str(out),
               "--epsilons", "0.0,0.2", "--with-oracle"])
    assert rc == 0
    rows = _rows(out / "oracle_checks.csv")
    assert rows and all(r[-1] == "1" for r in rows)


def test_rd_curve_oracle_on_one_hypothesis(tmp_path):
    """Regression: the grid oracle raised IndexError (exit 1) whenever the
    world had a single hypothesis."""
    inst = random_instance(np.random.default_rng(3), n_concepts=2,
                           n_symbols=2, n_hypotheses=1, m=1)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(problem_instance_to_json(inst)))
    out = tmp_path / "out"
    assert main(["rd-curve", "--instance", str(path), "--out", str(out),
                 "--epsilons", "0.0,0.5", "--with-oracle"]) == 0
    rows = _rows(out / "oracle_checks.csv")
    assert [r[0] for r in rows] == ["rd_grid", "rd_grid"]
    assert all(r[-1] == "1" for r in rows)


def test_code_csv_contract(tmp_path, instance_file):
    out = tmp_path / "out"
    rc = main(["code", "--instance", instance_file, "--out", str(out),
               "--n", "6", "--seed", "3"])
    assert rc == 0
    assert _header(out / "code.csv") == \
        "position,kl_bits,K,index_bits,tv_exact,flagged_fallback"
    rows = _rows(out / "code.csv")
    assert len(rows) == 6
    for r in rows:
        assert int(r[2]) >= 1
        assert r[5] in ("0", "1")


def test_code_computes_each_exact_law_once(tmp_path, instance_file,
                                           monkeypatch):
    """Positions with the same dataset and K share one exact law and oracle."""
    from beliefcomm import cli, load_problem_instance

    calls = {"exact": 0, "oracle": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "induced_distribution_exact",
                        counted("exact", cli.induced_distribution_exact))
    monkeypatch.setattr(cli, "mrc_enumeration_oracle",
                        counted("oracle", cli.mrc_enumeration_oracle))
    out = tmp_path / "out"
    rc = main(["code", "--instance", instance_file, "--out", str(out),
               "--n", "16", "--slack", "2", "--seed", "3", "--with-oracle"])
    assert rc == 0
    assert len(_rows(out / "code.csv")) == 16
    n_datasets = load_problem_instance(instance_file).n_datasets
    assert 1 <= calls["exact"] <= n_datasets
    assert 1 <= calls["oracle"] <= n_datasets
    assert len(_rows(out / "oracle_checks.csv")) == 16


def test_code_counts_every_draw(tmp_path, instance_file, monkeypatch):
    """64 bits per uniform: n data draws, K + 1 per encoded position and one
    per decoded position."""
    from beliefcomm import cli

    made = []

    class Recorded(cli.CommonRandomness):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    monkeypatch.setattr(cli, "CommonRandomness", Recorded)
    out = tmp_path / "out"
    assert main(["code", "--instance", instance_file, "--out", str(out),
                 "--n", "6", "--slack", "2", "--seed", "3"]) == 0
    ks = [int(r[2]) for r in _rows(out / "code.csv")]
    (cr,) = made
    assert cr.bits_consumed == 64 * (6 + sum(k + 1 for k in ks) + 6) == 3072


def test_coordinate_csv_contract(tmp_path, instance_file):
    out = tmp_path / "out"
    rc = main(["coordinate", "--instance", instance_file, "--out", str(out),
               "--n", "3", "--trials", "200"])
    assert rc == 0
    assert _header(out / "coordinate.csv") == \
        "n,d_avg,d_max,bits_per_symbol,tv_max_position,trials"
    (row,) = _rows(out / "coordinate.csv")
    assert row[0] == "3" and row[5] == "200"


def test_code_and_coordinate_reruns_are_byte_identical(tmp_path, instance_file):
    """Batched coding keeps the determinism contract for both coder commands."""
    for argv, name in ((["code", "--n", "6", "--slack", "2"], "code.csv"),
                       (["code", "--n", "4", "--mode", "block"], "code.csv"),
                       (["coordinate", "--n", "3", "--trials", "300"],
                        "coordinate.csv")):
        outs = [tmp_path / f"{argv[0]}-{argv[-1]}-{run}" for run in "ab"]
        for out in outs:
            assert main(argv + ["--instance", instance_file, "--seed", "7",
                                "--out", str(out)]) == 0
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_example1_rerun_is_byte_identical(tmp_path):
    """Same config and seed must reproduce every output file exactly."""
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["example1", "--out", str(a)]) == 0
    assert main(["example1", "--out", str(b)]) == 0
    assert (a / "example1.csv").read_bytes() == (b / "example1.csv").read_bytes()
    assert (a / "manifest.json").read_bytes() == \
        (b / "manifest.json").read_bytes()
    rows = _rows(a / "example1.csv")
    assert [r[0] for r in rows] == ["2", "3", "4", "5", "8", "16", "32", "50"]


def test_example1_oracle_agreement(tmp_path):
    out = tmp_path / "out"
    rc = main(["example1", "--out", str(out), "--n-list", "2,3,5",
               "--with-oracle"])
    assert rc == 0
    rows = _rows(out / "oracle_checks.csv")
    assert len(rows) == 3 and all(r[-1] == "1" for r in rows)


def test_compare_schemes_csv(tmp_path, instance_file):
    out = tmp_path / "out"
    rc = main(["compare-schemes", "--instance", instance_file,
               "--out", str(out)])
    assert rc == 0
    rows = _rows(out / "compare-schemes.csv")
    assert _header(out / "compare-schemes.csv").startswith(
        "compressor,mi_model,mi_model2,mi_residual,delta_r,bound1,bound2"
    )
    # two datasets admit exactly the identity and the full merge
    assert sorted(r[0] for r in rows) == ["0|0", "0|1"]


def test_verify_bound_sweep(tmp_path):
    out = tmp_path / "out"
    rc = main(["verify-bound", "--out", str(out), "--instances", "2",
               "--epsilons", "0.0,0.25,0.5", "--seed", "1"])
    assert rc == 0
    assert _header(out / "verify-bound.csv") == \
        ("instance_id,epsilon,rate_bits,r_star_bits,delta_r_bits,bound,"
         "measured,margin,ok")
    rows = _rows(out / "verify-bound.csv")
    assert len(rows) == 9  # (1 canonical + 2 random) x 3 budgets
    assert rows[0][0] == "alternating-world"
    assert all(r[-1] == "1" for r in rows)


def test_audit_runs_every_bank(tmp_path):
    out = tmp_path / "out"
    rc = main(["audit", "--out", str(out), "--instances", "2", "--seed", "4"])
    assert rc == 0
    rows = _rows(out / "audit.csv")
    banks = {r[0] for r in rows}
    assert banks == {"rd_grid", "mrc_induced", "sequence_distortion"}
    assert len(rows) == 6
    assert all(r[-1] == "1" for r in rows)


def test_missing_instance_is_a_config_error(tmp_path):
    assert main(["rd-curve", "--out", str(tmp_path / "o")]) == 2


def test_bad_epsilons_are_config_errors(tmp_path, instance_file):
    out = str(tmp_path / "o")
    assert main(["rd-curve", "--instance", instance_file, "--out", out,
                 "--epsilons", "0.3,0.1"]) == 2
    assert main(["rd-curve", "--instance", instance_file, "--out", out,
                 "--epsilons", "a,b"]) == 2


def test_bad_config_file_is_a_config_error(tmp_path, instance_file):
    bad = tmp_path / "cfg.json"
    bad.write_text("not json at all {")
    assert main(["example1", "--out", str(tmp_path / "o"),
                 "--config", str(bad)]) == 2
    bad.write_text("[1, 2, 3]")
    assert main(["example1", "--out", str(tmp_path / "o"),
                 "--config", str(bad)]) == 2


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_list": [2, 4]}))
    out = tmp_path / "o"
    rc = main(["example1", "--out", str(out), "--config", str(cfg),
               "--n-list", "3,5"])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["n_list"] == [3, 5]
    assert [r[0] for r in _rows(out / "example1.csv")] == ["3", "5"]


def test_manifest_records_a_seed_only_where_the_run_draws(tmp_path,
                                                          instance_file):
    """Regression: a config seed was written as the manifest's seed for
    every command, also where no output depends on it."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 3, "n_list": [2]}))
    out = tmp_path / "example1"
    assert main(["example1", "--out", str(out), "--config", str(cfg)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert "seed" not in manifest
    assert manifest["config"]["seed"] == 3
    out = tmp_path / "code"
    assert main(["code", "--instance", instance_file, "--out", str(out),
                 "--config", str(cfg), "--n", "2"]) == 0
    assert json.loads((out / "manifest.json").read_text())["seed"] == 3


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_64_bit_range_is_a_config_error(tmp_path, instance_file,
                                                      seed):
    out = tmp_path / "o"
    assert main(["code", "--instance", instance_file, "--seed", str(seed),
                 "--out", str(out)]) == 2
    assert not (out / "code.csv").exists()


def test_unknown_mode_in_config_is_rejected(tmp_path, instance_file):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "typical"}))
    rc = main(["code", "--instance", instance_file,
               "--out", str(tmp_path / "o"), "--config", str(cfg)])
    assert rc == 2


@pytest.fixture
def world3_file(tmp_path):
    """An |H|=3 world."""
    rng = np.random.default_rng(1)
    inst = random_instance(rng, n_concepts=3, n_symbols=3, n_hypotheses=3, m=1)
    path = tmp_path / "world3.json"
    path.write_text(json.dumps(problem_instance_to_json(inst)))
    return str(path)


@pytest.mark.parametrize("argv, config, key", [
    (["code"], {"n": "abc"}, "n"),
    (["code", "--n", "-3"], None, "n"),
    (["code", "--n", "0"], None, "n"),
    (["example1"], {"n_list": 5}, "n_list"),
    (["example1", "--n-list", "1"], None, "n_list"),
    (["coordinate"], {"trials": 0}, "trials"),
    (["coordinate", "--n", "0"], None, "n"),
    (["compare-schemes"], {"rate_budget": "x"}, "rate_budget"),
    (["compare-schemes"], {"compressors": 5}, "compressors"),
    (["compare-schemes"], {"compressors": [[0, 0, 1], [[0], [1], {"a": 0}]]},
     "compressors/1"),
    (["coordinate", "--slack", "nan"], None, "slack"),
    (["code"], {"n": True}, "n"),
    (["code"], {"slack": True}, "slack"),
    (["coordinate"], {"trials": True}, "trials"),
    (["verify-bound"], {"instances": True}, "instances"),
    (["compare-schemes"], {"rate_budget": False}, "rate_budget"),
    (["rd-curve"], {"epsilons": [False, True]}, "epsilons"),
    (["rd-curve"], {"prior": [True, False, False]}, "prior"),
    (["compare-schemes"], {"compressors": [[1, True, 0]]}, "compressors/0"),
], ids=["code-n-abc", "code-n-neg", "code-n-0", "example1-n_list-5",
        "example1-n-1", "coordinate-trials-0", "coordinate-n-0",
        "compare-rate_budget-x", "compare-compressors-5",
        "compare-compressors-list-label",
        "coordinate-slack-nan", "code-n-true", "code-slack-true",
        "coordinate-trials-true", "verify-instances-true",
        "compare-rate_budget-false", "rd-curve-epsilons-bools",
        "rd-curve-prior-bools", "compare-compressors-bool-label"])
def test_bad_settings_exit_2(tmp_path, world3_file, capsys, argv, config,
                             key):
    """A bad number or shape in a flag or config is a config error, no crash."""
    if argv[0] not in ("example1", "verify-bound"):
        argv = argv + ["--instance", world3_file]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = argv + ["--config", str(cfg)]
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 2
    assert f"config error: /{key}:" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_numeric_settings_convert_like_int_and_float(tmp_path):
    """Numbers written as strings in a config keep working."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"instances": "1", "epsilons": [0.0, 0.5]}))
    out = tmp_path / "o"
    assert main(["verify-bound", "--config", str(cfg), "--seed", "2",
                 "--out", str(out)]) == 0
    assert len(_rows(out / "verify-bound.csv")) == 4  # (1 + 1) x 2 budgets


@pytest.mark.parametrize("argv", [
    ["coordinate", "--with-oracle"],
    ["compare-schemes", "--with-oracle"],
    ["verify-bound", "--with-oracle"],
    ["audit", "--with-oracle"],
    ["rd-curve", "--seed", "1"],
    ["compare-schemes", "--seed", "1"],
    ["code", "--tv-trials", "512"],
    ["example1", "--seed", "1"],
    ["example1", "--n", "5"],
], ids=lambda argv: f"{argv[0]}-{argv[1].lstrip('-')}")
def test_flags_that_did_nothing_are_rejected(tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "o")])
    assert exc.value.code == 2


def test_bound_violation_writes_the_instance_and_exits_3(tmp_path, capsys,
                                                         monkeypatch):
    from beliefcomm import cli
    from beliefcomm.errors import BoundViolationError

    def violated(cases):
        raise BoundViolationError(
            "distortion above ceiling",
            instance_json=problem_instance_to_json(cases[0][0]), case=0)

    monkeypatch.setattr(cli, "verify_bound", violated)
    out = tmp_path / "o"
    assert main(["verify-bound", "--instances", "0", "--out", str(out)]) == 3
    repro = out / "violation.json"
    assert capsys.readouterr().err == (
        "bound violated on alternating-world: distortion above ceiling; "
        f"instance in {repro}\n")
    assert json.loads(repro.read_text())["hypotheses"]
    assert not (out / "verify-bound.csv").exists()


def test_bound_violation_in_a_bank_names_its_world(tmp_path, capsys,
                                                   monkeypatch):
    """A violation on a world that is not first in the bank names that
    world and writes that world's instance."""
    from beliefcomm import schemes

    seen = []

    def d_sem(q_alice, q_receiver, instance):
        if not seen or seen[-1] is not instance:
            seen.append(instance)
        if len(seen) == 3:
            return 2.0
        return true_d_sem(q_alice, q_receiver, instance)

    true_d_sem = schemes.d_sem
    monkeypatch.setattr(schemes, "d_sem", d_sem)
    out = tmp_path / "o"
    assert main(["verify-bound", "--instances", "4", "--out", str(out)]) == 3
    repro = out / "violation.json"
    err = capsys.readouterr().err
    assert err.startswith("bound violated on random-1: distortion 2.0 "
                          "exceeds ceiling ")
    assert err.endswith(f"; instance in {repro}\n")
    written = json.loads(repro.read_text())
    assert written == json.loads(json.dumps(problem_instance_to_json(seen[2])))
    assert written != json.loads(json.dumps(problem_instance_to_json(seen[0])))
    assert not (out / "verify-bound.csv").exists()


def _instance_with(instance_file, key, value, tmp_path):
    obj = json.loads(Path(instance_file).read_text())
    if key == "prior":
        obj["concepts"][0]["prior"] = value
    else:
        obj[key] = value
    path = tmp_path / "bad-instance.json"
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.mark.parametrize("argv, config, instance, expect", [
    (["coordinate", "--slack", "1e6"], None, None, "cap 4194304"),
    (["code", "--slack", "1e6"], None, None, "cap 4194304"),
    (["code", "--mode", "block", "--slack", "1e6"], None, None, "cap 65536"),
    (["code"], {"rule": {"rule": "gibbs", "beta": "x"}}, None, "/rule/beta"),
    (["code"], {"rule": {"rule": "map_table", "rows": "x"}}, None,
     "/rule/rows"),
    (["code"], None, ("prior", "x"), "/concepts/0/prior"),
    (["code"], None, ("samples", 5), "/samples"),
    (["code"], None, ("hypotheses", 3), "/hypotheses"),
    (["code"], {"seed": True}, None, "/seed"),
    (["code"], {"rule": {"rule": "gibbs", "beta": True}}, None, "/rule/beta"),
    (["code"], {"rule": {"rule": "map_table", "rows": [[True, False]] * 2}},
     None, "/rule/rows"),
    (["code"], None, ("prior", True), "/concepts/0/prior"),
    (["code"], None, ("m", True), "/m"),
    (["code"], None, ("l_max", True), "/l_max"),
    (["code"], None, ("l_max", "x"), "/l_max"),
    (["code"], None, ("data_law", [[True, False], [0.5, 0.5]]), "/data_law"),
    (["code"], None, ("loss", [[[0.5, 0.5], [0.5, 0.5]],
                               [[0.5, 0.5], [0.5, False]]]), "/loss"),
    (["code"], None, ("data_law", {"z0": 1}), "/data_law"),
    (["code"], None, ("loss", {"h0": 1}), "/loss"),
    (["code"], None, ("l_max", None), "/l_max"),
], ids=["coordinate-slack-1e6", "code-slack-1e6", "block-slack-1e6",
        "rule-beta-x", "rule-rows-x", "concept-prior-x", "samples-5",
        "hypotheses-3", "seed-true", "rule-beta-true", "rule-rows-bools",
        "concept-prior-true", "m-true", "l_max-true", "l_max-x",
        "data_law-bools", "loss-bool", "data_law-object", "loss-object",
        "l_max-null"])
def test_inputs_that_crashed_exit_2(tmp_path, instance_file, capsys, argv,
                                    config, instance, expect):
    """Each of these raised a traceback, ran with a JSON true or false taken
    as 1 or 0 (seed true ran as seed 1), or named the wrong key (l_max "x"
    was reported at /loss)."""
    if instance is not None:
        instance_file = _instance_with(instance_file, *instance, tmp_path)
    argv = argv + ["--instance", instance_file]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = argv + ["--config", str(cfg)]
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 2
    assert expect in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("l_max", [math.nan, math.inf])
def test_non_finite_l_max_exits_2(tmp_path, instance_file, capsys, l_max):
    """Python's json reads NaN and Infinity; compare-schemes ran on either
    and wrote nan bounds with exit 0."""
    path = _instance_with(instance_file, "l_max", l_max, tmp_path)
    out = tmp_path / "o"
    assert main(["compare-schemes", "--instance", path,
                 "--out", str(out)]) == 2
    assert "config error: /l_max: must be finite" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


_CSV_FLOATS = st.one_of(
    st.floats(), st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 1e16,
                                  1e-5, 5e-324, 2.2250738585072014e-308,
                                  0.1, 1.0]))
_CSV_CELLS = st.one_of(
    _CSV_FLOATS, _CSV_FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32), st.booleans(),
    st.booleans().map(np.bool_), st.integers(),
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.none(),
    st.text(alphabet='ab ,"\'\n\r\t;|0.-e\u00e9'))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(rows=st.lists(st.lists(_CSV_CELLS, max_size=6).map(tuple),
                     max_size=5))
def test_write_csv_matches_the_fmt_rows(rows):
    """Native cells go to csv.writer as they are and give the bytes that
    _fmt gave; every other cell still goes through _fmt."""
    header = ["a", "b,c", 'd"e']
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
        _write_csv(got, header, rows)
        write_csv_reference(want, header, rows)
        assert got.read_bytes() == want.read_bytes()


def test_block_rows_report_the_block_coder(tmp_path):
    """Block-mode TV is the block coder's per-position law, not a per-symbol
    coder's at the block's K: each row matches the exact law, from the
    tuple-recursion oracle on the product alphabet, marginalised."""
    from itertools import product

    from beliefcomm import (CommonRandomness, Distribution, LearningRule, fit,
                            mrc_enumeration_oracle, total_variation)
    from beliefcomm.channel_coding import inverse_cdf_sample

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(4)))
    inst = random_instance(rng, n_concepts=3, n_symbols=3, n_hypotheses=2,
                           m=1, concentration=0.3)
    path = tmp_path / "world.json"
    path.write_text(json.dumps(problem_instance_to_json(inst)))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rule": {"rule": "gibbs", "beta": 8.0}}))
    out = tmp_path / "o"
    assert main(["code", "--instance", str(path), "--config", str(cfg),
                 "--n", "3", "--mode", "block", "--slack", "0", "--seed", "4",
                 "--out", str(out)]) == 0
    rows = _rows(out / "code.csv")
    k = int(rows[0][2])
    assert k == 4 and all(int(r[2]) == k for r in rows)

    # the coded datasets: data stream 0 of seed 4, as the CLI draws them
    q = fit(LearningRule.gibbs(8.0), inst)
    s_seq = inverse_cdf_sample(inst.p_s,
                               CommonRandomness(4).data_stream(0).random(3))
    targets = [q.rows[s] for s in s_seq]
    prior = q.marginal.probs
    tuples = list(product(range(2), repeat=3))
    joint = mrc_enumeration_oracle(
        Distribution([np.prod([t[h] for t, h in zip(targets, hs)])
                      for hs in tuples]),
        Distribution([np.prod(prior[list(hs)]) for hs in tuples]), k)
    for i, row in enumerate(rows):
        marginal = np.zeros(2)
        for hs, mass in zip(tuples, joint.probs):
            marginal[hs[i]] += mass
        exact = total_variation(marginal, targets[i])
        assert abs(float(row[4]) - exact) <= 1e-12, (i, row[4], exact)


def test_block_oracle_checks_the_block_law(tmp_path, instance_file):
    """A block whose tuple count |H|^(nK) is at most 4096 gets an oracle
    row per position, and every one of them passes."""
    out = tmp_path / "o"
    assert main(["code", "--instance", instance_file, "--n", "2", "--mode",
                 "block", "--slack", "0", "--seed", "4", "--with-oracle",
                 "--out", str(out)]) == 0
    k = int(_rows(out / "code.csv")[0][2])
    assert 4**k <= 4096
    checks = _rows(out / "oracle_checks.csv")
    assert [r[:2] for r in checks] == [["mrc_induced", "position=0"],
                                       ["mrc_induced", "position=1"]]
    assert all(float(r[4]) <= 1e-12 and r[5] == "1" for r in checks)


def test_oracle_skips_a_one_hypothesis_law_past_k_12(tmp_path):
    """1^K <= 4096 at any K, but the tuple oracle recurses K deep: at K = 2048
    it crashed with RecursionError. The law itself is the point mass."""
    rng = np.random.default_rng(0)
    inst = random_instance(rng, n_concepts=2, n_symbols=2, n_hypotheses=1, m=1)
    path = tmp_path / "world1.json"
    path.write_text(json.dumps(problem_instance_to_json(inst)))
    out = tmp_path / "o"
    assert main(["code", "--instance", str(path), "--n", "2", "--slack", "11",
                 "--with-oracle", "--out", str(out)]) == 0
    assert [r[2:5] for r in _rows(out / "code.csv")] == [["2048", "11.0", "0.0"]] * 2
    assert _rows(out / "oracle_checks.csv") == []


def test_block_past_the_alphabet_cap_exits_2(tmp_path, instance_file, capsys):
    """The block law lives on H^n: 2^17 tuples are past DEFAULT_BLOCK_CAP."""
    out = tmp_path / "o"
    assert main(["code", "--instance", instance_file, "--n", "17", "--mode",
                 "block", "--slack", "0", "--out", str(out)]) == 2
    assert "|H|^n = 2^17 exceeds cap 65536" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("argv, config, key", [
    (["rd-curve", "--epsilons", "0,nan"], None, "epsilons"),
    (["rd-curve", "--epsilons", "0,inf"], None, "epsilons"),
    (["verify-bound", "--epsilons", "0,nan"], None, "epsilons"),
    (["verify-bound", "--epsilons", "0,inf"], None, "epsilons"),
    (["rd-curve"], {"prior": [0.5, "x"]}, "prior"),
    (["code"], {"prior": [0.5, "x"]}, "prior"),
    (["verify-bound"], {"prior": [0.5, "x"]}, "prior"),
    (["rd-curve"], {"prior": [0.5, 0.6]}, "prior"),
], ids=["rd-curve-nan", "rd-curve-inf", "verify-bound-nan", "verify-bound-inf",
        "rd-curve-prior-x", "code-prior-x", "verify-bound-prior-x",
        "rd-curve-prior-sum"])
def test_bad_budgets_and_priors_exit_2(tmp_path, instance_file, capsys, argv,
                                       config, key):
    """A non-finite budget ran to the slope cap (nan, exit 3) or wrote an inf
    row (exit 0); a list prior with a non-number crashed with a traceback."""
    if argv[0] == "verify-bound":
        argv = argv + ["--instances", "1"]
    else:
        argv = argv + ["--instance", instance_file]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = argv + ["--config", str(cfg)]
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 2
    assert f"config error: /{key}" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_cli_import_leaves_scipy_unloaded():
    """The runtime needs numpy alone; scipy is only a test reference."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, beliefcomm.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_coding_ops_leave_numpy_random_unloaded(instance_file):
    """No coding op imports numpy.random, which costs about 6 MB of RSS: the
    coder draws from its own Philox kernel."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    script = textwrap.dedent("""\
        import sys, tempfile
        from beliefcomm.cli import main
        for argv in (["code"], ["code", "--with-oracle", "--slack", "2"],
                     ["code", "--mode", "block"],
                     ["coordinate", "--trials", "50"]):
            with tempfile.TemporaryDirectory() as out:
                argv += ["--instance", sys.argv[1], "--out", out]
                assert main(argv) == 0, argv
        print("numpy.random" in sys.modules)
    """)
    out = subprocess.run([sys.executable, "-c", script, instance_file],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
