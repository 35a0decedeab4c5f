"""CLI contracts: exit codes, CSV headers, manifests, reproducibility."""

import json

import numpy as np
import pytest

from beliefcomm import problem_instance_to_json, random_instance
from beliefcomm.cli import main


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
    assert manifest["seed"] == 0
    assert set(manifest["versions"]) == {"beliefcomm", "numpy", "scipy",
                                         "python"}
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


def test_code_csv_contract(tmp_path, instance_file):
    out = tmp_path / "out"
    rc = main(["code", "--instance", instance_file, "--out", str(out),
               "--n", "6", "--seed", "3"])
    assert rc == 0
    assert _header(out / "code.csv") == \
        "position,kl_bits,K,index_bits,tv_exact_or_estimate,flagged_fallback"
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
    assert main(["example1", "--out", str(a), "--seed", "5"]) == 0
    assert main(["example1", "--out", str(b), "--seed", "5"]) == 0
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
    cfg.write_text(json.dumps({"seed": 3, "n_list": [2, 4]}))
    out = tmp_path / "o"
    rc = main(["example1", "--out", str(out), "--config", str(cfg),
               "--seed", "9"])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 9
    assert [r[0] for r in _rows(out / "example1.csv")] == ["2", "4"]


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
