"""Acceptance criteria, one test per criterion.

Each test prints a single ACCEPT-N line with the measured headline numbers
and asserts the pinned tolerance plus a wall-clock limit. Random banks are
fully seeded, so a run is reproducible case by case.
"""

import json
import math
import time

import numpy as np

from beliefcomm import (
    CommonRandomness,
    Distribution,
    LearningRule,
    Posterior,
    code_sequence,
    compare_schemes,
    d_avg_seq,
    effective_distortion_matrix,
    enumerate_compressors,
    fit,
    induced_distribution_exact,
    kl_divergence,
    mutual_information,
    problem_instance_to_json,
    random_instance,
    rd_grid_oracle,
    run_example_1,
    simulate_strong,
    solve_rd,
    two_hypothesis_world,
    verify_bound,
)
from beliefcomm.channel_coding import inverse_cdf_sample
from beliefcomm.cli import main as cli_main
from conftest import (d_sem_from_joint_type, kl_rate, philox_rng, random_rows,
                      sharp_sender, simulate_empirical_deterministic)


def test_accept_1_example_walkthrough_exact():
    """d_avg is 0 (even n) or 1/(2n) (odd n) and d_max is 1/2, n = 2..50."""
    t0 = time.monotonic()
    worst = 0.0
    for n in range(2, 51):
        res = run_example_1(n)
        want = 0.0 if n % 2 == 0 else 1.0 / (2.0 * n)
        worst = max(worst, abs(res.d_avg - want))
        assert abs(res.d_avg - want) <= 1e-15, (n, res.d_avg, want)
        assert res.d_max == 0.5, (n, res.d_max)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"ACCEPT-1 PASS: n=2..50 exact, worst |d_avg - target| = {worst:.2e}, "
          f"d_max = 1/2 throughout, {elapsed:.2f}s")


def test_accept_2_rd_solver_matches_grid_oracle():
    """50 random small instances: solver rate within 1e-3 bits of the oracle."""
    t0 = time.monotonic()
    sizes = [(2, 2), (3, 2), (2, 3)]
    worst = 0.0
    positive = 0
    for i in range(50):
        n_sym, n_h = sizes[i % 3]
        if i % 5 == 4:
            rng = philox_rng(1000 + i)
            inst = random_instance(rng, n_concepts=2, n_symbols=n_sym,
                                   n_hypotheses=n_h, m=1)
            q = fit(LearningRule.gibbs(float(rng.uniform(0.5, 3.0))), inst)
            dmat, base = effective_distortion_matrix(inst, q)
            span = float((inst.p_s @ dmat).min()) - base
            eps = max(span, 0.0) + float(rng.uniform(0.0, 0.2))
        else:
            inst, q, span = sharp_sender(2000 + i, n_symbols=n_sym,
                                         n_hypotheses=n_h)
            eps = float(philox_rng(i).uniform(0.2, 0.8)) * span
            positive += 1
        diff = abs(rd_grid_oracle(inst, q, eps) - solve_rd(inst, q, eps).rate)
        worst = max(worst, diff)
        assert diff <= 1e-3, (i, n_sym, n_h, eps, diff)
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    print(f"ACCEPT-2 PASS: 50 instances ({positive} on the positive-rate "
          f"branch), worst |solver - oracle| = {worst:.2e} bits, {elapsed:.1f}s")


def test_accept_3_kl_rate_identities():
    """kl_rate at the own marginal is I(S;H); otherwise it adds a KL penalty."""
    t0 = time.monotonic()
    worst_mi, worst_dec = 0.0, 0.0
    for i in range(1000):
        rng = philox_rng(i)
        inst = random_instance(rng, n_concepts=int(rng.integers(2, 4)),
                               n_symbols=int(rng.integers(2, 4)),
                               n_hypotheses=int(rng.integers(2, 5)), m=1)
        rows = random_rows(rng, inst.n_datasets, inst.n_hypotheses,
                           concentration=float(rng.uniform(0.4, 3.0)))
        q = Posterior.from_rows(rows, inst)
        mi = mutual_information(inst.p_s[:, None] * q.rows)
        worst_mi = max(worst_mi, abs(kl_rate(q, q.marginal, inst) - mi))
        prior = Distribution(rng.dirichlet(np.full(inst.n_hypotheses, 2.0)))
        decomposed = mi + kl_divergence(q.marginal, prior)
        worst_dec = max(worst_dec, abs(kl_rate(q, prior, inst) - decomposed))
    elapsed = time.monotonic() - t0
    assert worst_mi <= 1e-10
    assert worst_dec <= 1e-10
    assert elapsed < 10.0
    print(f"ACCEPT-3 PASS: 1000 pairs, marginal identity off by {worst_mi:.2e}, "
          f"penalty decomposition off by {worst_dec:.2e}, {elapsed:.1f}s")


def test_accept_4_per_symbol_bits_within_one_shot_bound():
    """Measured per-symbol bits stay under kl + log2(kl+1) + 4 + slack."""
    t0 = time.monotonic()
    slack = 4.0
    worst_margin = math.inf
    for i in range(20):
        rng = philox_rng(300 + i)
        inst = random_instance(rng, n_concepts=int(rng.integers(2, 4)),
                               n_symbols=int(rng.integers(2, 4)),
                               n_hypotheses=int(rng.integers(2, 4)), m=1)
        q = fit(LearningRule.gibbs(float(np.exp(rng.uniform(-0.7, 1.4)))), inst)
        prior = q.marginal
        rate = kl_rate(q, prior, inst)
        cr = CommonRandomness(300 + i)
        n, trials = 500, 20
        bits = 0.0
        for t in range(trials):
            s_seq = inverse_cdf_sample(inst.p_s, cr.data_stream(t).random(n))
            coded = code_sequence(q, prior, s_seq, cr, slack=slack, trial=t)
            bits += sum((r.index_bits for r in coded.records), 0.0)
        measured = bits / (n * trials)
        bound = rate + math.log2(rate + 1.0) + 4.0 + slack
        worst_margin = min(worst_margin, bound - measured)
        assert measured <= bound, (i, measured, bound)
    # a zero-divergence target needs one candidate, and one candidate
    # reproduces the prior exactly
    p = Distribution([0.35, 0.4, 0.25])
    q1 = Distribution([0.2, 0.5, 0.3])
    assert np.array_equal(induced_distribution_exact(q1, p, 1).probs, p.probs)
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    print(f"ACCEPT-4 PASS: 20 instances x 10^4 coded symbols, worst bound "
          f"margin {worst_margin:.2f} bits, K=1 reproduces the prior exactly, "
          f"{elapsed:.1f}s")


def test_accept_5_strong_coordination_beats_deterministic_bob():
    """Per-position tracking at essentially zero rate vs the 1/2 floor."""
    t0 = time.monotonic()
    inst = two_hypothesis_world()
    q = Posterior.from_rows(np.full((inst.n_datasets, 2), 0.5), inst)
    rep = simulate_strong(inst, q, n=4, cr=CommonRandomness(17),
                          trials=10**4, slack=0.0)
    det = run_example_1(4)
    assert rep.bits_per_symbol < 0.05, rep.bits_per_symbol
    assert rep.d_max_est < 0.02, rep.d_max_est
    assert det.d_max == 0.5
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    print(f"ACCEPT-5 PASS: strong d_max = {rep.d_max_est:.4f} at "
          f"{rep.bits_per_symbol} bits/symbol (10^4 trials) vs deterministic "
          f"d_max = {det.d_max}, {elapsed:.1f}s")


def test_accept_6_distortion_rate_bound_never_violated():
    """verify_bound flags nothing across 200 random instances + the demo."""
    t0 = time.monotonic()
    world = two_hypothesis_world()
    qw = Posterior.from_rows(np.full((world.n_datasets, 2), 0.5), world)
    bank = [(world, qw, qw.marginal, [0.0, 0.125, 0.25, 0.375, 0.5])]
    for i in range(200):
        rng = philox_rng(500 + i)
        inst = random_instance(rng, n_concepts=int(rng.integers(2, 4)),
                               n_symbols=int(rng.integers(2, 4)),
                               n_hypotheses=int(rng.integers(2, 4)), m=1)
        if i % 4 == 0:
            q = fit(LearningRule.erm(), inst)
        else:
            q = fit(LearningRule.gibbs(float(np.exp(rng.uniform(-0.7, 1.4)))),
                    inst)
        l = inst.hypotheses.l_max
        bank.append((inst, q, q.marginal, [0.0, l / 8.0, l / 4.0, l / 2.0]))
    checks = [c for rows in verify_bound(bank) for c in rows]
    assert all(c.ok for c in checks)
    worst = min(c.margin for c in checks)
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    print(f"ACCEPT-6 PASS: {len(checks)} budget points on 201 instances, "
          f"zero violations at tol 1e-9, tightest margin {worst:.2e}, "
          f"{elapsed:.1f}s")


def test_accept_7_chain_rule_and_data_processing():
    """Chain rule to 1e-8 and I(S;H1) >= I(S;H2) over every compressor."""
    t0 = time.monotonic()
    n_checked = 0
    worst_chain = 0.0
    for seed, kw in [(1, dict(n_symbols=2, m=1)), (2, dict(n_symbols=3, m=1)),
                     (3, dict(n_symbols=2, m=2)), (4, dict(n_symbols=4, m=1))]:
        rng = philox_rng(40 + seed)
        inst = random_instance(rng, n_concepts=3, n_hypotheses=2,
                               concentration=0.5, **kw)
        rule = LearningRule.gibbs(2.0) if seed % 2 else LearningRule.erm()
        q = fit(rule, inst)
        mi1 = mutual_information(inst.p_s[:, None] * q.rows)
        for rep in compare_schemes(inst, q, rule,
                                   enumerate_compressors(inst.n_datasets)):
            chain = abs(rep.mi_model - rep.mi_model2 - rep.mi_residual)
            worst_chain = max(worst_chain, chain)
            assert chain <= 1e-8, (seed, rep.compressor, chain)
            assert rep.mi_model2 <= mi1 + 1e-10, (seed, rep.compressor)
            n_checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    print(f"ACCEPT-7 PASS: {n_checked} compressors on 4 instances, chain rule "
          f"off by at most {worst_chain:.2e}, compression never gains "
          f"information, {elapsed:.1f}s")


def test_accept_8_joint_type_identity():
    """Time-averaged distortion equals the joint-type distortion, 100 runs."""
    t0 = time.monotonic()
    worst = 0.0
    for i in range(100):
        rng = philox_rng(700 + i)
        inst = random_instance(rng, n_concepts=int(rng.integers(2, 4)),
                               n_symbols=int(rng.integers(2, 4)),
                               n_hypotheses=int(rng.integers(2, 4)), m=1)
        q = fit(LearningRule.gibbs(float(rng.uniform(0.5, 3.0))), inst)
        n = int(rng.integers(2, 16))
        sched = np.zeros((n, inst.n_hypotheses))
        sched[np.arange(n), rng.integers(0, inst.n_hypotheses, n)] = 1.0
        tr = simulate_empirical_deterministic(inst, q, sched, seed=700 + i)
        gap = abs(d_avg_seq(tr.alice_rows, tr.bob_rows, inst)
                  - d_sem_from_joint_type(tr.joint_type, q, inst))
        worst = max(worst, gap)
        assert gap <= 1e-10, (i, gap)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"ACCEPT-8 PASS: 100 random schedules, identity off by at most "
          f"{worst:.2e}, {elapsed:.1f}s")


def test_accept_9_cli_outputs_are_deterministic(tmp_path):
    """Identical config and seed produce byte-identical CSVs and manifests."""
    t0 = time.monotonic()
    rng = np.random.default_rng(0)
    inst = random_instance(rng, n_concepts=2, n_symbols=2, n_hypotheses=2, m=1)
    inst_file = tmp_path / "instance.json"
    inst_file.write_text(json.dumps(problem_instance_to_json(inst)))
    pairs = []
    for tag, argv in [
        ("example1", ["example1"]),
        ("code", ["code", "--instance", str(inst_file), "--seed", "3",
                  "--n", "6"]),
        ("rd-curve", ["rd-curve", "--instance", str(inst_file),
                      "--epsilons", "0.0,0.1,0.2"]),
    ]:
        outs = []
        for run in ("a", "b"):
            out = tmp_path / f"{tag}-{run}"
            assert cli_main(argv + ["--out", str(out)]) == 0
            outs.append(out)
        for name in sorted(f.name for f in outs[0].iterdir()):
            a = (outs[0] / name).read_bytes()
            b = (outs[1] / name).read_bytes()
            assert a == b, f"{tag}/{name} differs between reruns"
            pairs.append(f"{tag}/{name}")
    elapsed = time.monotonic() - t0
    print(f"ACCEPT-9 PASS: {len(pairs)} files byte-identical across reruns "
          f"({', '.join(pairs)}), {elapsed:.1f}s")
