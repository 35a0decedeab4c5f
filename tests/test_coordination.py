"""Empirical vs. strong coordination of belief sequences."""

import numpy as np
import pytest

from beliefcomm import (
    CommonRandomness,
    Distribution,
    LearningRule,
    Posterior,
    SequenceTrace,
    alternating_schedule,
    code_sequence,
    d_avg_seq,
    d_max_seq,
    d_sem,
    d_sem_from_joint_type,
    fit,
    joint_type_from_pairs,
    random_instance,
    run_example_1,
    sequence_distortion_oracle,
    simulate_empirical_deterministic,
    simulate_strong,
    total_variation,
    two_hypothesis_world,
)
from beliefcomm.channel_coding import inverse_cdf_sample
from beliefcomm.coordination import TRIAL_BLOCK_SYMBOLS
from beliefcomm.errors import NormalizationError, SupportViolationError


def _trace(inst, n=4, bits=0.0):
    rows = np.full((n, inst.n_hypotheses), 1.0 / inst.n_hypotheses)
    jt = joint_type_from_pairs([0] * n, [0] * n, inst.n_datasets,
                               inst.n_hypotheses)
    return dict(n=n, datasets=(0,) * n, alice_rows=rows, bob_rows=rows,
                joint_type=jt, bits_used=bits, cr_bits=0)


def test_trace_rejects_length_mismatch():
    inst = two_hypothesis_world()
    kw = _trace(inst)
    kw["datasets"] = (0, 0)
    with pytest.raises(ValueError):
        SequenceTrace(**kw)


def test_trace_joint_type_must_be_a_type():
    """n times the joint type has to be an integer count table."""
    inst = two_hypothesis_world()
    kw = _trace(inst)
    bad = kw["joint_type"].copy()
    bad[0, 0] -= 0.1
    bad[0, 1] += 0.1  # still sums to one, but 4*0.1 is not an integer count
    kw["joint_type"] = bad
    with pytest.raises(NormalizationError):
        SequenceTrace(**kw)
    kw2 = _trace(inst)
    kw2["joint_type"] = kw2["joint_type"] * 0.9
    with pytest.raises(NormalizationError):
        SequenceTrace(**kw2)


def test_joint_type_from_pairs_counts():
    t = joint_type_from_pairs([0, 1, 0], [1, 0, 1], 2, 2)
    np.testing.assert_allclose(t, [[0.0, 2.0 / 3.0], [1.0 / 3.0, 0.0]])


def test_alternating_schedule_orientation():
    sched = alternating_schedule(4)
    np.testing.assert_array_equal(sched,
                                  [[0, 1], [1, 0], [0, 1], [1, 0]])


def test_example_1_exact_values():
    # sender is uniform everywhere, receiver alternates h1, h0, ...
    # average cancels pairwise, worst position is always 1/2
    for n, want_avg in [(2, 0.0), (3, 1.0 / 6.0), (4, 0.0), (5, 0.1)]:
        res = run_example_1(n)
        assert res.d_avg == pytest.approx(want_avg, abs=1e-15)
        assert res.d_max == 0.5
        assert res.bits_per_symbol == 0.0
        assert res.tv_max_position == 0.5
    with pytest.raises(ValueError):
        run_example_1(1)


def test_example_1_trace_is_seed_reproducible():
    a = run_example_1(7, seed=13)
    b = run_example_1(7, seed=13)
    assert a.trace.datasets == b.trace.datasets


def test_constant_schedule_sits_below_baseline():
    """An all-h0 receiver scores -1/2 at every position of the demo world."""
    inst = two_hypothesis_world()
    q = Posterior.from_rows(np.full((inst.n_datasets, 2), 0.5), inst)
    sched = np.zeros((6, 2))
    sched[:, 0] = 1.0
    tr = simulate_empirical_deterministic(inst, q, sched, seed=3)
    assert d_avg_seq(tr.alice_rows, tr.bob_rows, inst) == pytest.approx(-0.5)
    assert d_max_seq(tr.alice_rows, tr.bob_rows, inst) == pytest.approx(-0.5)


def test_schedule_rows_must_be_one_hot():
    inst = two_hypothesis_world()
    q = Posterior.from_rows(np.full((inst.n_datasets, 2), 0.5), inst)
    with pytest.raises(ValueError, match="one-hot"):
        simulate_empirical_deterministic(inst, q, np.full((3, 2), 0.5))


def test_time_average_equals_joint_type_distortion():
    """Averaged per-position distortion is the distortion of the realized type.

    Exact identity for deterministic schedules: both sides are linear in the
    same empirical counts.
    """
    for seed in range(10):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, n_concepts=int(rng.integers(2, 4)),
                               n_symbols=2,
                               n_hypotheses=int(rng.integers(2, 4)), m=1)
        q = fit(LearningRule.gibbs(float(rng.uniform(0.5, 3.0))), inst)
        n = int(rng.integers(3, 12))
        sched = np.zeros((n, inst.n_hypotheses))
        sched[np.arange(n), rng.integers(0, inst.n_hypotheses, n)] = 1.0
        tr = simulate_empirical_deterministic(inst, q, sched, seed=seed + 100)
        da = d_avg_seq(tr.alice_rows, tr.bob_rows, inst)
        dj = d_sem_from_joint_type(tr.joint_type, q, inst)
        assert abs(da - dj) < 1e-10


def test_sequence_oracle_agrees_with_fast_path():
    rng = np.random.default_rng(5)
    inst = random_instance(rng, n_concepts=3, n_symbols=2, n_hypotheses=3, m=1)
    q = fit(LearningRule.gibbs(1.5), inst)
    sched = np.zeros((8, 3))
    sched[np.arange(8), rng.integers(0, 3, 8)] = 1.0
    tr = simulate_empirical_deterministic(inst, q, sched, seed=9)
    oa, om = sequence_distortion_oracle(tr, inst)
    assert abs(oa - d_avg_seq(tr.alice_rows, tr.bob_rows, inst)) < 1e-12
    assert abs(om - d_max_seq(tr.alice_rows, tr.bob_rows, inst)) < 1e-12


def test_simulate_strong_zero_divergence_target_is_free():
    """Uniform rows make prior equal target, so one candidate suffices."""
    inst = two_hypothesis_world()
    q = Posterior.from_rows(np.full((inst.n_datasets, 2), 0.5), inst)
    rep = simulate_strong(inst, q, n=4, cr=CommonRandomness(21), trials=200,
                          slack=0.0)
    assert rep.bits_per_symbol == 0.0
    assert abs(rep.d_avg_est) < 0.1
    assert rep.d_max_est < 0.25
    assert rep.tv_max_position < 0.25
    assert rep.trials == 200 and rep.n == 4
    assert rep.unlimited_common_randomness
    assert rep.trace.cr_bits > 0
    lo, hi = rep.d_avg_ci
    assert lo <= rep.d_avg_est <= hi


def test_simulate_strong_rejects_unsupported_target():
    inst = two_hypothesis_world()
    rows = np.array([[0.5, 0.5]] * inst.n_datasets)
    q = Posterior(rows=rows, marginal=Distribution([1.0, 0.0]))
    with pytest.raises(SupportViolationError):
        simulate_strong(inst, q, n=2, cr=CommonRandomness(0), trials=5)


def _strong_by_trial_loop(inst, q, n, seed, trials, slack):
    """simulate_strong's estimates the slow way: one coded trial at a time."""
    cr = CommonRandomness(seed)
    prior = q.marginal
    counts = np.zeros((n, inst.n_datasets, inst.n_hypotheses))
    bits = 0.0
    for t in range(trials):
        s_seq = inverse_cdf_sample(inst.p_s, cr.data_stream(t).random(n))
        coded = code_sequence(q, prior, s_seq, cr, slack=slack, trial=t)
        bits += coded.total_bits
        for i in range(n):
            counts[i, s_seq[i], coded.reconstruction[i]] += 1.0
    dmat = inst.dataset_space.posterior @ inst.true_loss_table
    d_by_pos, var_by_pos, tv_max = [], [], 0.0
    for i in range(n):
        rows = np.array([counts[i, s] / counts[i, s].sum()
                         if counts[i, s].sum() > 0 else prior.probs
                         for s in range(inst.n_datasets)])
        d_by_pos.append(d_sem(q, Posterior.from_rows(rows, inst), inst))
        var = 0.0
        for s in range(inst.n_datasets):
            total = counts[i, s].sum()
            if inst.p_s[s] > 0 and total > 0:
                m1, m2 = rows[s] @ dmat[s], rows[s] @ dmat[s] ** 2
                var += inst.p_s[s] ** 2 * max(m2 - m1**2, 0.0) / total
            if inst.p_s[s] > 0:
                tv_max = max(tv_max, total_variation(rows[s], q.rows[s]))
        var_by_pos.append(var)
    # the coder tallied its own draws; the data draws are n per trial
    drawn = cr.bits_consumed + 64 * n * trials
    return bits / (n * trials), d_by_pos, var_by_pos, tv_max, drawn


def test_simulate_strong_matches_trial_by_trial_coding():
    """The blocked, vectorised estimator equals per-trial code_sequence runs."""
    rng = np.random.default_rng(11)
    inst = random_instance(rng, n_concepts=3, n_symbols=3, n_hypotheses=3, m=1)
    q = fit(LearningRule.gibbs(2.0), inst)
    n = 3
    trials = TRIAL_BLOCK_SYMBOLS // n + 7  # spans two batch blocks
    cr = CommonRandomness(4)
    rep = simulate_strong(inst, q, n=n, cr=cr, trials=trials, slack=2.0)
    bits, d_by_pos, var_by_pos, tv_max, drawn = _strong_by_trial_loop(
        inst, q, n, 4, trials, 2.0)
    assert cr.bits_consumed == rep.trace.cr_bits == drawn
    i_max = int(np.argmax(d_by_pos))
    assert rep.bits_per_symbol == pytest.approx(bits, rel=1e-12)
    assert rep.d_avg_est == pytest.approx(np.mean(d_by_pos), abs=1e-12)
    assert rep.d_max_est == pytest.approx(d_by_pos[i_max], abs=1e-12)
    half_width = 1.96 * np.sqrt(var_by_pos[i_max])
    assert rep.d_max_ci[1] - rep.d_max_est == pytest.approx(half_width,
                                                            abs=1e-12)
    assert rep.tv_max_position == pytest.approx(tv_max, abs=1e-12)
