"""Learning rules and the semantic distortion reduction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefcomm import (
    Distribution,
    LearningRule,
    Posterior,
    d_sem,
    d_sem_rows,
    effective_distortion_matrix,
    fit,
    random_instance,
    random_rows,
    two_hypothesis_world,
)
from beliefcomm.errors import ConfigError, NormalizationError
from beliefcomm.learning import dataset_scores, empirical_loss, true_loss


def _rng(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def test_dataset_scores_two_hypothesis_world():
    # h0 never loses, h1 always loses one unit, for every dataset
    w = two_hypothesis_world()
    scores = dataset_scores(w)
    np.testing.assert_allclose(scores, [[0.0, 1.0], [0.0, 1.0]], atol=1e-15)


def test_gibbs_fit_is_softmax_of_scores():
    w = two_hypothesis_world()
    q = fit(LearningRule.gibbs(1.0), w)
    expect = np.exp([0.0, -1.0])
    expect /= expect.sum()
    np.testing.assert_allclose(q.rows, np.tile(expect, (2, 1)), atol=1e-12)


def test_gibbs_beta_zero_is_uniform():
    rng = _rng(0)
    inst = random_instance(rng, n_concepts=2, n_symbols=3, n_hypotheses=3, m=1)
    q = fit(LearningRule.gibbs(0.0), inst)
    np.testing.assert_allclose(q.rows, 1.0 / 3.0, atol=1e-12)


def test_erm_picks_unique_minimizer():
    w = two_hypothesis_world()
    q = fit(LearningRule.erm(), w)
    np.testing.assert_allclose(q.rows, [[1.0, 0.0], [1.0, 0.0]], atol=0)


def test_erm_splits_ties():
    # both hypotheses carry identical loss, so erm must split evenly
    rng = _rng(3)
    inst = random_instance(rng, n_concepts=2, n_symbols=2, n_hypotheses=2, m=1)
    flat_loss = np.tile(inst.hypotheses.loss[:, :1, :], (1, 2, 1))
    from beliefcomm.spaces import HypothesisSpace, ProblemInstance

    hyp = HypothesisSpace(
        hypothesis_names=inst.hypotheses.hypothesis_names,
        loss=flat_loss,
        l_max=inst.hypotheses.l_max,
    )
    tied = ProblemInstance(
        concepts=inst.concepts, dataset_space=inst.dataset_space, hypotheses=hyp
    )
    q = fit(LearningRule.erm(), tied)
    np.testing.assert_allclose(q.rows, 0.5, atol=1e-12)


def test_map_table_rule_passes_through():
    w = two_hypothesis_world()
    table = np.array([[0.25, 0.75], [0.9, 0.1]])
    q = fit(LearningRule.map_table(table), w)
    np.testing.assert_allclose(q.rows, table, atol=0)


def test_rule_json_errors():
    with pytest.raises(ConfigError):
        LearningRule.from_json({"rule": "nope"})
    with pytest.raises(ConfigError):
        LearningRule.from_json({"rule": "gibbs", "beta": -1.0})


def test_empirical_vs_true_loss_single_draw():
    w = two_hypothesis_world()
    # point belief on h1 loses 1 on every sample; on h0 it never loses
    h0 = Distribution.point_mass(0, 2)
    h1 = Distribution.point_mass(1, 2)
    assert empirical_loss(h1, (0,), 0, w) == 1.0
    assert empirical_loss(h0, (0,), 0, w) == 0.0
    assert true_loss(h1, 0, w) == 1.0


def test_posterior_marginal_matches_mixture():
    rng = _rng(5)
    inst = random_instance(rng, n_concepts=2, n_symbols=3, n_hypotheses=2, m=1)
    q = fit(LearningRule.gibbs(2.0), inst)
    np.testing.assert_allclose(q.marginal.probs, inst.p_s @ q.rows, atol=1e-12)


def test_d_sem_self_is_zero():
    rng = _rng(6)
    for seed in range(4):
        inst = random_instance(_rng(seed), n_concepts=3, n_symbols=2, n_hypotheses=3, m=1)
        q = fit(LearningRule.gibbs(1.5), inst)
        assert abs(d_sem(q, q, inst)) < 1e-14


def test_d_sem_definition_matches_reduced_matrix():
    # the two-route check: straight from the definition against the
    # precomputed effective distortion matrix
    for seed in range(6):
        rng = _rng(seed)
        inst = random_instance(rng, n_concepts=3, n_symbols=3, n_hypotheses=2, m=1)
        qa = fit(LearningRule.gibbs(2.0), inst)
        qb = Posterior.from_rows(
            random_rows(rng, inst.n_datasets, inst.n_hypotheses, 1.0), inst
        )
        direct = d_sem(qa, qb, inst)
        dmat, base = effective_distortion_matrix(inst, qa)
        reduced = float(np.einsum("s,sh,sh->", inst.p_s, qb.rows, dmat)) - base
        assert abs(direct - reduced) < 1e-13


def test_d_sem_rows_two_hypothesis_world():
    w = two_hypothesis_world()
    uniform = np.array([0.5, 0.5])
    assert abs(d_sem_rows(uniform, np.array([0.0, 1.0]), w) - 0.5) < 1e-15
    assert abs(d_sem_rows(uniform, np.array([1.0, 0.0]), w) + 0.5) < 1e-15


def test_d_sem_rows_takes_stacks_of_rows():
    """Stacks broadcast and give one distortion per row, as row by row."""
    inst = random_instance(_rng(3), n_concepts=3, n_symbols=2,
                           n_hypotheses=4, m=1)
    a, b = _rng(4).dirichlet(np.ones(4), size=(2, 2, 5))  # each (2, 5, 4)
    got = d_sem_rows(a, b, inst)
    assert got.shape == (2, 5)
    want = [[d_sem_rows(x, y, inst) for x, y in zip(ra, rb)]
            for ra, rb in zip(a, b)]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
    one_sender = d_sem_rows(a[0, 0], b[0], inst)
    np.testing.assert_allclose(
        one_sender, [d_sem_rows(a[0, 0], y, inst) for y in b[0]],
        rtol=0, atol=1e-15)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10**6), t=st.floats(0.0, 1.0))
def test_d_sem_affine_in_receiver(seed, t):
    rng = _rng(seed)
    inst = random_instance(rng, n_concepts=2, n_symbols=2, n_hypotheses=2, m=1)
    qa = fit(LearningRule.gibbs(1.0), inst)
    r1 = random_rows(rng, inst.n_datasets, inst.n_hypotheses, 1.0)
    r2 = random_rows(rng, inst.n_datasets, inst.n_hypotheses, 1.0)
    qb1 = Posterior.from_rows(r1, inst)
    qb2 = Posterior.from_rows(r2, inst)
    mix = Posterior.from_rows(t * r1 + (1 - t) * r2, inst)
    lhs = d_sem(qa, mix, inst)
    rhs = t * d_sem(qa, qb1, inst) + (1 - t) * d_sem(qa, qb2, inst)
    assert abs(lhs - rhs) < 1e-12


def test_effective_matrix_baseline_is_sender_distortion_zero():
    rng = _rng(9)
    inst = random_instance(rng, n_concepts=2, n_symbols=2, n_hypotheses=3, m=2)
    q = fit(LearningRule.gibbs(3.0), inst)
    dmat, base = effective_distortion_matrix(inst, q)
    sender_side = float(np.einsum("s,sh,sh->", inst.p_s, q.rows, dmat))
    assert abs(sender_side - base) < 1e-14


def test_map_table_rejects_bad_shape():
    from beliefcomm.errors import AlphabetMismatchError

    w = two_hypothesis_world()
    with pytest.raises(AlphabetMismatchError):
        fit(LearningRule.map_table(np.ones((3, 2)) / 2.0), w)


@pytest.mark.parametrize("bad", [[1.1, -0.1], [np.nan, 0.5], [0.6, 0.5]],
                         ids=["negative", "nan", "sums-to-1.1"])
def test_posterior_rows_name_the_first_bad_row(bad):
    inst = random_instance(_rng(3), n_concepts=2, n_symbols=4, n_hypotheses=2,
                           m=1)
    rows = np.full((inst.n_datasets, 2), 0.5)
    rows[1] = bad
    rows[3] = [2.0, 2.0]
    with pytest.raises(NormalizationError, match=r"^posterior row 1: "):
        Posterior.from_rows(rows, inst)


def test_posterior_rows_renormalise_a_small_drift():
    inst = random_instance(_rng(3), n_concepts=2, n_symbols=4, n_hypotheses=2,
                           m=1)
    rows = np.full((inst.n_datasets, 2), 0.5)
    rows[2] = [0.5, 0.5 + 8e-10]
    q = Posterior.from_rows(rows, inst)
    np.testing.assert_array_equal(q.rows[2], rows[2] / rows[2].sum())
    assert abs(q.rows[2].sum() - 1.0) <= 2**-52
    np.testing.assert_array_equal(np.delete(q.rows, 2, axis=0), 0.5)
    assert rows[2, 1] == 0.5 + 8e-10  # the caller's array is left alone
    assert not q.rows.flags.writeable
