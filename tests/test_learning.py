"""Learning rules and the semantic distortion reduction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefcomm import (
    LearningRule,
    Posterior,
    d_sem,
    d_sem_rows,
    effective_distortion_matrix,
    fit,
    random_instance,
    two_hypothesis_world,
)
from beliefcomm.errors import ConfigError, NormalizationError
from beliefcomm.learning import (_effective_bank, _fit_bank, _posteriors,
                                 dataset_scores)
from beliefcomm.spaces import (ConceptSpace, Distribution, HypothesisSpace,
                               ProblemInstance, _bank, _labels)
from beliefcomm.worlds import _draw
from conftest import random_rows


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
        concepts=inst.concepts, hypotheses=hyp, m=inst.m
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


@settings(derandomize=True, deadline=None, max_examples=40)
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


_SHAPES = st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
                    st.integers(1, 3))


@st.composite
def _world_banks(draw):
    """Mixed-shape worlds drawn as random_instance draws them, a few shapes
    (|C|, |Z|, |H|, m) shared among them: concentrations down to 0.02, so
    that datasets of zero mass occur, hypotheses tied on every loss, and
    gibbs senders at beta 0 to 1e6 or erm ones."""
    shapes = draw(st.lists(_SHAPES, min_size=1, max_size=3))
    bank = []
    for _ in range(draw(st.integers(1, 8))):
        n_c, n_z, n_h, m = draw(st.sampled_from(shapes))
        prior, law, loss = _draw(
            _rng(draw(st.integers(0, 2**32 - 1))), n_c, n_z, n_h,
            draw(st.sampled_from([0.02, 0.05, 0.3, 1.0, 2.0])))
        if n_h > 1 and draw(st.booleans()):
            loss[:, 1] = loss[:, 0]
        rule = draw(st.sampled_from(["gibbs", "erm"]))
        beta = draw(st.sampled_from([0.0, 0.5, 3.0, 1e3, 1e6]))
        bank.append(((n_c, n_z, n_h, m, rule), beta, prior, law, loss))
    return bank


def _alone(prior, law, loss, m):
    """One world through the constructors."""
    n_c, n_h, n_z = loss.shape
    return ProblemInstance(
        ConceptSpace(_labels("c", n_c), _labels("z", n_z), Distribution(prior),
                     law),
        HypothesisSpace(_labels("h", n_h), loss), m)


def _same(a, b):
    assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert np.array_equal(a, b, equal_nan=True)
    assert not a.flags.writeable and not b.flags.writeable


def _raised(build):
    with pytest.raises(Exception) as err:
        build()
    return type(err.value), str(err.value)


@settings(derandomize=True, deadline=None, max_examples=120)
@given(bank=_world_banks(),
       defect=st.sampled_from([None, "prior", "law", "loss", "rows"]),
       at=st.integers(0, 7))
def test_stacked_bank_matches_one_world_at_a_time(bank, defect, at):
    """Each shape group of a bank, built, fitted and reduced as one stack,
    gives every world the bits, all read-only, of that world built and
    fitted alone; a bank holding one bad world raises what it raises
    alone."""
    at %= len(bank)
    groups = {}
    for i, (key, *_) in enumerate(bank):
        groups.setdefault(key, []).append(i)
    for (*_, m, rule), members in groups.items():
        beta, prior, law, loss = (np.array([bank[i][k] for i in members])
                                  for k in range(1, 5))
        bad = members.index(at) if at in members else None
        if bad is not None and defect in ("prior", "law", "loss"):
            # a negative entry in the bad world's prior, data law or loss
            {"prior": prior, "law": law, "loss": loss}[defect][bad].flat[0] \
                = -0.5
            assert _raised(lambda: _bank(prior, law, loss, m)) == _raised(
                lambda: _alone(prior[bad], law[bad], loss[bad], m))
            continue
        instances = _bank(prior, law, loss, m)
        senders = _fit_bank(rule, beta, instances)
        alone = [_alone(*x, m) for x in zip(prior, law, loss)]
        alone_senders = [fit(LearningRule.gibbs(b) if rule == "gibbs"
                             else LearningRule.erm(), w)
                         for b, w in zip(beta, alone)]
        for w, w1, q, q1 in zip(instances, alone, senders, alone_senders):
            for name in ("datasets", "conditional", "p_s", "posterior",
                         "true_loss_table"):
                _same(getattr(w, name), getattr(w1, name))
            _same(w.concepts.prior.probs, w1.concepts.prior.probs)
            _same(w.concepts.data_law, w1.concepts.data_law)
            _same(w.hypotheses.loss, w1.hypotheses.loss)
            _same(q.rows, q1.rows)
            _same(q.marginal.probs, q1.marginal.probs)
        rows = np.array([q.rows for q in senders])
        flat = np.full_like(rows, 1.0 / rows.shape[2])
        dmat, baseline = _effective_bank(instances, rows)
        distortion = [d_sem(q, Posterior.from_rows(f, w), w)
                      for w, q, f in zip(instances, senders, flat)]
        for b, (w1, q1) in enumerate(zip(alone, alone_senders)):
            dmat1, baseline1 = effective_distortion_matrix(w1, q1)
            assert dmat[b].tobytes() == dmat1.tobytes()
            assert float(baseline[b]) == baseline1
            assert float(distortion[b]) == d_sem(
                q1, Posterior.from_rows(flat[b], w1), w1)
        if bad is not None and defect == "rows":
            rows[bad, -1, 0] = np.nan
            p_s = np.array([w.p_s for w in instances])
            assert _raised(lambda: _posteriors(rows, p_s)) == _raised(
                lambda: Posterior.from_rows(rows[bad], alone[bad]))
