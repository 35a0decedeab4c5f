"""Alphabets, distributions, and the dataset alphabet an instance induces."""

import itertools
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import logsumexp, rel_entr

from beliefcomm import (
    Distribution,
    kl_divergence,
    mutual_information,
    total_variation,
)
from beliefcomm.errors import (
    AlphabetMismatchError,
    ConfigError,
    EnumerationCapError,
    NormalizationError,
    SupportViolationError,
)
from beliefcomm.spaces import (
    ConceptSpace,
    HypothesisSpace,
    ProblemInstance,
    _clean_probs,
    _clean_rows,
    _logsumexp_rows,
    _rel_entr,
    problem_instance_from_json,
    problem_instance_to_json,
)
from beliefcomm.worlds import random_instance, two_hypothesis_world
from conftest import clean_probs_reference, loss_in_range_reference


def test_distribution_accepts_small_drift():
    d = Distribution([0.5, 0.5 + 3e-10])
    assert abs(float(d.probs.sum()) - 1.0) < 1e-12


def test_distribution_rejects_large_drift():
    with pytest.raises(NormalizationError):
        Distribution([0.5, 0.6])


def test_distribution_rejects_negative_mass():
    with pytest.raises(NormalizationError):
        Distribution([1.2, -0.2])


def test_distribution_is_read_only():
    d = Distribution([0.25, 0.75])
    with pytest.raises(ValueError):
        d.probs[0] = 1.0


def test_support_and_constructors():
    assert list(Distribution([0.2, 0.0, 0.8]).probs) == [0.2, 0.0, 0.8]
    assert np.allclose(Distribution.uniform(4).probs, 0.25)
    assert list(Distribution(np.eye(3)[1]).probs) == [0.0, 1.0, 0.0]


def test_total_variation_basics():
    assert total_variation([1.0, 0.0], [0.0, 1.0]) == 1.0
    assert total_variation([0.5, 0.5], [0.5, 0.5]) == 0.0
    with pytest.raises(AlphabetMismatchError):
        total_variation([1.0], [0.5, 0.5])


def test_kl_hand_value():
    # 0.75*log2(1.5) + 0.25*log2(0.5)
    got = kl_divergence([0.75, 0.25], [0.5, 0.5])
    assert abs(got - 0.18872187554086714) < 1e-14


def test_kl_support_violation_raises():
    with pytest.raises(SupportViolationError):
        kl_divergence([0.5, 0.5], [1.0, 0.0])


def test_mutual_information_product_is_zero():
    joint = np.outer([0.3, 0.7], [0.6, 0.4])
    assert abs(mutual_information(joint)) < 1e-15


def test_mutual_information_is_never_negative():
    """Regression: independent factors used to come out at -3.8e-16 bits."""
    rng = np.random.default_rng(5)
    for _ in range(200):
        a, b = rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(3))
        assert mutual_information(np.outer(a, b)) >= 0.0


def test_mutual_information_perfect_correlation():
    joint = np.diag([0.5, 0.5])
    assert abs(mutual_information(joint) - 1.0) < 1e-15


def _one_concept(law):
    return ConceptSpace(
        concept_names=("c0",),
        sample_names=tuple(f"z{j}" for j in range(len(law))),
        prior=Distribution([1.0]),
        data_law=np.array([law]),
    )


def _instance(cs, m):
    """cs with one zero-loss hypothesis: the dataset alphabet is all there is."""
    loss = np.zeros((cs.n_concepts, 1, cs.n_symbols))
    return ProblemInstance(cs, HypothesisSpace(("h0",), loss), m)


def test_datasets_are_lexicographic():
    ds = _instance(_one_concept([0.2, 0.3, 0.5]), m=2).datasets
    assert ds.shape == (9, 2)
    assert tuple(ds[0]) == (0, 0)
    assert tuple(ds[2]) == (0, 2)
    assert tuple(ds[-1]) == (2, 2)


def test_dataset_alphabet_cap():
    cs = _one_concept([0.1] * 10)
    with pytest.raises(EnumerationCapError):
        _instance(cs, m=8)
    # refused before the loss tensor's sample axis (2, not 10) is checked
    with pytest.raises(EnumerationCapError):
        ProblemInstance(cs, HypothesisSpace(("h0",), np.zeros((1, 1, 2))), 8)


def test_dataset_product_law():
    inst = _instance(_one_concept([0.2, 0.3, 0.5]), m=2)
    (i,) = np.flatnonzero((inst.datasets == [0, 2]).all(axis=1))
    assert abs(inst.marginal.probs[i] - 0.10) < 1e-15
    assert abs(float(inst.marginal.probs.sum()) - 1.0) < 1e-12


def test_bayes_consistency_on_random_instances():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(11)))
    for _ in range(5):
        inst = random_instance(rng, n_concepts=3, n_symbols=2, n_hypotheses=2, m=2)
        lhs = inst.concepts.prior.probs[:, None] * inst.conditional
        rhs = (inst.p_s[:, None] * inst.posterior).T
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_true_loss_table_shape_and_range():
    w = two_hypothesis_world()
    assert w.true_loss_table.shape == (1, 2)
    assert w.true_loss_table.min() >= 0.0
    assert w.true_loss_table.max() <= w.hypotheses.l_max


def test_instance_json_round_trip():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(4)))
    inst = random_instance(rng, n_concepts=2, n_symbols=3, n_hypotheses=2, m=1)
    blob = json.loads(json.dumps(problem_instance_to_json(inst)))
    back = problem_instance_from_json(blob)
    np.testing.assert_allclose(back.p_s, inst.p_s, atol=1e-15)
    np.testing.assert_allclose(back.true_loss_table, inst.true_loss_table, atol=1e-15)
    np.testing.assert_array_equal(back.datasets, inst.datasets)


def test_readme_instance_example_loads():
    """The instance file shown in the README is one the loader accepts."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
    inst = problem_instance_from_json(json.loads(block))
    assert inst.hypotheses.loss.shape == (2, 2, 2)
    assert inst.n_datasets == 2


def test_instance_json_pointer_errors():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(4)))
    inst = random_instance(rng, n_concepts=2, n_symbols=2, n_hypotheses=2, m=1)
    blob = problem_instance_to_json(inst)
    bad = json.loads(json.dumps(blob))
    del bad["m"]
    with pytest.raises(ConfigError) as err:
        problem_instance_from_json(bad)
    assert "/m" in str(err.value)


# property tests: each whole-matrix fast path against the slow path it replaces

_SETTINGS = settings(derandomize=True, deadline=None, max_examples=200)


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


@_SETTINGS
@given(a=hnp.arrays(
    float, st.tuples(st.integers(1, 5), st.integers(1, 6)),
    elements=st.one_of(st.floats(-800.0, 800.0), st.just(-np.inf),
                       st.sampled_from([0.0, 1.0, -2.5]))),
    dead_row=st.booleans())
def test_logsumexp_rows_matches_scipy_bit_for_bit(a, dead_row):
    """Ties, -inf entries and all -inf rows give scipy's exact bits."""
    if dead_row:
        a[0] = -np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # scipy is silent on every one of these
        got = _logsumexp_rows(a)
    assert _bits(got) == _bits(logsumexp(a, axis=1))


def _assert_within_ulps(got, want, ulps):
    """Same zeros, infinities and nans; elsewhere at most ulps apart."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    for pattern in (np.isnan, np.isinf, lambda v: v == 0):
        assert np.array_equal(pattern(got), pattern(want))
    both = np.isfinite(want) & (want != 0)
    assert np.all(np.abs(got[both] - want[both])
                  <= ulps * np.spacing(np.abs(want[both])))


# zeros, subnormals (a ratio that underflows or overflows) and near-equal
# pairs (the log1p branch)
_NONNEG = st.one_of(
    st.floats(0.0, 1.0), st.floats(0.0, 1e3),
    st.sampled_from([0.0, 0.0, 5e-324, 1e-310, 2.2250738585072014e-308,
                     1e-300, 0.5, 1.0]))


@_SETTINGS
@given(x=hnp.arrays(float, st.integers(1, 30), elements=_NONNEG),
       data=st.data())
def test_rel_entr_matches_scipy_within_2_ulp(x, data):
    y = data.draw(hnp.arrays(float, x.shape, elements=_NONNEG))
    near = data.draw(hnp.arrays(float, x.shape,
                                elements=st.floats(0.45, 2.2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # scipy is silent here too
        got, got_near = _rel_entr(x, y), _rel_entr(x, x * near)
    _assert_within_ulps(got, rel_entr(x, y), 2)
    _assert_within_ulps(got_near, rel_entr(x, x * near), 2)


def _rows_one_by_one(values, what):
    """The per-row validation _clean_rows replaces."""
    r = np.asarray(values, dtype=float)
    return np.stack([_clean_probs(row, f"{what} {i}") for i, row in enumerate(r)])


@st.composite
def _probability_rows(draw):
    """Normalised rows, some drifted, rescaled, negative, NaN or infinite."""
    n, k = draw(st.integers(1, 5)), draw(st.integers(1, 9))
    raw = draw(hnp.arrays(float, (n, k), elements=st.sampled_from(
        [0.0, 0.1, 0.25, 1.0 / 3.0, 0.7, 1.0, 2.0])))
    raw[raw.sum(axis=1) == 0] = 1.0
    rows = raw / raw.sum(axis=1, keepdims=True)
    for i in range(n):
        kind = draw(st.sampled_from(["ok", "ok", "ok", "drift", "scale",
                                     "negative", "nan", "inf"]))
        j = draw(st.integers(0, k - 1))
        if kind == "drift":
            rows[i, j] += draw(st.floats(-9e-10, 9e-10))
        elif kind == "scale":
            rows[i] *= 1.1
        elif kind == "negative":
            rows[i, j] = -0.1
        elif kind == "nan":
            rows[i, j] = np.nan
        elif kind == "inf":
            rows[i, j] = np.inf
    return np.asfortranarray(rows) if draw(st.booleans()) else rows


@_SETTINGS
@given(rows=_probability_rows())
def test_clean_rows_matches_row_by_row(rows):
    """Same rows to the bit, or the same exception on the first bad row."""
    before = rows.copy()
    try:
        ref = _rows_one_by_one(rows, "row")
    except NormalizationError as e:
        with pytest.raises(NormalizationError) as got:
            _clean_rows(rows, "row")
        assert str(got.value) == str(e)
        return
    got = _clean_rows(rows, "row")
    assert got.shape == ref.shape and _bits(got) == _bits(ref)
    assert not np.shares_memory(got, rows)
    assert _bits(rows) == _bits(before)


@st.composite
def _probability_vectors(draw):
    """Normalised vectors, some drifted by about 1e-9, rescaled, negative,
    NaN, infinite, subnormal or overflowing their sum."""
    k = draw(st.integers(1, 9))
    raw = draw(hnp.arrays(float, k, elements=st.sampled_from(
        [0.0, 0.1, 0.25, 1.0 / 3.0, 0.7, 1.0, 2.0, 5e-324])))
    if raw.sum() == 0:
        raw[0] = 1.0
    p = raw / raw.sum()
    j = draw(st.integers(0, k - 1))
    kind = draw(st.sampled_from(["ok", "ok", "drift", "drift", "scale",
                                 "negative", "-0", "nan", "inf", "-inf",
                                 "overflow"]))
    if kind == "drift":
        p[j] += draw(st.sampled_from([-1.1e-9, -1e-9, -9e-10, 9e-10, 1e-9,
                                      1.1e-9]))
    elif kind == "scale":
        p *= 1.1
    elif kind == "negative":
        p[j] = -draw(st.sampled_from([0.1, 5e-324]))
    elif kind == "-0":
        p[p == 0] = -0.0
    elif kind in ("nan", "inf", "-inf"):
        p[j] = float(kind)
    elif kind == "overflow":
        p[:] = 1e308
    return p


@_SETTINGS
@given(p=_probability_vectors())
def test_clean_probs_matches_the_wrapper_checks(p):
    """One >= 0 and one sum accept and reject what the np.any / np.all
    checks did, with the same message, and return the same bits."""
    before = p.copy()
    with np.errstate(over="ignore"):
        try:
            ref = clean_probs_reference(p, "p")
        except NormalizationError as e:
            with pytest.raises(NormalizationError) as got:
                _clean_probs(p, "p")
            assert str(got.value) == str(e)
            return
        got = _clean_probs(p, "p")
    assert _bits(got) == _bits(ref) and not got.flags.writeable
    assert not np.shares_memory(got, p)
    assert _bits(p) == _bits(before)


@_SETTINGS
@given(loss=hnp.arrays(float, hnp.array_shapes(min_dims=3, max_dims=3,
                                                max_side=3),
                       elements=st.sampled_from(
                           [0.0, -0.0, 0.5, 1.0, 1.0 + 1e-12, 1.0 + 3e-12,
                            2.0, -5e-324, 5e-324, np.nan, np.inf, -np.inf])),
       l_max=st.sampled_from([1.0, 2.0, 0.5, 0.0, -1.0, 1e300]))
def test_loss_range_check_matches_the_wrapper_checks(loss, l_max):
    """HypothesisSpace accepts the loss tensors the np.any / np.all range
    check accepted, at any finite l_max, and keeps their bits."""
    names = tuple(f"h{i}" for i in range(loss.shape[1]))
    if loss_in_range_reference(loss, l_max):
        assert _bits(HypothesisSpace(names, loss, l_max).loss) == _bits(loss)
    else:
        with pytest.raises(NormalizationError, match="must lie in"):
            HypothesisSpace(names, loss, l_max)


@pytest.mark.parametrize("l_max", [np.nan, np.inf, -np.inf])
def test_hypothesis_space_refuses_a_non_finite_l_max(l_max):
    """A NaN l_max passed every loss before: no comparison with it holds."""
    with pytest.raises(NormalizationError, match="l_max must be finite"):
        HypothesisSpace(("h0",), np.zeros((1, 1, 1)), l_max)
    obj = problem_instance_to_json(two_hypothesis_world())
    obj["l_max"] = l_max
    with pytest.raises(ConfigError, match="^/l_max: must be finite"):
        problem_instance_from_json(obj)


def _alphabet_from_tuples(cs, m):
    """The dataset alphabet as DatasetSpace.build computed it before: tuples
    from itertools.product, the log-free product loop over their index
    array, and Bayes row by row, dividing by the raw marginal."""
    datasets = list(itertools.product(range(cs.n_symbols), repeat=m))
    idx = np.array(datasets, dtype=int)
    cond = np.ones((cs.n_concepts, len(datasets)))
    for j in range(m):
        cond *= cs.data_law[:, idx[:, j]]
    prior = cs.prior.probs
    marg = prior @ cond
    post = np.empty((len(datasets), prior.size))
    for s in range(len(datasets)):
        if marg[s] > 0:
            post[s] = prior * cond[:, s] / marg[s]
        else:
            post[s] = prior
    return idx, cond, Distribution(marg).probs, post


_WEIGHTS = st.sampled_from([0.0, 0.0, 0.2, 0.5, 1.0, 3.0])


@_SETTINGS
@given(n_c=st.integers(1, 3), n_z=st.integers(1, 4), m=st.integers(1, 4),
       data=st.data())
def test_dataset_posterior_matches_row_by_row(n_c, n_z, m, data):
    """The instance's index array and laws equal the tuple build's to the
    bit, broadcast Bayes rows against the loop's, zero-mass datasets too;
    every derived array is read-only."""
    prior = data.draw(hnp.arrays(float, n_c, elements=_WEIGHTS))
    law = data.draw(hnp.arrays(float, (n_c, n_z), elements=_WEIGHTS))
    prior = prior + (prior.sum() == 0)
    law[law.sum(axis=1) == 0] = 1.0
    cs = ConceptSpace(
        concept_names=tuple(f"c{i}" for i in range(n_c)),
        sample_names=tuple(f"z{j}" for j in range(n_z)),
        prior=Distribution(prior / prior.sum()),
        data_law=law / law.sum(axis=1, keepdims=True),
    )
    inst = _instance(cs, m)
    idx, cond, marg, post = _alphabet_from_tuples(cs, m)
    assert inst.datasets.shape == idx.shape and inst.datasets.dtype == idx.dtype
    assert _bits(inst.datasets) == _bits(idx)
    assert _bits(inst.conditional) == _bits(cond)
    assert _bits(inst.marginal.probs) == _bits(marg)
    assert _bits(inst.posterior) == _bits(post)
    for a in (inst.datasets, inst.conditional, inst.marginal.probs,
              inst.posterior, inst.true_loss_table):
        assert not a.flags.writeable


def test_zero_mass_datasets_get_the_prior():
    cs = ConceptSpace(
        concept_names=("c0", "c1"),
        sample_names=("z0", "z1"),
        prior=Distribution([1.0, 0.0]),
        data_law=np.array([[1.0, 0.0], [0.5, 0.5]]),
    )
    inst = _instance(cs, m=1)
    assert inst.marginal.probs[1] == 0.0
    np.testing.assert_array_equal(inst.posterior[1], [1.0, 0.0])
