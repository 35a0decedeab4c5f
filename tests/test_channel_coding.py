"""Channel simulation: shared randomness, the coder, and its output law."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beliefcomm import (
    CodeRecord,
    CommonRandomness,
    Distribution,
    GENERATOR_ID,
    LearningRule,
    candidate_count,
    code_sequence,
    decode_mrc,
    encode_mrc,
    fit,
    induced_distribution_exact,
    kl_divergence,
    mrc_enumeration_oracle,
    single_shot_bounds,
    two_hypothesis_world,
)
from beliefcomm.channel_coding import (
    _CHUNK,
    _DOMAIN_CANDIDATES,
    _DOMAIN_DATA,
    _DOMAIN_SELECTION,
    _as_paths,
    decode_batch,
    encode_batch,
    inverse_cdf_sample,
)
from beliefcomm.errors import EnumerationCapError


def test_streams_are_reproducible_across_instances():
    """Same seed and path must give byte-identical draws, even on a fresh object."""
    a = CommonRandomness(42).candidate_stream(1, 2).random(16)
    b = CommonRandomness(42).candidate_stream(1, 2).random(16)
    np.testing.assert_array_equal(a, b)


def test_streams_differ_across_domains_and_paths():
    cr = CommonRandomness(42)
    u_cand = cr.candidate_stream(0).random(8)
    u_sel = cr.selection_stream(0).random(8)
    u_other = cr.candidate_stream(1).random(8)
    assert not np.array_equal(u_cand, u_sel)
    assert not np.array_equal(u_cand, u_other)


def test_unknown_generator_id_is_rejected():
    with pytest.raises(ValueError):
        CommonRandomness(0, generator_id="mt19937/whatever")
    assert CommonRandomness(0).generator_id == GENERATOR_ID


def test_inverse_cdf_sample_cell_boundaries():
    probs = np.array([0.2, 0.5, 0.3])
    u = np.array([0.0, 0.1999, 0.2, 0.6999, 0.7, 0.9999, 1.0])
    idx = inverse_cdf_sample(probs, u)
    np.testing.assert_array_equal(idx, [0, 0, 1, 1, 2, 2, 2])


def test_encode_decode_round_trip():
    q = Distribution([0.9, 0.1])
    p = Distribution([0.5, 0.5])
    cr = CommonRandomness(7)
    rec = encode_mrc(q, p, cr, 8, stream=(0, 3))
    out = decode_mrc(rec, p, cr, stream=(0, 3))
    assert out == rec.sample
    # a bare index decodes the same way if the count is supplied
    out2 = decode_mrc(rec.index, p, cr, n_candidates=8, stream=(0, 3))
    assert out2 == rec.sample


def test_decode_rejects_mismatched_candidate_count():
    q = Distribution([0.9, 0.1])
    p = Distribution([0.5, 0.5])
    cr = CommonRandomness(7)
    rec = encode_mrc(q, p, cr, 8, stream=(0,))
    with pytest.raises(ValueError, match="does not match"):
        decode_mrc(rec, p, cr, n_candidates=16, stream=(0,))
    with pytest.raises(ValueError):
        decode_mrc(3, p, cr, stream=(0,))  # bare index, no count


def test_code_record_validates_index_range():
    with pytest.raises(ValueError):
        CodeRecord(index=5, index_bits=2.0, sample=0, target_kl=0.0,
                   n_candidates=4)


def test_induced_law_matches_tuple_recursion_oracle():
    """Composition-collapsed sum against the ordered-tuple recursion."""
    q = Distribution([0.9, 0.1])
    p = Distribution([0.5, 0.5])
    ex = induced_distribution_exact(q, p, 4)
    orc = mrc_enumeration_oracle(q, p, 4)
    assert np.abs(ex.probs - orc.probs).max() < 1e-12

    q3 = Distribution([0.5, 0.3, 0.2])
    p3 = Distribution([0.6, 0.2, 0.2])
    ex3 = induced_distribution_exact(q3, p3, 3)
    orc3 = mrc_enumeration_oracle(q3, p3, 3)
    assert np.abs(ex3.probs - orc3.probs).max() < 1e-12


def test_induced_law_degenerate_target_hand_value():
    # q puts everything on h0; both candidates miss it with prob 1/4,
    # and the uniform fallback then emits h1 for sure.
    q = Distribution([1.0, 0.0])
    p = Distribution([0.5, 0.5])
    ex = induced_distribution_exact(q, p, 2)
    np.testing.assert_allclose(ex.probs, [0.75, 0.25], atol=1e-15)


def test_induced_law_respects_cap():
    q = Distribution([0.9, 0.1])
    p = Distribution([0.5, 0.5])
    with pytest.raises(EnumerationCapError):
        induced_distribution_exact(q, p, 25, cap=10**6)


def test_encoder_frequencies_track_exact_law():
    """Monte Carlo over disjoint streams should land near the enumerated law."""
    q = Distribution([0.9, 0.1])
    p = Distribution([0.5, 0.5])
    k = candidate_count(kl_divergence(q, p), slack=2.0)
    cr = CommonRandomness(7)
    counts = np.zeros(2)
    trials = 4000
    for t in range(trials):
        counts[encode_mrc(q, p, cr, k, stream=(t,)).sample] += 1
    emp = counts / trials
    ex = induced_distribution_exact(q, p, k)
    assert 0.5 * np.abs(emp - ex.probs).sum() < 0.03


def test_encoder_flags_fallback_on_dead_candidates():
    q = Distribution([1.0, 0.0])
    p = Distribution([0.5, 0.5])
    cr = CommonRandomness(3)
    flags = [encode_mrc(q, p, cr, 1, stream=(t,)).fallback for t in range(60)]
    assert any(flags)
    assert not all(flags)


def test_single_shot_bounds_hand_values():
    b = single_shot_bounds(3.0)
    assert (b.kl_bits, b.harsha_bits, b.theis_bits) == (3.0, 7.0, 9.0)
    b7 = single_shot_bounds(7.0)
    assert (b7.kl_bits, b7.harsha_bits, b7.theis_bits) == (7.0, 13.0, 14.0)
    assert single_shot_bounds(3.0, c_harsha=1.5).harsha_bits == 8.5
    with pytest.raises(ValueError):
        single_shot_bounds(-0.1)


def test_candidate_count_values_and_cap():
    assert candidate_count(0.0, slack=0.0) == 1
    assert candidate_count(0.0, slack=-3.0) == 1
    assert candidate_count(0.18872187554086714, slack=4.0) == 19
    with pytest.raises(EnumerationCapError):
        candidate_count(30.0)


def test_code_sequence_per_symbol_accounting():
    inst = two_hypothesis_world()
    post = fit(LearningRule.gibbs(1.0), inst)
    prior = Distribution(post.marginal.probs)
    cr = CommonRandomness(5)
    seq = [0, 1, 0, 1]
    coded = code_sequence(post, prior, seq, cr, slack=3.0)
    assert coded.mode == "per_symbol"
    assert len(coded.records) == len(seq)
    assert len(coded.reconstruction) == len(seq)
    assert coded.total_bits == pytest.approx(
        sum(r.index_bits for r in coded.records)
    )
    for i, rec in enumerate(coded.records):
        kl = kl_divergence(Distribution(post.rows[seq[i]]), prior)
        assert rec.n_candidates == candidate_count(kl, slack=3.0)
        assert 0 <= coded.reconstruction[i] < inst.n_hypotheses


def test_block_of_one_matches_per_symbol_coding():
    """A length-1 block uses the same stream path, so it must coincide exactly."""
    inst = two_hypothesis_world()
    post = fit(LearningRule.gibbs(1.0), inst)
    prior = Distribution(post.marginal.probs)
    a = code_sequence(post, prior, [1], CommonRandomness(11),
                      mode="per_symbol", slack=3.0, trial=5)
    b = code_sequence(post, prior, [1], CommonRandomness(11),
                      mode="block", slack=3.0, trial=5)
    assert a.records[0].index == b.records[0].index
    assert a.total_bits == b.total_bits
    np.testing.assert_array_equal(a.reconstruction, b.reconstruction)


def test_block_mode_bits_and_cap():
    inst = two_hypothesis_world()
    post = fit(LearningRule.gibbs(1.0), inst)
    prior = Distribution([0.7, 0.3])
    seq = [0, 1, 1]
    kls = [kl_divergence(Distribution(post.rows[s]), prior) for s in seq]
    expect_k = max(math.ceil(2.0 ** (sum(kls) + 2.0)), 1)
    coded = code_sequence(post, prior, seq, CommonRandomness(9),
                          mode="block", slack=2.0)
    assert len(coded.records) == 1
    assert coded.total_bits == pytest.approx(math.log2(expect_k))
    assert coded.reconstruction.shape == (3,)
    with pytest.raises(EnumerationCapError):
        code_sequence(post, prior, seq, CommonRandomness(9),
                      mode="block", slack=2.0, block_cap=2)
    with pytest.raises(ValueError):
        code_sequence(post, prior, seq, CommonRandomness(9), mode="typical")


def test_tally_counts_every_draw():
    # K candidate doubles plus one selection double, 64 bits each
    cr = CommonRandomness(0)
    encode_mrc(Distribution([0.9, 0.1]), Distribution([0.5, 0.5]), cr, 4,
               stream=(0,))
    assert cr.bits_consumed == 64 * 5


def test_seed_outside_64_bit_range_is_rejected():
    for seed in (-1, 2**64):
        with pytest.raises(ValueError):
            CommonRandomness(seed)
    assert CommonRandomness(2**64 - 1).seed == 2**64 - 1


def test_stream_paths_are_validated():
    for bad in ([(-1,)], [(2**64,)], [(1.5,)], [(1, 2, 3, 4)], [(1, 2), (3,)]):
        with pytest.raises(ValueError):
            _as_paths(bad)
    with pytest.raises(ValueError):
        CommonRandomness(0).candidate_stream(1, 2, 3, 4)


# property tests: each batched fast path against the slow path it replaces

_SETTINGS = settings(derandomize=True, deadline=None, max_examples=60)
_WORD = st.integers(0, 2**64 - 1)
_DOMAINS = st.sampled_from([_DOMAIN_CANDIDATES, _DOMAIN_SELECTION, _DOMAIN_DATA])


def _contract_stream(seed, domain, path):
    """Stream (domain, path) of the v2 contract, built from its definition."""
    key = np.array([seed, domain | len(path) << 32], dtype=np.uint64)
    counter = np.array([0, *path] + [0] * (3 - len(path)), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def test_stream_accessors_follow_the_contract():
    cr = CommonRandomness(2**64 - 2)
    for domain, stream in ((_DOMAIN_CANDIDATES, cr.candidate_stream),
                           (_DOMAIN_SELECTION, cr.selection_stream),
                           (_DOMAIN_DATA, cr.data_stream)):
        for path in ((), (3,), (2**64 - 1, 0), (1, 2**63, 7)):
            np.testing.assert_array_equal(
                stream(*path).random(9),
                _contract_stream(cr.seed, domain, path).random(9))


@_SETTINGS
@given(seed=_WORD, domain=_DOMAINS,
       paths=st.integers(1, 3).flatmap(
           lambda width: st.lists(st.tuples(*[_WORD] * width),
                                  min_size=1, max_size=3)),
       n=st.integers(1, 5000))
def test_kernel_uniforms_match_keyed_philox(seed, domain, paths, n):
    """Kernel blocks equal the keyed np.random.Philox stream, draw for draw."""
    cr = CommonRandomness(seed)
    got = cr._uniforms(domain, _as_paths(paths), n)
    for row, path in zip(got, paths):
        ref = _contract_stream(seed, domain, path).random(n)
        np.testing.assert_array_equal(row, ref)
    j = np.array([[0, n - 1, n // 3]] * len(paths))
    at = cr._uniforms_at(domain, _as_paths(paths), j)
    np.testing.assert_array_equal(at, got[:, [0, n - 1, n // 3]])


def test_kernel_uniforms_across_chunk_boundaries():
    """Batches and single streams longer than one kernel chunk stay exact."""
    cr = CommonRandomness(2**63 + 5)
    paths = [(t, 2**64 - 1 - t) for t in range(20)]
    n = 4001  # 20 rows x 4001 draws span two chunks, and 4001 % 4 != 0
    got = cr._uniforms(_DOMAIN_CANDIDATES, _as_paths(paths), n)
    for row, path in zip(got, paths):
        np.testing.assert_array_equal(
            row, _contract_stream(cr.seed, _DOMAIN_CANDIDATES, path).random(n))
    long = cr._uniforms(_DOMAIN_DATA, _as_paths([(7,)]), _CHUNK + 3)[0]
    np.testing.assert_array_equal(
        long, _contract_stream(cr.seed, _DOMAIN_DATA, (7,)).random(_CHUNK + 3))


@st.composite
def _coding_batches(draw):
    """Prior, targets (absolutely continuous, often with dead cells), K, paths."""
    n_h = draw(st.integers(2, 4))
    p = np.array(draw(st.lists(st.integers(0, 6), min_size=n_h, max_size=n_h)),
                 dtype=float)
    if p.sum() == 0:
        p[0] = 1.0
    n_rows = draw(st.integers(1, 12))
    q_rows, ks = [], []
    for _ in range(n_rows):
        w = np.array(draw(st.lists(st.integers(0, 6), min_size=n_h,
                                   max_size=n_h)), dtype=float) * (p > 0)
        if w.sum() == 0:
            w[np.argmax(p)] = 1.0
        q_rows.append(w / w.sum())
        ks.append(draw(st.sampled_from([1, 1, 2, 3, 7, 16, 33])))
    paths = [(t, draw(st.integers(0, 2**64 - 1))) for t in range(n_rows)]
    return Distribution(p / p.sum()), np.array(q_rows), ks, paths


@_SETTINGS
@given(seed=_WORD, case=_coding_batches())
def test_batch_coder_matches_row_by_row(seed, case):
    """encode_batch / decode_batch agree with batch-of-one coding per row,
    a fresh decoder recovers every sample, and the tallies add up."""
    p, q_rows, ks, paths = case
    cr = CommonRandomness(seed)
    enc = encode_batch(q_rows, p, ks, cr, paths)
    dec = decode_batch(enc.index, p, ks, CommonRandomness(seed), paths)
    np.testing.assert_array_equal(dec, enc.sample)
    dec_same = decode_batch(enc.index, p, ks, cr, paths)
    np.testing.assert_array_equal(dec_same, enc.sample)
    one_by_one = 0
    for b, (q, k, path) in enumerate(zip(q_rows, ks, paths)):
        single = CommonRandomness(seed)
        rec = encode_mrc(Distribution(q), p, single, k, stream=path)
        assert (rec.index, rec.sample, rec.fallback, rec.n_candidates) == \
            (enc.index[b], enc.sample[b], enc.fallback[b], enc.n_candidates[b])
        assert decode_mrc(rec, p, single, stream=path) == dec[b]
        one_by_one += single.bits_consumed
    assert cr.bits_consumed == one_by_one


def test_batch_coder_fallback_rows_match_row_by_row():
    """All-zero-weight rows fall back to the same uniform index either way."""
    q = np.array([1.0, 0.0])
    p = Distribution([0.5, 0.5])
    paths = [(t, 3) for t in range(64)]
    enc = encode_batch(np.tile(q, (64, 1)), p, [1] * 64, CommonRandomness(3),
                       paths)
    assert enc.fallback.any() and not enc.fallback.all()
    for b, path in enumerate(paths):
        rec = encode_mrc(Distribution(q), p, CommonRandomness(3), 1,
                         stream=path)
        assert (rec.index, rec.sample, rec.fallback) == \
            (enc.index[b], enc.sample[b], enc.fallback[b])


def test_batch_coder_across_chunks_matches_row_by_row():
    """Rows of mixed K, spread over several encoder chunks, code as alone."""
    p = Distribution([0.5, 0.3, 0.2])
    q_rows = np.array([[0.1, 0.1, 0.8], [0.6, 0.4, 0.0], [0.0, 0.0, 1.0]])
    n_rows = 2500
    ks = np.array([1, 5, 40, 200])[np.arange(n_rows) % 4]
    assert (ks.max() * n_rows) > 2 * _CHUNK
    targets = q_rows[np.arange(n_rows) % 3]
    paths = [(9, b) for b in range(n_rows)]
    enc = encode_batch(targets, p, ks, CommonRandomness(21), paths)
    for b in range(0, n_rows, 47):
        rec = encode_mrc(Distribution(targets[b]), p, CommonRandomness(21),
                         int(ks[b]), stream=paths[b])
        assert (rec.index, rec.sample, rec.fallback) == \
            (enc.index[b], enc.sample[b], enc.fallback[b])
