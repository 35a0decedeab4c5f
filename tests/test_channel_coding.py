"""Channel simulation: shared randomness, the coder, and its output law."""

import hashlib
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from beliefcomm import (
    CodeRecord,
    CommonRandomness,
    Distribution,
    LearningRule,
    candidate_count,
    code_sequence,
    decode_mrc,
    encode_mrc,
    fit,
    induced_distribution_exact,
    kl_divergence,
    mrc_enumeration_oracle,
    total_variation,
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
from beliefcomm.errors import EnumerationCapError, SupportViolationError


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


def test_inverse_cdf_sample_cell_boundaries():
    probs = np.array([0.2, 0.5, 0.3])
    u = np.array([0.0, 0.1999, 0.2, 0.6999, 0.7, 0.9999, 1.0])
    idx = inverse_cdf_sample(probs, u)
    np.testing.assert_array_equal(idx, [0, 0, 1, 1, 2, 2, 2])


def test_inverse_cdf_sample_never_returns_a_zero_mass_tail():
    """Regression: ten masses of 0.1 sum to 1 - 2^-53 in floating point, so
    the largest uniform a stream yields, 1 - 2^-53, fell past the CDF and was
    sent to the last index, whose mass is zero."""
    probs = np.array([0.1] * 10 + [0.0])
    u = np.array([0.0, 0.35, 0.95, np.cumsum(probs)[-1], 1.0 - 2.0**-53])
    np.testing.assert_array_equal(inverse_cdf_sample(probs, u),
                                  [0, 3, 9, 9, 9])


def test_coder_support_check_rejects_a_target_off_the_prior_support():
    """The batch coder, and encode_mrc through it, refuse a target with mass
    where the prior has none."""
    q = Distribution([0.5, 0.5])
    p = Distribution([1.0, 0.0])
    with pytest.raises(SupportViolationError):
        encode_mrc(q, p, CommonRandomness(0), 4)
    with pytest.raises(SupportViolationError):
        encode_batch(np.array([[1.0, 0.0], [0.5, 0.5]]), p, [4, 4],
                     CommonRandomness(0), [[0], [1]])


def test_encode_decode_round_trip():
    q = Distribution([0.9, 0.1])
    p = Distribution([0.5, 0.5])
    cr = CommonRandomness(7)
    rec = encode_mrc(q, p, cr, 8, stream=(0, 3))
    out = decode_mrc(rec, p, cr, stream=(0, 3))
    assert out == rec.sample


def test_code_record_validates_index_range():
    with pytest.raises(ValueError):
        CodeRecord(index=5, index_bits=2.0, sample=0, n_candidates=4)


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


def _two_outcome_law(q, p, k):
    """The coder's law on two outcomes as a sum over the count c of candidates
    showing outcome 0. Each binomial weight C(K, c) p0^c p1^(K-c) is formed
    in 40-digit decimal arithmetic from the exact doubles, rounded once to a
    double, and the terms are summed by fsum."""
    r = [qh / ph if ph > 0 else 0.0 for qh, ph in zip(q.probs, p.probs)]
    terms = []
    with localcontext() as ctx:
        ctx.prec = 40
        p0, p1 = (Decimal(x) for x in p.probs.tolist())
        for c in range(k + 1):
            w = float(math.comb(k, c) * p0**c * p1**(k - c))
            pool = c * r[0] + (k - c) * r[1]
            terms.append(w * (c * r[0] / pool if pool > 0 else c / k))
    p0 = math.fsum(terms)
    return np.array([p0, 1.0 - p0])


@pytest.mark.parametrize("q, p", [
    ([0.9, 0.1], [0.5, 0.5]),
    ([0.02, 0.98], [0.7, 0.3]),
    ([1.0, 0.0], [0.999, 0.001]),
    ([0.0, 1.0], [0.999, 0.001]),
])
@pytest.mark.parametrize("k", [2, 25, 256, 2000])
def test_induced_law_at_large_k_matches_binomial_sum(q, p, k):
    """The integral law has no cap: K = 25 is past the 10^6 tuples the old
    composition sum took, and K = 2000 far past it."""
    q, p = Distribution(q), Distribution(p)
    ex = induced_distribution_exact(q, p, k)
    np.testing.assert_allclose(ex.probs, _two_outcome_law(q, p, k),
                               rtol=0, atol=1e-13)


def _sparse_law(n):
    """A probability vector of length n that often has zero entries."""
    return st.lists(st.one_of(st.just(0.0), st.floats(0.01, 1.0)),
                    min_size=n, max_size=n).filter(lambda v: sum(v) > 0)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.integers(2, 4).flatmap(
    lambda n: st.tuples(_sparse_law(n), _sparse_law(n),
                        st.integers(1, {2: 10, 3: 6, 4: 5}[n]))))
def test_induced_law_matches_tuple_oracle_property(case):
    """The integral law against the ordered-tuple recursion, zero entries in
    p and q included: a zero of q where p has mass is a zero-weight outcome,
    so its K candidates can all miss and fall back."""
    q_raw, p_raw, k = case
    p = Distribution(np.array(p_raw) / sum(p_raw))
    q_raw = [x if y > 0 else 0.0 for x, y in zip(q_raw, p_raw)]
    assume(sum(q_raw) > 0)
    q = Distribution(np.array(q_raw) / sum(q_raw))
    ex = induced_distribution_exact(q, p, k)
    assert total_variation(ex, mrc_enumeration_oracle(q, p, k)) <= 1e-12


def test_induced_law_refuses_a_target_off_the_prior_support():
    with pytest.raises(SupportViolationError):
        induced_distribution_exact(Distribution([0.5, 0.5]),
                                   Distribution([1.0, 0.0]), 4)


def test_encoder_frequencies_track_exact_law():
    """Monte Carlo over disjoint streams should land near the enumerated law."""
    q = Distribution([0.9, 0.1])
    p = Distribution([0.5, 0.5])
    k = candidate_count(kl_divergence(q, p), slack=2.0)
    cr = CommonRandomness(7)
    trials = 4000
    batch = encode_batch(np.tile(q.probs, (trials, 1)), p, [k] * trials, cr,
                         np.arange(trials)[:, None])
    emp = np.bincount(batch.sample, minlength=2) / trials
    ex = induced_distribution_exact(q, p, k)
    assert 0.5 * np.abs(emp - ex.probs).sum() < 0.03


def test_encoder_flags_fallback_on_dead_candidates():
    q = Distribution([1.0, 0.0])
    p = Distribution([0.5, 0.5])
    cr = CommonRandomness(3)
    flags = [encode_mrc(q, p, cr, 1, stream=(t,)).fallback for t in range(60)]
    assert any(flags)
    assert not all(flags)


def test_candidate_count_values_and_cap():
    assert candidate_count(0.0, slack=0.0) == 1
    assert candidate_count(0.0, slack=-3.0) == 1
    assert candidate_count(0.18872187554086714, slack=4.0) == 19
    with pytest.raises(EnumerationCapError):
        candidate_count(30.0)
    # 2^(kl + slack) past the float range is over the cap, not an overflow
    with pytest.raises(EnumerationCapError, match="exceeds cap 4194304"):
        candidate_count(0.5, slack=1e6)


def test_code_sequence_per_symbol_accounting():
    inst = two_hypothesis_world()
    post = fit(LearningRule.gibbs(1.0), inst)
    prior = Distribution(post.marginal.probs)
    cr = CommonRandomness(5)
    seq = [0, 1, 0, 1]
    coded = code_sequence(post, prior, seq, cr, slack=3.0)
    assert len(coded.records) == len(seq)
    assert len(coded.reconstruction) == len(seq)
    for rec in coded.records:
        assert rec.index_bits == pytest.approx(math.log2(rec.n_candidates))
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
    assert a.records[0].index_bits == b.records[0].index_bits
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
    assert coded.records[0].index_bits == pytest.approx(math.log2(expect_k))
    assert coded.reconstruction.shape == (3,)
    # the block cap is 2^16 candidates, so 16 bits of slack reach it
    with pytest.raises(EnumerationCapError, match="exceeds cap 65536"):
        code_sequence(post, prior, seq, CommonRandomness(9),
                      mode="block", slack=16.0)
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
    cols = [0, n - 1, n // 3]
    at = cr._uniforms_at(domain, np.repeat(_as_paths(paths), 3, axis=0),
                         np.tile(cols, len(paths)))
    np.testing.assert_array_equal(at, got[:, cols].ravel())


def test_kernel_uniforms_across_chunk_boundaries():
    """Batches and single streams longer than one kernel pass stay exact."""
    cr = CommonRandomness(2**63 + 5)
    paths = [(t, 2**64 - 1 - t) for t in range(20)]
    n = 4001  # 20 rows x 1001 blocks span three passes, and 4001 % 4 != 0
    assert 20 * 1001 > 2 * _CHUNK
    got = cr._uniforms(_DOMAIN_CANDIDATES, _as_paths(paths), n)
    for row, path in zip(got, paths):
        np.testing.assert_array_equal(
            row, _contract_stream(cr.seed, _DOMAIN_CANDIDATES, path).random(n))
    # one stream of _CHUNK + 2 blocks crosses a pass boundary on its own
    n = 4 * _CHUNK + 5
    long = cr._uniforms(_DOMAIN_DATA, _as_paths([(7,)]), n)[0]
    np.testing.assert_array_equal(
        long, _contract_stream(cr.seed, _DOMAIN_DATA, (7,)).random(n))


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


def _tuple_reference(targets, p, k, seed, path):
    """One row of the tuple coder, from the per-stream accessors: the chosen
    index and tuple among K tuples drawn row-major from the candidate stream."""
    cr = CommonRandomness(seed)
    w = len(targets)
    cands = inverse_cdf_sample(
        p.probs, cr.candidate_stream(*path).random(k * w)).reshape(k, w)
    weights = np.prod(targets[np.arange(w), cands], axis=1) \
        / np.prod(p.probs[cands], axis=1)
    cum = np.cumsum(weights)
    u = cr.selection_stream(*path).random()
    idx = int(u * k) if cum[-1] == 0 else int(np.count_nonzero(cum <= u * cum[-1]))
    idx = min(idx, k - 1)
    return idx, cands[idx]


@_SETTINGS
@given(seed=_WORD, case=_coding_batches(), width=st.integers(2, 4))
def test_batch_coder_matches_row_by_row(seed, case, width):
    """encode_batch / decode_batch agree with batch-of-one coding per row,
    a fresh decoder recovers every sample, and the tallies add up; tuple
    targets of width 1 code as plain rows, and wider tuples match a
    row-at-a-time reference and decode symbol by symbol."""
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

    ones = encode_batch(q_rows[:, None, :], p, ks, CommonRandomness(seed), paths)
    np.testing.assert_array_equal(ones.index, enc.index)
    np.testing.assert_array_equal(ones.sample, enc.sample[:, None])
    np.testing.assert_array_equal(ones.fallback, enc.fallback)
    np.testing.assert_array_equal(ones.n_candidates, enc.n_candidates)

    # position j of tuple b targets row (b + j) mod B
    n_rows = len(q_rows)
    targets = q_rows[(np.arange(n_rows)[:, None] + np.arange(width)) % n_rows]
    cr_w, fresh = CommonRandomness(seed), CommonRandomness(seed)
    tup = encode_batch(targets, p, ks, cr_w, paths)
    assert tup.sample.shape == (n_rows, width)
    for b, (k, path) in enumerate(zip(ks, paths)):
        idx, sample = _tuple_reference(targets[b], p, k, seed, path)
        assert tup.index[b] == idx
        np.testing.assert_array_equal(tup.sample[b], sample)
        symbols = decode_batch(tup.index[b] * width + np.arange(width), p,
                               [k * width] * width, fresh, [path] * width)
        np.testing.assert_array_equal(symbols, tup.sample[b])
    assert cr_w.bits_consumed == 64 * (sum(ks) * width + n_rows)
    assert fresh.bits_consumed == 64 * width * n_rows


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


def _sha256(*arrays):
    """SHA-256 of the little-endian bytes of integer, bool and float arrays."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        kind = {"i": "<i8", "b": "|b1", "f": "<f8"}[a.dtype.kind]
        h.update(np.ascontiguousarray(a, dtype=kind).tobytes())
    return h.hexdigest()


def _pinned_streams():
    """Coder and data-sampler outputs at a fixed seed and fixed paths.

    K runs 1..200, one row each, per symbol and for width-3 tuples, over a
    prior with a zero-mass cell and targets with dead cells, so some rows fall
    back; the batches span several kernel passes.
    """
    seed = 2**63 + 11
    p = Distribution([0.45, 0.0, 0.3, 0.25])
    rows = np.array([[0.7, 0.0, 0.3, 0.0], [0.0, 0.0, 0.0, 1.0],
                     [0.25, 0.0, 0.5, 0.25], [1.0, 0.0, 0.0, 0.0],
                     [0.45, 0.0, 0.3, 0.25]])
    ks = np.arange(1, 201)
    paths = [(t, 2**64 - 1 - 3 * t) for t in range(200)]
    cr = CommonRandomness(seed)
    out = {}
    sym = encode_batch(rows[ks % 5], p, ks, cr, paths)
    out["symbol"] = (sym.index, sym.sample, sym.fallback)
    out["symbol_decoded"] = (decode_batch(sym.index, p, ks, cr, paths),)
    tup_rows = rows[(ks[:, None] + np.arange(3)) % 5]
    tup = encode_batch(tup_rows, p, ks, cr, [(7, t) for t in range(200)])
    out["tuple"] = (tup.index, tup.sample, tup.fallback)
    out["tuple_decoded"] = (decode_batch(
        (tup.index[:, None] * 3 + np.arange(3)).ravel(), p, np.repeat(ks * 3, 3),
        cr, np.repeat(np.array([(7, t) for t in range(200)], dtype=np.uint64),
                      3, axis=0)),)
    out["data"] = (cr.data_uniforms([(5,), (2**64 - 1,), (0,)], 32773),)
    return out, cr.bits_consumed


_PINNED_DIGESTS = {
    "symbol": "11ed50e4f2a4fc331a6192191c1e921d7e504ea334c96f2f35bc6e783d53cf39",
    "symbol_decoded":
        "129c2444271f254db2e7cf309bb8086903556092b1446dcd26d6da23be4d3ba2",
    "tuple": "15a63c67d55283d6031efb57f71e8e360c3ccc49a6513deb06834c9b825ea37d",
    "tuple_decoded":
        "fe6ca00cef58a25b4dd6ced70b655f3ece69199aac300755052fb1aa9f759b79",
    "data": "d88c63a85d95414c64da669b9e83807ea9ec5f077f7c913889a3c37e595ac086",
}


def test_stream_outputs_match_pinned_digests():
    """The v2 stream contract end to end: encoder, decoder and data draws
    hash to fixed digests, so a kernel or batching change that moves any
    drawn bit fails here. The hashed values are integers, flags and dyadic
    doubles, so the digests hold on any platform."""
    out, bits = _pinned_streams()
    got = {name: _sha256(*arrays) for name, arrays in out.items()}
    assert got == _PINNED_DIGESTS
    # K per symbol, 3K per tuple, one selection draw per row, one draw per
    # decoded symbol, and the data draws
    assert bits == 64 * (4 * 20100 + 2 * 200 + 200 + 600 + 3 * 32773)


@st.composite
def _fused_batches(draw):
    """Width, prior, targets, K and paths of a batch whose selection and
    candidate blocks fill at least three kernel passes: small rows (K = 1
    among them, K*w often not a multiple of 4) around two rows of about one
    pass each, so pass boundaries fall at varying places among the rows."""
    w = draw(st.integers(1, 3))
    n_h = draw(st.integers(2, 4))
    p = np.array(draw(st.lists(st.integers(0, 5), min_size=n_h, max_size=n_h)),
                 dtype=float)
    p[draw(st.integers(0, n_h - 1))] += 1.0
    ks = draw(st.lists(st.sampled_from([1, 1, 2, 3, 5, 6, 9, 31]),
                       min_size=2, max_size=30))
    for _ in range(2):
        big = draw(st.integers(4 * _CHUNK, 4 * _CHUNK + 40)) // w
        ks.insert(draw(st.integers(0, len(ks))), big)
    targets = []
    for _ in ks:
        rows = np.array(draw(st.lists(st.lists(st.integers(0, 4), min_size=n_h,
                                               max_size=n_h),
                                      min_size=w, max_size=w)),
                        dtype=float) * (p > 0)
        rows[rows.sum(axis=1) == 0, np.argmax(p)] = 1.0
        targets.append(rows / rows.sum(axis=1, keepdims=True))
    paths = [(draw(_WORD), t) for t in range(len(ks))]
    return w, Distribution(p / p.sum()), np.array(targets), ks, paths


@settings(derandomize=True, deadline=None, max_examples=20)
@given(seed=_WORD, case=_fused_batches())
def test_fused_encoder_pass_matches_the_contract(seed, case):
    """The encoder's one kernel call over selection and candidate blocks
    returns each stream's uniforms draw for draw across pass boundaries,
    and every row codes and decodes as it does alone."""
    w, p, targets, ks, paths = case
    ks = np.array(ks)
    n_blocks = len(ks) + int((-(-ks * w // 4)).sum())
    assert n_blocks > 2 * _CHUNK
    u_sel, u_cand, start = CommonRandomness(seed)._encoder_uniforms(
        _as_paths(paths), ks * w)
    for b, path in enumerate(paths):
        n = int(ks[b]) * w
        assert u_sel[b] == _contract_stream(seed, _DOMAIN_SELECTION, path).random()
        np.testing.assert_array_equal(
            u_cand[start[b]:start[b] + n],
            _contract_stream(seed, _DOMAIN_CANDIDATES, path).random(n))

    cr = CommonRandomness(seed)
    enc = encode_batch(targets if w > 1 else targets[:, 0], p, ks, cr, paths)
    samples = enc.sample.reshape(len(ks), w)
    for b, (k, path) in enumerate(zip(ks.tolist(), paths)):
        if w == 1:
            rec = encode_mrc(Distribution(targets[b, 0]), p,
                             CommonRandomness(seed), k, stream=path)
            assert (rec.index, rec.sample, rec.fallback) == \
                (enc.index[b], enc.sample[b], enc.fallback[b])
        else:
            idx, sample = _tuple_reference(targets[b], p, k, seed, path)
            assert enc.index[b] == idx
            np.testing.assert_array_equal(samples[b], sample)
        np.testing.assert_array_equal(
            decode_batch(int(enc.index[b]) * w + np.arange(w), p, [k * w] * w,
                         CommonRandomness(seed), [path] * w), samples[b])
    assert cr.bits_consumed == 64 * (int(ks.sum()) * w + len(ks))
