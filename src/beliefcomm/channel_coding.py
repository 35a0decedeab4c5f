"""One-shot channel simulation with shared randomness.

The coder communicates a sample from a target distribution q using a prior p
both ends agree on: shared randomness proposes K candidates i.i.d. from p,
the encoder picks one with probability proportional to the importance ratio
q/p and sends only its index. The decoder regenerates the indexed candidate
from the shared seed, so the cost is log2(K) bits regardless of the
alphabet.

Common randomness is counter-addressed Philox4x64-10 (stream contract
GENERATOR_ID). Stream (domain, path) of seed s, with a path of at most three
words in [0, 2^64), has key (s, domain | len(path) << 32); its uniform j is
word j mod 4 of the Philox block at counter (floor(j/4) + 1, *path, 0...),
mapped to a double as (w >> 11) * 2^-53. That is exactly the j-th
``random()`` of ``np.random.Philox(key=..., counter=(0, *path, 0...))``,
which the per-stream accessors return as the reference. The coder itself
evaluates whole blocks of streams at once with a numpy Philox kernel, and
every draw is inverse-CDF sampling on those doubles. Equal seeds and paths
give byte-identical draws; encoder and decoder share no mutable state.

encode_batch / decode_batch are the one coder: they code B targets at once,
target b (a symbol's belief, or a w-tuple of beliefs against the product
prior) with K[b] candidates on stream path paths[b]. code_messages codes
(T, m, w) dataset messages through them: per-symbol coding is w = 1, and a
block of n symbols is one message of width n. encode_mrc / decode_mrc are
the batch-of-one wrappers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EnumerationCapError, SupportViolationError
from .learning import Posterior
from .spaces import Distribution, kl_divergence

GENERATOR_ID = "philox4x64/keyed-counter-invcdf-v2"

# stream domains; keep these stable, they are part of the stream contract
_DOMAIN_CANDIDATES = 0
_DOMAIN_SELECTION = 1
_DOMAIN_DATA = 2

DEFAULT_SLACK = 4.0
DEFAULT_CANDIDATE_CAP = 2**22
DEFAULT_BLOCK_CAP = 2**16

# uniforms per kernel evaluation and per encoder chunk, and quadrature node
# times outcomes per chunk of the exact law; bounds the working set
_CHUNK = 2**13
_MAX_PATH_WORDS = 3

_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
_LO32 = np.uint64(0xFFFFFFFF)
_M_LO, _M_HI = _PHILOX_M & _LO32, _PHILOX_M >> np.uint64(32)


def _philox4x64(key: np.ndarray, ctr: np.ndarray) -> np.ndarray:
    """Philox4x64-10 of each column of a (4, N) uint64 counter array.

    key is a (2, 1) uint64 column. The two 64x64->128 multiplies of a round
    run as one (2, N) product on 32-bit limbs, lanes (x0, x2) against
    (x3, x1), updated in place where a temporary can be reused.
    """
    s32 = np.uint64(32)
    even, odd = ctr[0::2], ctr[3::-2]  # (x0, x2), (x3, x1)
    for _ in range(10):
        a_lo, hi = even & _LO32, even >> s32
        hi_lo, lo_hi, mid = hi * _M_LO, a_lo * _M_HI, a_lo * _M_LO
        mid >>= s32
        mid += hi_lo & _LO32
        mid += lo_hi & _LO32
        mid >>= s32
        hi *= _M_HI
        hi += mid
        hi_lo >>= s32
        hi += hi_lo
        lo_hi >>= s32
        hi += lo_hi
        # x0' = hi1 ^ x1 ^ k0, x2' = hi0 ^ x3 ^ k1, x1' = lo1, x3' = lo0
        hi = hi[::-1]
        hi ^= odd[::-1]
        hi ^= key
        even, odd = hi, even * _PHILOX_M
        key = key + _PHILOX_W
    return np.stack([even[0], odd[1], even[1], odd[0]])


def _as_paths(paths) -> np.ndarray:
    """Stream paths as a (B, L) uint64 array; L <= 3 words in [0, 2^64)."""
    # a list goes through object dtype: numpy would infer float64 for words
    # at or above 2^63 and round them
    arr = paths if isinstance(paths, np.ndarray) else np.array(paths, dtype=object)
    if arr.ndim != 2 or arr.shape[1] > _MAX_PATH_WORDS:
        raise ValueError(
            f"stream paths must be B rows of at most {_MAX_PATH_WORDS} words, "
            f"got shape {arr.shape}"
        )
    if arr.size == 0:
        return np.zeros(arr.shape, dtype=np.uint64)
    if arr.dtype.kind == "O" and not all(
            isinstance(w, (int, np.integer)) for w in arr.flat):
        raise ValueError("stream path words must be integers")
    if arr.dtype.kind not in "iuO" or int(arr.min()) < 0 \
            or int(arr.max()) >= 2**64:
        raise ValueError("stream path words must be integers in [0, 2^64)")
    return arr.astype(np.uint64)


class CommonRandomness:
    """Deterministic shared randomness, addressed by integer stream paths.

    bits_consumed counts 64 bits for every uniform the coder and the data
    samplers read: K per encoded target plus one selection draw, one per
    decoded target, and every data draw. Encoder padding that a batch
    generates past a row's own K is not counted, so a batch tallies exactly
    what its rows would tally coded one at a time.
    """

    def __init__(self, seed: int):
        seed = int(seed)
        if not 0 <= seed < 2**64:
            raise ValueError(f"seed {seed} outside [0, 2^64)")
        self.seed = seed
        self.bits_consumed = 0

    def _key(self, domain: int, width: int) -> np.ndarray:
        return np.array([[self.seed], [domain | width << 32]], dtype=np.uint64)

    def _stream(self, domain: int, path: tuple[int, ...]) -> np.random.Generator:
        words = _as_paths([path])[0]
        counter = np.zeros(4, dtype=np.uint64)
        counter[1:1 + len(words)] = words
        key = self._key(domain, len(words))[:, 0]
        return np.random.Generator(np.random.Philox(key=key, counter=counter))

    def candidate_stream(self, *path: int) -> np.random.Generator:
        return self._stream(_DOMAIN_CANDIDATES, path)

    def selection_stream(self, *path: int) -> np.random.Generator:
        return self._stream(_DOMAIN_SELECTION, path)

    def data_stream(self, *path: int) -> np.random.Generator:
        return self._stream(_DOMAIN_DATA, path)

    def _blocks(self, domain: int, paths: np.ndarray, rows: np.ndarray,
                blocks: np.ndarray) -> np.ndarray:
        """Uniforms (N, 4) of block blocks[i] of stream paths[rows[i]]."""
        key = self._key(domain, paths.shape[1])
        out = np.empty((len(rows), 4))
        step = _CHUNK // 4
        for lo in range(0, len(rows), step):
            r, b = rows[lo:lo + step], blocks[lo:lo + step]
            ctr = np.zeros((4, len(r)), dtype=np.uint64)
            ctr[0] = b + 1
            ctr[1:1 + paths.shape[1]] = paths[r].T
            words = _philox4x64(key, ctr) >> np.uint64(11)
            out[lo:lo + step] = words.T * (1.0 / 2**53)
        return out

    def _uniforms(self, domain: int, paths: np.ndarray, n: int) -> np.ndarray:
        """(B, n) array whose row b is uniforms 0..n-1 of stream paths[b]."""
        n_rows, n_blocks = len(paths), -(-n // 4)
        rows = np.repeat(np.arange(n_rows), n_blocks)
        blocks = np.tile(np.arange(n_blocks), n_rows)
        return self._blocks(domain, paths, rows, blocks).reshape(
            n_rows, 4 * n_blocks)[:, :n]

    def _uniforms_at(self, domain: int, paths: np.ndarray,
                     j: np.ndarray) -> np.ndarray:
        """Uniform j[b] of stream paths[b]."""
        u = self._blocks(domain, paths, np.arange(len(paths)), j // 4)
        return u[np.arange(len(j)), j % 4]

    def data_uniforms(self, paths, n: int) -> np.ndarray:
        """Uniforms 0..n-1 of each data stream paths[b], as a (B, n) array."""
        u = self._uniforms(_DOMAIN_DATA, _as_paths(paths), n)
        self.tally(u.size)
        return u

    def tally(self, n_draws: int):
        self.bits_consumed += 64 * int(n_draws)


def inverse_cdf_sample(probs: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Map uniform doubles to indices through the right-continuous CDF."""
    cum = np.cumsum(probs)
    idx = np.searchsorted(cum, uniforms, side="right")
    return np.minimum(idx, len(probs) - 1)


@dataclass(frozen=True)
class CodeRecord:
    """What the encoder produced for one target: the index plus bookkeeping.

    sample is the chosen hypothesis index (or an index tuple in block mode);
    fallback marks the all-zero-importance-weight case where the encoder
    degraded to a uniform index choice.
    """

    index: int
    index_bits: float
    sample: object
    target_kl: float
    n_candidates: int
    fallback: bool = False

    def __post_init__(self):
        if not (0 <= self.index < self.n_candidates):
            raise ValueError(
                f"index {self.index} outside [0, {self.n_candidates})"
            )


@dataclass(frozen=True)
class CodedBatch:
    """Encoder output for B targets, one entry per row; sample[b] is a
    hypothesis index, or a (w,) index tuple for tuple targets."""

    index: np.ndarray
    sample: np.ndarray
    fallback: np.ndarray
    n_candidates: np.ndarray


def _row_chunks(k: np.ndarray):
    """Row groups in increasing K, each at most _CHUNK masked uniforms.

    A group of m rows whose largest count is K spans m * K uniforms; a row
    whose K alone exceeds the chunk forms a group of its own.
    """
    order = np.argsort(k, kind="stable")
    ks = k[order]
    start = 0
    while start < len(ks):
        window = ks[start:start + _CHUNK]
        span = window * np.arange(1, len(window) + 1)
        stop = start + max(1, int(np.searchsorted(span, _CHUNK, side="right")))
        yield order[start:stop]
        start = stop


def _batch_args(n_candidates, paths, n_rows: int):
    k = np.asarray(n_candidates, dtype=np.int64).reshape(-1)
    paths = _as_paths(paths)
    if len(k) != n_rows or len(paths) != n_rows:
        raise ValueError(
            f"{n_rows} rows but {len(k)} candidate counts and {len(paths)} paths"
        )
    if np.any(k < 1):
        raise ValueError("need at least one candidate")
    return k, paths


def encode_batch(Q, p: Distribution, n_candidates, cr: CommonRandomness,
                 paths) -> CodedBatch:
    """Encode row b of Q with n_candidates[b] proposals on stream paths[b].

    A (B, |H|) array codes one symbol per row. A (B, w, |H|) array codes a
    w-tuple per row against the product prior: candidate c of row b is the
    tuple at uniforms c*w .. c*w + w - 1 of its stream, and sample[b] is the
    chosen tuple. Rows are coded in chunks of similar K: one kernel call
    draws a masked candidate block for the chunk, and one selection uniform
    per row picks a candidate in proportion to its importance weight, or
    falls back to a uniform index when every weight is zero. Every target
    must be absolutely continuous w.r.t. the prior.
    """
    Q = np.asarray(Q, dtype=float)
    if Q.ndim not in (2, 3) or Q.shape[-1] != len(p):
        raise ValueError(f"targets of shape {Q.shape}, prior over {len(p)} symbols")
    targets = Q if Q.ndim == 3 else Q[:, None, :]
    w = targets.shape[1]
    k, paths = _batch_args(n_candidates, paths, len(Q))
    if np.any((Q > 0) & (p.probs == 0)):
        raise SupportViolationError("a target puts mass outside the prior's support")
    index = np.empty(len(Q), dtype=np.int64)
    sample = np.empty((len(Q), w), dtype=np.int64)
    fallback = np.empty(len(Q), dtype=bool)
    u_sel = cr._uniforms(_DOMAIN_SELECTION, paths, 1)[:, 0]
    for rows in _row_chunks(k * w):
        kr = k[rows]
        u_cand = cr._uniforms(_DOMAIN_CANDIDATES, paths[rows], int(kr[-1]) * w)
        cands = inverse_cdf_sample(p.probs, u_cand).reshape(len(rows), -1, w)
        # a tuple weighs prod q / prod p; a symbol's q/p skips the products and
        # the zero guard, which per-symbol batches would pay on every chunk
        q = targets[rows[:, None, None], np.arange(w), cands]
        if w == 1:
            weights = q[..., 0] / p.probs[cands[..., 0]]
        else:
            num, den = np.prod(q, axis=2), np.prod(p.probs[cands], axis=2)
            weights = np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)
        weights[np.arange(cands.shape[1]) >= kr[:, None]] = 0.0
        # inverse CDF of the selection uniform u over the weights; a row whose
        # weights are all zero falls back to the uniform index floor(u * K)
        cum = np.cumsum(weights, axis=1)
        u, total = u_sel[rows], cum[:, -1]
        fallback[rows] = total == 0.0
        idx = np.where(total == 0.0, (u * kr).astype(np.int64),
                       np.count_nonzero(cum <= (u * total)[:, None], axis=1))
        index[rows] = idx = np.minimum(idx, kr - 1)
        sample[rows] = cands[np.arange(len(rows)), idx]
    cr.tally(int(k.sum()) * w + len(k))
    return CodedBatch(index=index, sample=sample if Q.ndim == 3 else sample[:, 0],
                      fallback=fallback, n_candidates=k)


def decode_batch(index, p: Distribution, n_candidates, cr: CommonRandomness,
                 paths) -> np.ndarray:
    """Regenerate candidate index[b] of stream paths[b] from the shared seed.

    Uses nothing the encoder computed: the counter-addressed stream gives
    direct access to the indexed proposal, so one uniform is drawn per row.
    Symbol j of tuple c of a width-w encoder row is proposal c*w + j of
    K*w on the same path.
    """
    index = np.asarray(index, dtype=np.int64).reshape(-1)
    k, paths = _batch_args(n_candidates, paths, len(index))
    if np.any((index < 0) | (index >= k)):
        raise ValueError("an index falls outside [0, K)")
    u = cr._uniforms_at(_DOMAIN_CANDIDATES, paths, index)
    cr.tally(len(index))
    return inverse_cdf_sample(p.probs, u)


def encode_mrc(q: Distribution, p: Distribution, cr: CommonRandomness,
               n_candidates: int, stream: tuple[int, ...] = ()) -> CodeRecord:
    """Select one of n_candidates proposals from p in proportion to q/p.

    The batch-of-one case of encode_batch. The target must be absolutely
    continuous w.r.t. the prior (checked via the KL computation). When every
    drawn candidate has zero target mass the encoder falls back to a uniform
    index and flags the record.
    """
    target_kl = kl_divergence(q, p)
    out = encode_batch(q.probs[None, :], p, [n_candidates], cr, [stream])
    return CodeRecord(
        index=int(out.index[0]),
        index_bits=math.log2(n_candidates),
        sample=int(out.sample[0]),
        target_kl=target_kl,
        n_candidates=n_candidates,
        fallback=bool(out.fallback[0]),
    )


def decode_mrc(record, p: Distribution, cr: CommonRandomness,
               n_candidates: int | None = None,
               stream: tuple[int, ...] = ()) -> int:
    """Regenerate the indexed proposal; the batch-of-one decode_batch.

    Accepts either a CodeRecord or a bare index. A candidate count that
    disagrees with the record's is an error: the replayed proposals would
    not be the ones the encoder saw.
    """
    if isinstance(record, CodeRecord):
        if n_candidates is not None and n_candidates != record.n_candidates:
            raise ValueError(
                f"decoder candidate count {n_candidates} does not match "
                f"the record's {record.n_candidates}"
            )
        n_candidates = record.n_candidates
        index = record.index
    else:
        index = int(record)
        if n_candidates is None:
            raise ValueError("decoding a bare index needs n_candidates")
    return int(decode_batch([index], p, [n_candidates], cr, [stream])[0])


def induced_distribution_exact(q: Distribution, p: Distribution,
                               n_candidates: int) -> Distribution:
    """Exact output law of the coder with K = n_candidates, at any K.

    With r = q/p and phi(t) = sum_j p_j exp(-t r_j), the chance that the
    encoder selects outcome h is K q_h int_0^inf exp(-t r_h) phi(t)^(K-1) dt,
    since 1/x is the integral of exp(-t x). The integral is a trapezoid sum
    in u = log t with step 1/4 over [log(1e-18/K), log(800/min r)], where the
    integrand is doubly exponentially small at both ends, so the sum is
    exact to rounding. K draws that all land on zero-weight outcomes Z fall
    back to a uniform index, adding p_h p(Z)^(K-1) to each h in Z. K = 1 is
    exactly p. Like the coder, it needs q absolutely continuous w.r.t. p.
    """
    k, pp = n_candidates, p.probs
    if np.any((q.probs > 0) & (pp == 0)):
        raise SupportViolationError("the target puts mass outside the prior's support")
    if k == 1:
        return p
    r = q.probs / np.where(pp > 0, pp, 1.0)
    zero = (pp > 0) & (r == 0)
    out = np.where(zero, pp * pp[zero].sum() ** (k - 1), 0.0)
    u = np.arange(math.log(1e-18 / k),
                  math.log(800.0) - math.log(r[r > 0].min()) + 0.25, 0.25)
    mass, step = np.zeros(len(pp)), max(1, _CHUNK // len(pp))
    for start in range(0, len(u), step):
        uc = u[start:start + step]
        tr = np.exp(uc)[:, None] * r
        # phi - 1 >= -1 up to rounding; with no zero-weight outcome phi
        # reaches 0, and its log -inf leaves no mass
        with np.errstate(divide="ignore"):
            log_phi = np.log1p(np.maximum(np.expm1(-tr) @ pp, -1.0))
        mass += np.exp(uc + (k - 1) * log_phi) @ np.exp(-tr)
    return Distribution(out + 0.25 * k * q.probs * mass)


@dataclass(frozen=True)
class SingleShotBounds:
    """Index-cost bounds for one-shot simulation at a given divergence."""

    kl_bits: float
    harsha_bits: float
    theis_bits: float


def single_shot_bounds(kl_bits: float) -> SingleShotBounds:
    """Classic one-shot rate bounds as a function of the target divergence.

    Lower bound is the divergence itself; the two upper forms are
    kl + 2 log2(kl + 1) (the Harsha et al. form with its constant at 0) and
    kl + log2(kl + 1) + 4.
    """
    if kl_bits < 0:
        raise ValueError("divergence must be >= 0")
    return SingleShotBounds(
        kl_bits=kl_bits,
        harsha_bits=kl_bits + 2.0 * math.log2(kl_bits + 1.0),
        theis_bits=kl_bits + math.log2(kl_bits + 1.0) + 4.0,
    )


def candidate_count(kl_bits: float, slack: float = DEFAULT_SLACK,
                    cap: int = DEFAULT_CANDIDATE_CAP) -> int:
    """Default proposal count ceil(2^(kl + slack))."""
    bits = kl_bits + slack
    # a double overflows at 2^1024, far past any cap
    k = math.ceil(2.0 ** bits) if bits < 1024 else math.inf
    if k > cap:
        raise EnumerationCapError(
            f"candidate count {k} exceeds cap {cap} at kl={kl_bits} bits"
        )
    return max(k, 1)


@dataclass(frozen=True)
class CodedSequence:
    records: tuple[CodeRecord, ...]
    total_bits: float
    reconstruction: np.ndarray
    mode: str


def code_messages(posterior: Posterior, prior: Distribution, datasets,
                  cr: CommonRandomness, trials, slack: float = DEFAULT_SLACK):
    """Code a (T, m, w) array of dataset messages in one batch.

    Message j of row t is the w-tuple of beliefs posterior.rows[datasets[t, j]],
    sent as one index on stream path (trials[t], j) and decoded from the
    shared seed alone. Its K = ceil(2^(kl + slack)) counts the divergence kl
    of the whole tuple, its positions' divergences added left to right, and
    is capped at DEFAULT_CANDIDATE_CAP for a symbol (w = 1, per-symbol coding)
    and DEFAULT_BLOCK_CAP for a wider tuple (a block). Returns the CodedBatch,
    row t * m + j, the decoded (T, m, w) hypotheses and the (T, m) message
    divergences in bits.
    """
    datasets = np.asarray(datasets, dtype=np.int64)
    n_trials, m, w = datasets.shape
    # clean target rows and divergences once per distinct dataset
    distinct, slot = np.unique(datasets, return_inverse=True)
    slot = slot.reshape(datasets.shape)
    rows = np.array([Distribution(posterior.rows[s]).probs for s in distinct])
    rows = rows.reshape(len(distinct), len(prior))
    kl = np.array([kl_divergence(r, prior) for r in rows])
    msg_kl = sum(np.moveaxis(kl[slot], 2, 0))  # left to right, as sum() adds
    # K once per distinct divergence; a symbol's are its distinct datasets'
    values, which = (kl, slot.ravel()) if w == 1 else \
        np.unique(msg_kl.ravel(), return_inverse=True)
    cap = DEFAULT_CANDIDATE_CAP if w == 1 else DEFAULT_BLOCK_CAP
    k = np.array([candidate_count(x, slack, cap) for x in values.tolist()],
                 dtype=np.int64)[which]
    paths = np.column_stack([np.repeat(np.asarray(trials, dtype=np.int64), m),
                             np.tile(np.arange(m), n_trials)])
    batch = encode_batch(rows[slot.reshape(-1, w)], prior, k, cr, paths)
    recon = decode_batch((batch.index[:, None] * w + np.arange(w)).ravel(),
                         prior, np.repeat(k * w, w), cr,
                         np.repeat(paths, w, axis=0))
    return batch, recon.reshape(n_trials, m, w), msg_kl


def code_sequence(posterior: Posterior, prior: Distribution, dataset_seq,
                  cr: CommonRandomness, mode: str = "per_symbol",
                  slack: float = DEFAULT_SLACK, trial: int = 0) -> CodedSequence:
    """Code the belief for each dataset in the sequence.

    per_symbol sends each position as its own message with
    K_i = ceil(2^(kl_i + slack)); block sends the whole sequence as one
    tuple message against the product prior, with K from the summed
    divergence and a single index. Message j uses stream path (trial, j), so
    a length-1 block coincides exactly with per_symbol coding.
    """
    if mode not in ("per_symbol", "block"):
        raise ValueError(f"unknown mode {mode!r}")
    seq = np.array([int(s) for s in dataset_seq], dtype=np.int64)
    messages = seq.reshape((1, -1, 1) if mode == "per_symbol" else (1, 1, -1))
    batch, recon, kl = code_messages(posterior, prior, messages, cr, [trial],
                                     slack)
    records = tuple(
        CodeRecord(index=i, index_bits=math.log2(k),
                   sample=smp[0] if len(smp) == 1 else np.array(smp),
                   target_kl=d, n_candidates=k, fallback=fb)
        for i, smp, d, k, fb in zip(
            batch.index.tolist(), batch.sample.tolist(), kl[0].tolist(),
            batch.n_candidates.tolist(), batch.fallback.tolist())
    )
    total = sum((r.index_bits for r in records), 0.0)
    return CodedSequence(records, total, recon.reshape(-1), mode)
