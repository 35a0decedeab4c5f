"""Coordinating belief sequences: empirical vs. strong reproduction.

Two regimes for reproducing a length-n belief sequence at the receiver.
In the empirical regime the receiver only matches the time-average of the
sender's beliefs, which a deterministic zero-bit schedule can do; the
per-position gap can stay large while the average vanishes. In the strong
regime every position must individually track the sender's belief, paid for
with real index bits through the one-shot coder plus unlimited shared
randomness.

Per-position rows in a trace are dataset-independent reproduction rules, so
their semantic distortion weighs concepts by the prior. With the sender rows
taken at the realized datasets this makes the time-averaged distortion of a
deterministic schedule equal, exactly, to the semantic distortion of the
realized joint type against the sender's single-letter rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel_coding import CommonRandomness, code_messages, inverse_cdf_sample
from .errors import NormalizationError, SupportViolationError
from .learning import Posterior, d_sem_rows, effective_distortion_matrix
from .spaces import ProblemInstance, total_variation
from .worlds import two_hypothesis_world

ONE_HOT_TOL = 1e-12
# symbols coded per batch call in simulate_strong; bounds its working set
TRIAL_BLOCK_SYMBOLS = 2**11


@dataclass(frozen=True)
class SequenceTrace:
    """One realized coordination run over n positions."""

    n: int
    datasets: tuple[int, ...]
    alice_rows: np.ndarray
    bob_rows: np.ndarray
    joint_type: np.ndarray
    bits_used: float
    cr_bits: int

    def __post_init__(self):
        if len(self.datasets) != self.n or self.alice_rows.shape[0] != self.n \
                or self.bob_rows.shape[0] != self.n:
            raise ValueError("trace arrays disagree on n")
        total = float(self.joint_type.sum())
        if abs(total - 1.0) > 1e-9:
            raise NormalizationError(f"joint type sums to {total!r}")
        scaled = self.joint_type * self.n
        if np.max(np.abs(scaled - np.round(scaled))) > 1e-9:
            raise NormalizationError(
                "joint type must be an average of n point masses"
            )


def joint_type_from_pairs(dataset_seq, hyp_seq, n_datasets: int,
                          n_hypotheses: int) -> np.ndarray:
    t = np.zeros((n_datasets, n_hypotheses))
    for s, h in zip(dataset_seq, hyp_seq):
        t[int(s), int(h)] += 1.0
    return t / len(dataset_seq)


def d_avg_seq(alice_rows, bob_rows, instance: ProblemInstance) -> float:
    """Arithmetic mean of the per-position semantic distortions."""
    return float(np.mean(d_sem_rows(alice_rows, bob_rows, instance)))


def d_max_seq(alice_rows, bob_rows, instance: ProblemInstance) -> float:
    """Worst position; always >= the average."""
    return float(np.max(d_sem_rows(alice_rows, bob_rows, instance)))


def d_sem_from_joint_type(joint_type, q_alice: Posterior,
                          instance: ProblemInstance) -> float:
    """Semantic distortion of a realized joint type against the sender rule.

    The type supplies both the dataset weights and the reproduction law;
    the sender side is the type-weighted mixture of the sender's rows.
    """
    t = np.asarray(joint_type, dtype=float)
    # the type-mixed sender row against the reproduction-side type
    return float(d_sem_rows(t.sum(axis=1) @ q_alice.rows, t.sum(axis=0),
                            instance))


def _one_hot_indices(rows) -> np.ndarray:
    r = np.asarray(rows, dtype=float)
    idx = np.argmax(r, axis=1)
    if np.any(np.abs(r[np.arange(len(r)), idx] - 1.0) > ONE_HOT_TOL):
        raise ValueError("schedule rows must be deterministic (one-hot)")
    return idx


def simulate_empirical_deterministic(instance: ProblemInstance, q_alice: Posterior,
                                     schedule_rows, seed: int = 0) -> SequenceTrace:
    """Run a zero-bit deterministic receiver schedule against sampled data.

    The schedule fixes the receiver's hypothesis at each position outright;
    only the sender's datasets are random. No index bits, no shared
    randomness.
    """
    sched = np.asarray(schedule_rows, dtype=float)
    hyp_idx = _one_hot_indices(sched)
    n = len(sched)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    s_seq = inverse_cdf_sample(instance.p_s, rng.random(n))
    return SequenceTrace(
        n=n,
        datasets=tuple(int(s) for s in s_seq),
        alice_rows=q_alice.rows[s_seq],
        bob_rows=sched,
        joint_type=joint_type_from_pairs(s_seq, hyp_idx, instance.n_datasets,
                                         instance.n_hypotheses),
        bits_used=0.0,
        cr_bits=0,
    )


@dataclass(frozen=True)
class Example1Result:
    trace: SequenceTrace
    d_avg: float
    d_max: float
    bits_per_symbol: float
    tv_max_position: float


def alternating_schedule(n: int) -> np.ndarray:
    """One-hot rows over {h0, h1}: h1, h0, h1, h0, ... (first takes h1)."""
    rows = np.zeros((n, 2))
    for i in range(n):
        rows[i, 1 if i % 2 == 0 else 0] = 1.0
    return rows


def run_example_1(n: int, seed: int = 0) -> Example1Result:
    """The canonical empirical-coordination walkthrough.

    Sender posts the uniform belief over {h0, h1} whatever the data; the
    receiver alternates deterministically between the two hypotheses. The
    time-average distortion is 0 for even n and 1/(2n) for odd n while the
    worst position always sits at 1/2.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    instance = two_hypothesis_world()
    q_alice = Posterior.from_rows(
        np.full((instance.n_datasets, 2), 0.5), instance
    )
    trace = simulate_empirical_deterministic(
        instance, q_alice, alternating_schedule(n), seed=seed
    )
    davg = d_avg_seq(trace.alice_rows, trace.bob_rows, instance)
    dmax = d_max_seq(trace.alice_rows, trace.bob_rows, instance)
    tvmax = max(
        total_variation(trace.bob_rows[i], trace.alice_rows[i]) for i in range(n)
    )
    return Example1Result(trace=trace, d_avg=davg, d_max=dmax,
                          bits_per_symbol=0.0, tv_max_position=tvmax)


@dataclass(frozen=True)
class StrongCoordinationReport:
    """Monte Carlo estimate of per-position tracking under one-shot coding.

    Rate and distortion estimates assume unlimited common randomness; the
    flag records that assumption explicitly.
    """

    trace: SequenceTrace
    n: int
    trials: int
    d_avg_est: float
    d_avg_ci: tuple[float, float]
    d_max_est: float
    d_max_ci: tuple[float, float]
    bits_per_symbol: float
    tv_max_position: float
    slack: float
    unlimited_common_randomness: bool = True


def simulate_strong(instance: ProblemInstance, q_target: Posterior, n: int,
                    cr: CommonRandomness, trials: int = 10**4,
                    slack: float = 4.0) -> StrongCoordinationReport:
    """Code every position through the one-shot coder and measure tracking.

    Each trial draws a fresh dataset sequence, codes each position's target
    row against the target's own marginal as prior, and decodes. The
    receiver's per-position conditional law is estimated across trials and
    compared to the target in semantic distortion and total variation.
    Trial t reads its datasets from data stream (t,) and codes position i on
    path (t, i); whole blocks of trials, up to TRIAL_BLOCK_SYMBOLS symbols,
    go through the coder in one batch.
    """
    prior = q_target.marginal
    for s in np.flatnonzero(instance.p_s > 0):
        row = q_target.rows[s]
        if np.any((row > 0) & (prior.probs == 0)):
            raise SupportViolationError(
                f"target row {s} puts mass outside its own marginal support"
            )
    n_s, n_h = instance.n_datasets, instance.n_hypotheses
    counts = np.zeros((n, n_s, n_h))
    bits_total = 0.0
    positions = np.arange(n)
    step = max(1, TRIAL_BLOCK_SYMBOLS // max(n, 1))
    for first in range(0, trials, step):
        block = np.arange(first, min(first + step, trials))
        s_seq = inverse_cdf_sample(instance.p_s,
                                   cr.data_uniforms(block[:, None], n))
        batch, recon, _ = code_messages(q_target, prior, s_seq[..., None], cr,
                                        block, slack=slack)
        recon = recon[..., 0]
        np.add.at(counts, (np.broadcast_to(positions, s_seq.shape), s_seq,
                           recon), 1.0)
        bits = np.log2(batch.n_candidates)
        bits_total += float(bits.sum())
        if first == 0:
            # trial 0 is the realized sequence the trace shows
            s0, recon0, bits0 = s_seq[0], recon[0], float(bits[:n].sum())

    cell_totals = counts.sum(axis=2)  # (n, n_s)
    seen = cell_totals > 0
    rows_est = np.where(seen[..., None],
                        counts / np.where(seen, cell_totals, 1.0)[..., None],
                        prior.probs)

    dmat, _ = effective_distortion_matrix(instance, q_target)
    p_s = instance.p_s
    d_by_pos = np.einsum("s,ish,sh->i", p_s, rows_est - q_target.rows, dmat)
    mean_d = (rows_est * dmat).sum(axis=2)
    mean_d2 = (rows_est * dmat**2).sum(axis=2)
    live = seen & (p_s > 0)
    var_by_pos = np.where(
        live,
        p_s**2 * np.maximum(mean_d2 - mean_d**2, 0.0)
        / np.where(live, cell_totals, 1.0),
        0.0,
    ).sum(axis=1)

    d_avg_est = float(d_by_pos.mean())
    se_avg = math.sqrt(float(var_by_pos.sum())) / n
    i_max = int(np.argmax(d_by_pos))
    d_max_est = float(d_by_pos[i_max])
    se_max = math.sqrt(var_by_pos[i_max])

    tv_by_cell = 0.5 * np.abs(rows_est - q_target.rows).sum(axis=2)
    tv_max = float(tv_by_cell[:, p_s > 0].max(initial=0.0))

    bob_marg = counts.sum(axis=1)
    bob_marg /= bob_marg.sum(axis=1, keepdims=True)
    trace = SequenceTrace(
        n=n, datasets=tuple(s0.tolist()), alice_rows=q_target.rows[s0],
        bob_rows=bob_marg, joint_type=joint_type_from_pairs(s0, recon0, n_s, n_h),
        bits_used=bits0, cr_bits=cr.bits_consumed,
    )
    return StrongCoordinationReport(
        trace=trace,
        n=n,
        trials=trials,
        d_avg_est=d_avg_est,
        d_avg_ci=(d_avg_est - 1.96 * se_avg, d_avg_est + 1.96 * se_avg),
        d_max_est=d_max_est,
        d_max_ci=(d_max_est - 1.96 * se_max, d_max_est + 1.96 * se_max),
        bits_per_symbol=bits_total / (n * trials),
        tv_max_position=tv_max,
        slack=slack,
    )
