"""Coordinating belief sequences: empirical vs. strong reproduction.

Two regimes for reproducing a length-n belief sequence at the receiver.
In the empirical regime the receiver only matches the time-average of the
sender's beliefs, which a deterministic zero-bit schedule can do; the
per-position gap can stay large while the average vanishes. In the strong
regime every position must individually track the sender's belief, paid for
with real index bits through the one-shot coder plus unlimited shared
randomness.

Per-position rows are dataset-independent reproduction rules, so their
semantic distortion weighs concepts by the prior (d_sem_rows); the
time-averaged and worst-position distortions of a row sequence are one call
each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel_coding import DEFAULT_SLACK, CommonRandomness, code_messages, \
    inverse_cdf_sample
from .errors import SupportViolationError
from .learning import Posterior, d_sem_rows, effective_distortion_matrix
from .spaces import ProblemInstance, total_variation
from .worlds import two_hypothesis_world

# symbols coded per batch call in simulate_strong; bounds its working set
TRIAL_BLOCK_SYMBOLS = 2**11


def d_avg_seq(alice_rows, bob_rows, instance: ProblemInstance) -> float:
    """Arithmetic mean of the per-position semantic distortions."""
    return float(np.mean(d_sem_rows(alice_rows, bob_rows, instance)))


def d_max_seq(alice_rows, bob_rows, instance: ProblemInstance) -> float:
    """Worst position; always >= the average."""
    return float(np.max(d_sem_rows(alice_rows, bob_rows, instance)))


@dataclass(frozen=True)
class Example1Result:
    alice_rows: np.ndarray
    bob_rows: np.ndarray
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


def run_example_1(n: int) -> Example1Result:
    """The canonical empirical-coordination walkthrough.

    Sender posts the uniform belief over {h0, h1} whatever the data; the
    receiver alternates deterministically between the two hypotheses. The
    time-average distortion is 0 for even n and 1/(2n) for odd n while the
    worst position always sits at 1/2. The sender ignores the data: no draws.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    instance = two_hypothesis_world()
    alice = np.full((n, 2), 0.5)
    bob = alternating_schedule(n)
    davg = d_avg_seq(alice, bob, instance)
    dmax = d_max_seq(alice, bob, instance)
    tvmax = max(total_variation(bob[i], alice[i]) for i in range(n))
    return Example1Result(alice_rows=alice, bob_rows=bob, d_avg=davg,
                          d_max=dmax, bits_per_symbol=0.0,
                          tv_max_position=tvmax)


@dataclass(frozen=True)
class StrongCoordinationReport:
    """Monte Carlo estimate of per-position tracking under one-shot coding.

    The estimates assume unlimited common randomness; cr_bits is what the
    run read of it.
    """

    n: int
    trials: int
    d_avg_est: float
    d_avg_ci: tuple[float, float]
    d_max_est: float
    d_max_ci: tuple[float, float]
    bits_per_symbol: float
    tv_max_position: float
    cr_bits: int


def simulate_strong(instance: ProblemInstance, q_target: Posterior, n: int,
                    cr: CommonRandomness, trials: int,
                    slack: float = DEFAULT_SLACK) -> StrongCoordinationReport:
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
    counts = np.zeros((n, instance.n_datasets, instance.n_hypotheses))
    bits_total = 0.0
    positions = np.arange(n)
    step = max(1, TRIAL_BLOCK_SYMBOLS // max(n, 1))
    for first in range(0, trials, step):
        block = np.arange(first, min(first + step, trials))
        s_seq = inverse_cdf_sample(instance.p_s,
                                   cr.data_uniforms(block[:, None], n))
        batch, recon = code_messages(q_target, prior, s_seq[..., None], cr,
                                     block, slack=slack)
        np.add.at(counts, (np.broadcast_to(positions, s_seq.shape), s_seq,
                           recon[..., 0]), 1.0)
        bits_total += float(np.log2(batch.n_candidates).sum())

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

    return StrongCoordinationReport(
        n=n,
        trials=trials,
        d_avg_est=d_avg_est,
        d_avg_ci=(d_avg_est - 1.96 * se_avg, d_avg_est + 1.96 * se_avg),
        d_max_est=d_max_est,
        d_max_ci=(d_max_est - 1.96 * se_max, d_max_est + 1.96 * se_max),
        bits_per_symbol=bits_total / (n * trials),
        tv_max_position=tv_max,
        cr_bits=cr.bits_consumed,
    )
