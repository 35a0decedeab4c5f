"""Learning rules, posteriors over hypotheses, and semantic distortion.

A learner maps each dataset to a belief over hypotheses. Semantic distortion
between two such maps is the expected extra true loss the receiver's belief
pays over the sender's, averaged over concepts and datasets jointly. The key
computational fact, used everywhere downstream, is that this distortion is
affine in the receiver's rows: it equals an inner product against an
effective per-dataset loss matrix minus a constant baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AlphabetMismatchError, ConfigError
from .spaces import (Distribution, ProblemInstance, _clean_stack,
                     _logsumexp_rows, _number, _table, _wrap)

ERM_TIE_TOL = 1e-12


@dataclass(frozen=True)
class Posterior:
    """Belief rows, one distribution over hypotheses per dataset.

    marginal is the dataset-weighted average row, the distribution of the
    hypothesis when the dataset is drawn from its marginal law.
    """

    rows: np.ndarray
    marginal: Distribution

    @staticmethod
    def from_rows(rows, instance: ProblemInstance) -> "Posterior":
        r = np.asarray(rows, dtype=float)
        if r.shape != (instance.n_datasets, instance.n_hypotheses):
            raise AlphabetMismatchError(
                f"Posterior rows shape {r.shape}, expected "
                f"({instance.n_datasets}, {instance.n_hypotheses})"
            )
        return _posteriors(r[None], instance.p_s[None])[0]


def _posteriors(rows, p_s) -> list[Posterior]:
    """The Posteriors of a stack of worlds: rows (B, |S|, |H|), each world's
    cleaned as Posterior.from_rows cleans them, and p_s (B, |S|) the worlds'
    dataset marginals. Each Posterior's arrays are read-only views into the
    stacks."""
    r = _clean_stack(rows, "posterior row")
    marginals = _clean_stack(np.matmul(p_s[:, None, :], r)[:, 0])
    r.setflags(write=False)
    marginals.setflags(write=False)
    return [_wrap(Posterior, rows=row, marginal=_wrap(Distribution, probs=mar))
            for row, mar in zip(r, marginals)]


@dataclass(frozen=True)
class LearningRule:
    """gibbs(beta), erm, or an explicit lookup table of rows."""

    kind: str
    beta: float | None = None
    table: np.ndarray | None = None

    @staticmethod
    def gibbs(beta: float) -> "LearningRule":
        if beta < 0:
            raise ValueError("gibbs beta must be >= 0")
        return LearningRule(kind="gibbs", beta=float(beta))

    @staticmethod
    def erm() -> "LearningRule":
        return LearningRule(kind="erm")

    @staticmethod
    def map_table(rows) -> "LearningRule":
        return LearningRule(kind="map_table", table=np.asarray(rows, dtype=float))

    @staticmethod
    def from_json(obj: dict) -> "LearningRule":
        """The rule of a config's "rule" object; errors point into /rule."""
        if not isinstance(obj, dict) or "rule" not in obj:
            raise ConfigError("/rule", 'need an object with a "rule" key')
        kind = obj["rule"]
        if kind == "gibbs":
            if "beta" not in obj:
                raise ConfigError("/rule/beta", "gibbs needs beta")
            beta = _number(obj["beta"], "/rule/beta")
            if beta < 0:
                raise ConfigError("/rule/beta", "beta must be >= 0")
            return LearningRule.gibbs(beta)
        if kind == "erm":
            return LearningRule.erm()
        if kind == "map_table":
            return LearningRule.map_table(_table(obj, "rows", "/rule"))
        raise ConfigError("/rule/rule", f"unknown rule {kind!r}")


def dataset_scores(instance: ProblemInstance) -> np.ndarray:
    """scores[s, h]: posterior-averaged empirical loss of pure h on dataset s.

    This is the quantity both gibbs and erm rank hypotheses by.
    """
    return _scores([instance])[0]


def _scores(instances) -> np.ndarray:
    """dataset_scores of worlds of one shape, stacked (B, |S|, |H|)."""
    first = instances[0]
    # emp[b, c, h, s] = mean_j loss[b, c, h, z_j], summed and divided by m
    # as mean(axis=4) computes it
    emp = np.array([w.hypotheses.loss for w in instances])[
        :, :, :, first.datasets].sum(axis=4) / first.m
    return np.einsum("bsc,bchs->bsh",
                     np.array([w.posterior for w in instances]), emp)


def _rule_rows(kind: str, beta, scores: np.ndarray, m: int) -> np.ndarray:
    """Rows of a gibbs or erm rule, one per row of ranking scores (..., |H|).

    m is the dataset length: gibbs tempers the summed empirical loss, m times
    the averaged score, at inverse temperature beta, a number or an array
    that broadcasts against scores. erm splits its mass evenly over the
    near-ties of the least score.
    """
    if kind == "gibbs":
        logits = -beta * m * scores
        lse = _logsumexp_rows(logits.reshape(-1, logits.shape[-1]))
        return np.exp(logits - lse.reshape(logits.shape[:-1] + (1,)))
    if kind == "erm":
        ties = scores <= scores.min(axis=-1, keepdims=True) + ERM_TIE_TOL
        return ties / ties.sum(axis=-1, keepdims=True)
    raise ValueError(f"unknown rule kind {kind!r}")


def fit(rule: LearningRule, instance: ProblemInstance) -> Posterior:
    """Run a learning rule on every dataset at once."""
    if rule.kind == "map_table":
        return Posterior.from_rows(rule.table, instance)
    return _fit_bank(rule.kind, rule.beta, [instance])[0]


def _fit_bank(kind: str, beta, instances) -> list[Posterior]:
    """fit over worlds of one shape with one gibbs or erm rule kind: the
    scores, rule rows and Posteriors of the whole stack at once. beta is one
    inverse temperature or one per world (gibbs only)."""
    if isinstance(beta, np.ndarray):
        beta = beta[:, None, None]
    return _posteriors(
        _rule_rows(kind, beta, _scores(instances), instances[0].m),
        np.array([w.p_s for w in instances]))


def d_sem(q_sender: Posterior, q_receiver: Posterior, instance: ProblemInstance) -> float:
    """Semantic distortion: expected extra population risk of the receiver.

    Signed on purpose; a receiver that happens to beat the sender comes out
    negative.
    """
    _check_rows(q_sender, instance)
    _check_rows(q_receiver, instance)
    # joint weight over (c, s) = P_C(c) P(s|c); contract against the
    # per-concept population risks of each row.
    w = instance.concepts.prior.probs[:, None] * instance.conditional  # (c, s)
    diff = q_receiver.rows - q_sender.rows  # (s, h)
    return float(np.einsum("cs,sh,ch->", w, diff, instance.true_loss_table))


def effective_distortion_matrix(instance: ProblemInstance,
                                q_sender: Posterior) -> tuple[np.ndarray, float]:
    """Reduce semantic distortion to a linear functional of receiver rows.

    Returns (D, baseline) with D[s, h] the posterior-mixed population risk of
    pure h given dataset s, so that for any receiver rows q:

        d_sem(q_sender, q) = sum_s P_S(s) <q[s], D[s]> - baseline

    and baseline is the same contraction evaluated at the sender's own rows.
    """
    _check_rows(q_sender, instance)
    dmat, baseline = _effective_bank([instance], q_sender.rows[None])
    return dmat[0], float(baseline[0])


def _effective_bank(instances, sender_rows):
    """effective_distortion_matrix of each world of one shape, with sender
    rows (B, |S|, |H|) already checked against it: stacked D and baselines."""
    dmat = np.matmul(np.array([w.posterior for w in instances]),
                     np.array([w.true_loss_table for w in instances]))
    return dmat, np.einsum("bs,bsh,bsh->b",
                           np.array([w.p_s for w in instances]), sender_rows,
                           dmat)


def d_sem_rows(row_sender, row_receiver, instance: ProblemInstance):
    """Semantic distortion between dataset-independent belief rows.

    Both rows are treated as constant learning rules, so the concept
    expectation collapses onto the concept prior. Stacks of rows broadcast
    against each other and give one distortion per row: a float for two
    single rows, an array of the stacks' shape otherwise.
    """
    a = np.asarray(row_sender, dtype=float)
    b = np.asarray(row_receiver, dtype=float)
    lbar = instance.concepts.prior.probs @ instance.true_loss_table  # (h,)
    return (b - a) @ lbar


def _check_rows(q: Posterior, instance: ProblemInstance):
    if q.rows.shape != (instance.n_datasets, instance.n_hypotheses):
        raise AlphabetMismatchError(
            f"posterior rows {q.rows.shape} do not fit instance "
            f"({instance.n_datasets}, {instance.n_hypotheses})"
        )
