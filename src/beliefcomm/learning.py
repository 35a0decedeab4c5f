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
from .spaces import (Distribution, ProblemInstance, _clean_rows,
                     _logsumexp_rows, _number, _table)

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
        r = _clean_rows(r, "posterior row")
        r.setflags(write=False)
        return Posterior(rows=r, marginal=Distribution(instance.p_s @ r))


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
    n_s, n_h = instance.n_datasets, instance.n_hypotheses
    # emp[c, h, s] = mean_j loss[c, h, z_j], summed and divided by m as
    # mean(axis=3) computes it
    emp = instance.hypotheses.loss[:, :, instance.datasets].sum(axis=3) \
        / instance.m
    scores = np.einsum("sc,chs->sh", instance.posterior, emp)
    assert scores.shape == (n_s, n_h)
    return scores


def _rule_rows(rule: LearningRule, scores: np.ndarray, m: int) -> np.ndarray:
    """Rows of a gibbs or erm rule, one per row of ranking scores.

    m is the dataset length: gibbs tempers the summed empirical loss, m times
    the averaged score. erm splits its mass evenly over the near-ties of the
    least score.
    """
    if rule.kind == "gibbs":
        logits = -rule.beta * m * scores
        return np.exp(logits - _logsumexp_rows(logits)[:, None])
    if rule.kind == "erm":
        ties = scores <= scores.min(axis=1, keepdims=True) + ERM_TIE_TOL
        return ties / ties.sum(axis=1, keepdims=True)
    raise ValueError(f"unknown rule kind {rule.kind!r}")


def fit(rule: LearningRule, instance: ProblemInstance) -> Posterior:
    """Run a learning rule on every dataset at once."""
    if rule.kind == "map_table":
        return Posterior.from_rows(rule.table, instance)
    rows = _rule_rows(rule, dataset_scores(instance), instance.m)
    return Posterior.from_rows(rows, instance)


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
    dmat = instance.posterior @ instance.true_loss_table  # (s, h)
    baseline = float(np.einsum("s,sh,sh->", instance.p_s, q_sender.rows, dmat))
    return dmat, baseline


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
