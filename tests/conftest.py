"""Shared helpers: seeded generators, senders worth compressing, and the
reference paths the tests check the library against.

Hypothesis also draws, now and then, from the literals of every local
non-test module in sys.modules, so the examples a derandomized property
test draws depend on what was imported before it runs. Importing every
beliefcomm module and the bench modules that bench/test_bench.py imports
here gives each test the same pool, and the same examples, whether it runs
alone or in the full suite.
"""

import csv
import importlib
import math
import os
import pkgutil
import sys
from typing import NamedTuple

import numpy as np

import beliefcomm
from beliefcomm import (
    Distribution,
    LearningRule,
    Posterior,
    ProblemInstance,
    d_sem,
    d_sem_rows,
    effective_distortion_matrix,
    fit,
    random_instance,
    two_hypothesis_world,
)
from beliefcomm.channel_coding import inverse_cdf_sample
from beliefcomm.cli import _epsilon_grid, _fmt, _get_prior, _world_prior
from beliefcomm.errors import NormalizationError, SupportViolationError
from beliefcomm.rate_distortion import _kl_bits, _prior_grid
from beliefcomm.schemes import (_VERIFY_RATE_TOL, BOUND_TOL,
                                distortion_rate_bound)
from beliefcomm.spaces import RENORM_LIMIT, _rel_entr

for _module in pkgutil.iter_modules(beliefcomm.__path__):
    importlib.import_module(f"beliefcomm.{_module.name}")
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench"))
import checks  # noqa: E402,F401
import plan  # noqa: E402,F401
import run  # noqa: E402,F401
import spans  # noqa: E402,F401


def philox_rng(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def sharp_sender(seed, n_symbols=2, n_hypotheses=2, min_span=0.02,
                 attempts=80):
    """Instance plus an erm sender whose belief actually tracks the data.

    Soft senders on diffuse worlds are dominated by a constant reply, so
    their rate is zero at any nonnegative budget. Peaked concept laws with an
    erm learner give a positive span (the distortion of the best constant
    reply), which is where the rate-distortion tradeoff is alive. Rejection
    sampling keeps the first draw that clears min_span.
    """
    rng = philox_rng(seed)
    for _ in range(attempts):
        inst = random_instance(rng, n_concepts=3, n_symbols=n_symbols,
                               n_hypotheses=n_hypotheses, m=1,
                               concentration=0.2)
        q = fit(LearningRule.erm(), inst)
        dmat, base = effective_distortion_matrix(inst, q)
        span = float((inst.p_s @ dmat).min()) - base
        if span > min_span:
            return inst, q, span
    raise RuntimeError("no positive-span draw; widen the search")


def random_rows(rng: np.random.Generator, n_rows: int, n_cols: int,
                concentration: float = 1.0) -> np.ndarray:
    """A stack of Dirichlet rows, one belief per dataset."""
    return np.stack(
        [rng.dirichlet(np.full(n_cols, concentration)) for _ in range(n_rows)]
    )


def kl_rate(q_tilde: Posterior, prior: Distribution, instance: ProblemInstance) -> float:
    """Expected per-dataset coding divergence E_S[D(q(.|s) || prior)], bits.

    Datasets with zero marginal mass are ignored; a positive-mass row leaking
    outside the prior's support is the infinite-rate case and raises.
    """
    keep = instance.p_s > 0
    prior_p = prior.probs
    for s in np.flatnonzero(keep):
        if np.any((q_tilde.rows[s] > 0) & (prior_p == 0)):
            raise SupportViolationError(
                f"kl_rate is infinite: dataset {s} puts mass outside the prior support"
            )
    return _kl_bits(instance.p_s[keep], q_tilde.rows[keep], prior_p)


# empirical coordination: a zero-bit deterministic schedule and the joint
# type of the (dataset, hypothesis) pairs it realizes

ONE_HOT_TOL = 1e-12


class EmpiricalTrace(NamedTuple):
    """One realized run: the two ends' rows and the joint type."""

    alice_rows: np.ndarray
    bob_rows: np.ndarray
    joint_type: np.ndarray


def joint_type_from_pairs(dataset_seq, hyp_seq, n_datasets: int,
                          n_hypotheses: int) -> np.ndarray:
    t = np.zeros((n_datasets, n_hypotheses))
    for s, h in zip(dataset_seq, hyp_seq):
        t[int(s), int(h)] += 1.0
    return t / len(dataset_seq)


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
                                     schedule_rows, seed: int = 0) -> EmpiricalTrace:
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
    return EmpiricalTrace(
        alice_rows=q_alice.rows[s_seq],
        bob_rows=sched,
        joint_type=joint_type_from_pairs(s_seq, hyp_idx, instance.n_datasets,
                                         instance.n_hypotheses),
    )


# the paths the validators, _kl_bits and _write_csv took before their fixed
# per-call cost was cut, kept as the reference their property tests check


def clean_probs_reference(values, what: str) -> np.ndarray:
    """spaces._clean_probs as it was, one numpy wrapper call per test."""
    p = np.asarray(values, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise NormalizationError(f"{what}: need a non-empty 1-d probability vector")
    if np.any(p < 0) or not np.all(np.isfinite(p)):
        raise NormalizationError(f"{what}: entries must be finite and >= 0")
    total = float(p.sum())
    if abs(total - 1.0) >= RENORM_LIMIT:
        raise NormalizationError(
            f"{what}: sums to {total!r}, off by more than {RENORM_LIMIT}"
        )
    if abs(total - 1.0) > 0.0:
        p = p / total
    p = p.copy()
    p.setflags(write=False)
    return p


def loss_in_range_reference(t, l_max) -> bool:
    """HypothesisSpace's range check as it was, negated: True where it
    raised no error."""
    return not (np.any(t < 0) or np.any(t > l_max + 1e-12)
                or not np.all(np.isfinite(t)))


def kl_bits_reference(p, q, ref) -> float:
    """rate_distortion._kl_bits as it was, Python's sum over array scalars."""
    return float(sum(p * _rel_entr(q, ref).sum(axis=1))) / math.log(2.0)


def write_csv_reference(path, header, rows):
    """cli._write_csv as it was, every cell through _fmt."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(x) for x in row])


# verify-bound as it ran before its bank was built, fitted and set up as
# stacks: one world at a time, each solved as a bank of one, kept as the
# reference its end-to-end test checks the CLI's bytes against


def verify_bound_rows_reference(cfg):
    """The verify-bound table of a config: its header and rows."""
    seed, count = cfg.get("seed", 0), cfg.get("instances", 20)
    rng = philox_rng(seed)
    world = two_hypothesis_world()
    cases = [("alternating-world", world,
              Posterior.from_rows(np.full((world.n_datasets, 2), 0.5), world))]
    for i in range(count):
        inst = random_instance(rng, n_concepts=int(rng.integers(2, 4)),
                               n_symbols=int(rng.integers(2, 4)),
                               n_hypotheses=int(rng.integers(2, 4)), m=1)
        beta = float(np.exp(rng.uniform(np.log(0.5), np.log(4.0))))
        cases.append((f"random-{i}", inst, fit(LearningRule.gibbs(beta), inst)))
    prior = _get_prior(cfg)
    rows = []
    for name, instance, q_alice in cases:
        grid = _epsilon_grid(cfg, instance.hypotheses.l_max)
        budgets = [0.0] + [eps for eps in grid if eps != 0.0]
        problem = (instance, q_alice, _world_prior(
            prior, q_alice, instance.n_hypotheses, name), budgets)
        points = dict(zip(budgets, _prior_grid([problem],
                                               rate_tol=_VERIFY_RATE_TOL)[0]))
        r_star = points[0.0].rate
        q_measured = rate = None
        for eps in grid:
            point = points[eps]
            if point.q_tilde is not q_measured or point.rate != rate:
                q_measured, rate = point.q_tilde, point.rate
                delta_r = max(r_star - rate, 0.0)
                bound = distortion_rate_bound(delta_r,
                                              instance.hypotheses.l_max)
                measured = d_sem(q_alice, q_measured, instance)
            assert measured <= bound + BOUND_TOL
            rows.append((name, eps, point.rate, r_star, delta_r, bound,
                         measured, bound - measured, True))
    return (["instance_id", "epsilon", "rate_bits", "r_star_bits",
             "delta_r_bits", "bound", "measured", "margin", "ok"], rows)
