"""Model-first vs data-first communication, and the distortion-rate bounds.

Scheme 1 sends the learned belief itself through the rate-constrained
channel. Scheme 2 compresses the dataset with a deterministic map, lets the
receiver rerun the learning rule on the compressed observation, and so
spends part of its information flow on residual data detail the receiver's
model no longer uses. Both sit behind the same bottleneck: the information
the pair (compressed data, refit model) carries about the raw dataset splits
by the chain rule into the model part plus a nonnegative residual, which is
the whole comparison in one identity.

The bound side converts a rate deficit into a distortion ceiling via
Pinsker and Bretagnolle-Huber: L_max * min(sqrt(d/2), sqrt(1 - exp(-d)))
with the deficit d in nats. Solvers report rates in bits, so the public
functions take bits and convert inside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BoundViolationError, InvariantViolationError
from .learning import (LearningRule, Posterior, _rule_rows, d_sem,
                       dataset_scores)
from .rate_distortion import _prior_bank, solve_dr, solve_rd
from .spaces import (
    ProblemInstance,
    _clean_rows,
    mutual_information,
    problem_instance_to_json,
)

LOG2 = math.log(2.0)
CHAIN_RULE_TOL = 1e-8
# slack of the distortion ceiling; rate tolerances of compare_schemes' and
# verify_bound's budget-zero solves
BOUND_TOL, _COMPARE_RATE_TOL, _VERIFY_RATE_TOL = 1e-9, 1e-6, 1e-8


def distortion_rate_bound(delta_r_bits: float, l_max: float = 1.0) -> float:
    """Distortion ceiling for a rate deficit, deficit given in bits."""
    if delta_r_bits < -1e-9:
        raise ValueError(f"rate deficit must be >= 0, got {delta_r_bits}")
    d = max(delta_r_bits, 0.0) * LOG2
    return l_max * min(math.sqrt(d / 2.0), math.sqrt(1.0 - math.exp(-d)))


def distortion_rate_bound_scheme2(delta_r_bits: float, residual_bits: float,
                                  l_max: float = 1.0) -> float:
    """Data-first ceiling: the residual flow is lost to the model too."""
    if residual_bits < -1e-9:
        raise ValueError(f"residual must be >= 0, got {residual_bits}")
    return distortion_rate_bound(delta_r_bits + max(residual_bits, 0.0), l_max)


@dataclass(frozen=True)
class SchemeReport:
    """Side-by-side accounting for one compressor.

    mi_model is the bottleneck information I(S; (S2, H2)) computed from the
    scheme-2 joint, which is what scheme 1 carries when its solution sits on
    the rate boundary; scheme1_rate is the rate scheme 1 actually achieved at
    the budget and boundary_gap = rate_budget - scheme1_rate measures how far
    the boundary premise is from holding.
    """

    compressor: tuple[int, ...]
    mi_model: float
    mi_model2: float
    mi_residual: float
    delta_r: float
    bound1: float
    bound2: float
    measured_distortion: float
    rate_budget: float
    scheme1_rate: float
    boundary_gap: float
    distortion_scheme2: float
    infeasible: bool

    def __post_init__(self):
        if self.mi_residual < -CHAIN_RULE_TOL:
            raise InvariantViolationError(
                f"negative residual information {self.mi_residual}"
            )
        gap = abs(self.mi_model - self.mi_model2 - self.mi_residual)
        if gap > CHAIN_RULE_TOL:
            raise InvariantViolationError(
                f"chain rule off by {gap}: {self.mi_model} vs "
                f"{self.mi_model2} + {self.mi_residual}"
            )


def canonical_partition(labels) -> tuple[int, ...]:
    """Relabel a dataset->cell map by first appearance."""
    seen = {}
    out = []
    for x in labels:
        if x not in seen:
            seen[x] = len(seen)
        out.append(seen[x])
    return tuple(out)


def enumerate_compressors(n_datasets: int):
    """All set partitions of the dataset alphabet as canonical label tuples."""

    def grow(prefix, n_cells):
        if len(prefix) == n_datasets:
            yield tuple(prefix)
            return
        for cell in range(n_cells + 1):
            yield from grow(prefix + [cell], max(n_cells, cell + 1))

    yield from grow([0], 1)


def _refit(instance, rule, labels, scores) -> np.ndarray:
    if rule.kind == "map_table":
        raise ValueError("map_table rules cannot be refit on compressed data")
    if len(labels) != instance.n_datasets:
        raise ValueError("compressor must label every dataset")
    cells = np.asarray(labels)
    member = np.eye(cells.max() + 1)[cells]  # (s, cell)
    mass, count = instance.p_s @ member, member.sum(axis=0)
    # in-cell weights P(s|cell); a cell without mass weighs its datasets evenly
    weights = np.where(mass[cells] > 0, instance.p_s, 1.0) \
        / np.where(mass > 0, mass, count)[cells]
    # cleaned as fit's rows are, so an identity compressor reproduces fit
    return _clean_rows(_rule_rows(rule.kind, rule.beta,
                                  member.T @ (weights[:, None] * scores),
                                  instance.m), "refit row")


def _conditional_mi_given_h(joint3: np.ndarray) -> float:
    """I(S; S2 | H2) from the full three-way joint, summed over h slices."""
    total = 0.0
    p_h = joint3.sum(axis=(0, 1))
    for h in range(joint3.shape[2]):
        if p_h[h] > 0:
            total += p_h[h] * mutual_information(joint3[:, :, h] / p_h[h])
    return float(total)


def compare_schemes(instance: ProblemInstance, q_alice: Posterior,
                    rule: LearningRule, compressors,
                    rate_budget: float | None = None) -> list[SchemeReport]:
    """Account both schemes through each compressor at a matched bottleneck.

    With no explicit budget, the bottleneck is what scheme 2 actually
    carries, I(S; (S2, H2)), so the two schemes are compared at equal flow.
    Scheme 1's distortion at the budget is D(R) from solve_dr. The
    budget-zero reference rate and the dataset scores serve every compressor.
    """
    p0 = solve_rd(instance, q_alice, 0.0, rate_tol=_COMPARE_RATE_TOL)
    scores = dataset_scores(instance)
    n_s = instance.n_datasets
    reports = []
    for rho in compressors:
        labels = canonical_partition(rho)
        rows2 = _refit(instance, rule, labels, scores)
        bob2 = rows2[list(labels)]
        joint3 = np.zeros((n_s, rows2.shape[0], instance.n_hypotheses))
        joint3[np.arange(n_s), labels] = instance.p_s[:, None] * bob2
        mi_pair = mutual_information(joint3.reshape(n_s, -1))
        mi_residual = _conditional_mi_given_h(joint3)
        budget = mi_pair if rate_budget is None else float(rate_budget)
        infeasible = budget < 0.0
        point = p0 if infeasible else solve_dr(instance, q_alice, budget)
        delta_r = max(p0.rate - budget, 0.0)
        reports.append(SchemeReport(
            compressor=labels,
            mi_model=mi_pair,
            mi_model2=mutual_information(joint3.sum(axis=1)),
            mi_residual=mi_residual,
            delta_r=delta_r,
            bound1=distortion_rate_bound(delta_r, instance.hypotheses.l_max),
            bound2=distortion_rate_bound_scheme2(delta_r, mi_residual,
                                                 instance.hypotheses.l_max),
            measured_distortion=point.distortion,
            rate_budget=budget,
            scheme1_rate=point.rate,
            boundary_gap=budget - point.rate,
            distortion_scheme2=d_sem(
                q_alice, Posterior.from_rows(bob2, instance), instance),
            infeasible=infeasible,
        ))
    return reports


class BoundCheckRow(NamedTuple):
    epsilon: float
    rate: float
    r_star: float
    delta_r: float
    bound: float
    measured: float

    @property
    def margin(self) -> float:
        return self.bound - self.measured

    @property
    def ok(self) -> bool:
        return self.measured <= self.bound + BOUND_TOL


def verify_bound(cases) -> list[list[BoundCheckRow]]:
    """Check measured distortion against the rate-deficit ceiling, per budget,
    for each case (instance, q_alice, prior, epsilon_grid) of a bank.

    A case's reference rate is its budget-zero optimum under its prior. The
    whole bank's budgets go to one lockstep call of the prior bank solver,
    which marks the budgets the prior row meets; the checks then run case by
    case, once per distinct point, the marked budgets sharing the case's
    rate-zero row. Measured distortion is recomputed from the distortion
    definition, not read off the solver, so the check crosses two code
    paths. Any violation beyond BOUND_TOL raises at its first budget, with
    the serialized instance and the case's index in the bank attached.
    Returns each case's rows, one per budget.
    """
    grids = [[float(eps) for eps in grid] for *_, grid in cases]
    # a budget of 0 is the reference point itself; the solve is deterministic
    budgets = [[0.0] + [eps for eps in grid if eps != 0.0] for grid in grids]
    solved = _prior_bank(
        [(instance, q_alice, prior, b)
         for (instance, q_alice, prior, _), b in zip(cases, budgets)],
        rate_tol=_VERIFY_RATE_TOL)
    checked = []
    for case, ((instance, q_alice, *_), grid, b, (pts, q_zero, _)) in \
            enumerate(zip(cases, grids, budgets, solved)):
        points = dict(zip(b, pts))
        r_star = 0.0 if pts[0] is None else pts[0].rate
        checks, rows = {}, []  # by id of point; a marked budget's is None
        for eps in grid:
            point = points[eps]
            check = checks.get(id(point))
            if check is None:
                rate, q_tilde = (0.0, q_zero) if point is None else \
                    (point.rate, point.q_tilde)
                delta_r = max(r_star - rate, 0.0)
                bound = distortion_rate_bound(delta_r,
                                              instance.hypotheses.l_max)
                measured = d_sem(q_alice, q_tilde, instance)
                if measured > bound + BOUND_TOL:
                    raise BoundViolationError(
                        f"distortion {measured} exceeds ceiling {bound} + "
                        f"{BOUND_TOL} at eps={eps} (rate {rate}, "
                        f"reference {r_star})",
                        instance_json=problem_instance_to_json(instance),
                        case=case,
                    )
                check = checks[id(point)] = (rate, r_star, delta_r, bound,
                                             measured)
            rows.append(BoundCheckRow(eps, *check))
        checked.append(rows)
    return checked
