"""Brute-force oracles for auditing the analytic code paths.

Each oracle recomputes a quantity the library gets by a clever route, using
the dumbest correct method that fits in a state budget: simplex grids for
the rate solvers, tuple recursion for the coder's output law, and raw loss
sums for sequence distortion. They share only the basic containers with the
modules they check, never the algorithms.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EnumerationCapError
from .spaces import Distribution, ProblemInstance

LOG2 = math.log(2.0)


@dataclass(frozen=True)
class OracleBudget:
    max_states: int = 10**7
    grid_step: float = 1e-3


def _simplex_grid(values_per_coord: list[np.ndarray]) -> np.ndarray:
    """Cartesian product of free-coordinate values, kept inside the simplex.

    Rows are full probability vectors: free coordinates plus the implied
    last entry.
    """
    combos = np.array(list(itertools.product(*values_per_coord)))
    if combos.size == 0:
        combos = combos.reshape(0, len(values_per_coord))
    tail = 1.0 - combos.sum(axis=1)
    ok = tail >= -1e-12
    combos = combos[ok]
    tail = np.clip(tail[ok], 0.0, None)
    return np.column_stack([combos, tail])


def _mi_of_batch(p: np.ndarray, q_batch: np.ndarray) -> np.ndarray:
    """I(S;H) in bits for a batch of conditional row stacks (B, n_s, n_h)."""
    marg = np.einsum("s,bsh->bh", p, q_batch)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.log(q_batch) - np.log(marg[:, None, :])
        terms = np.where(q_batch > 0, q_batch * ratio, 0.0)
    return np.einsum("s,bsh->b", p, terms) / LOG2


def rd_grid_oracle(instance: ProblemInstance, q_sender, epsilon: float,
                   budget: OracleBudget = OracleBudget()) -> float:
    """Min mutual information over feasible gridded conditionals.

    Starts from a coarse exhaustive grid and refines a box around the best
    feasible point, ending at a local step at most grid_step/100, so the
    value is a tight upper estimate of the true optimum. Free dimensions
    (positive-mass datasets times hypotheses minus one) are capped at 4.
    """
    from .learning import effective_distortion_matrix

    dmat, baseline = effective_distortion_matrix(instance, q_sender)
    p_s = instance.p_s
    keep = np.flatnonzero(p_s > 0)
    p = p_s[keep]
    dk = dmat[keep]
    n_s, n_h = len(keep), instance.n_hypotheses
    free = n_s * (n_h - 1)
    if free > 4:
        raise EnumerationCapError(
            f"grid oracle limited to 4 free dimensions, got {free}"
        )

    def evaluate(row_grids):
        """All row combinations from per-dataset row menus; returns best.

        Each combination is also augmented, one free coordinate at a time,
        with the value that lands exactly on the distortion boundary (the
        constraint is affine in any single coordinate, mass moving against
        the last hypothesis). Without this the best grid point can sit far
        from a boundary optimum whenever dataset masses are very skewed.
        """
        counts = [len(g) for g in row_grids]
        states = int(np.prod(counts)) * (free + 1)
        if states > budget.max_states:
            raise EnumerationCapError(
                f"grid round needs {states} states, budget {budget.max_states}"
            )
        idx = np.array(list(itertools.product(*[range(c) for c in counts])))
        q_batch = np.stack(
            [row_grids[s][idx[:, s]] for s in range(n_s)], axis=1
        )  # (B, n_s, n_h)
        pieces = [q_batch]
        dist = np.einsum("s,bsh,sh->b", p, q_batch, dk) - baseline
        for s in range(n_s):
            for j in range(n_h - 1):
                slope = p[s] * (dk[s, j] - dk[s, n_h - 1])
                if abs(slope) < 1e-15:
                    continue
                moved = q_batch.copy()
                shift = (epsilon - dist) / slope
                v = np.clip(moved[:, s, j] + shift, 0.0,
                            moved[:, s, j] + moved[:, s, n_h - 1])
                # the rebalanced tail can pick up -1e-16 of dust, and a
                # negative marginal would poison the log in the rate
                moved[:, s, n_h - 1] = np.maximum(
                    moved[:, s, n_h - 1] + moved[:, s, j] - v, 0.0
                )
                moved[:, s, j] = v
                pieces.append(moved)
        q_all = np.concatenate(pieces, axis=0)
        dist_all = np.einsum("s,bsh,sh->b", p, q_all, dk) - baseline
        feas = dist_all <= epsilon + 1e-12
        if not np.any(feas):
            return None
        rates = _mi_of_batch(p, q_all[feas])
        j = int(np.argmin(rates))
        return float(rates[j]), q_all[feas][j]

    # Always consider the exact constant rows: rate 0 when feasible.
    best = None
    for h in range(n_h):
        const = np.tile(np.eye(n_h)[h], (n_s, 1))
        dist = float(np.einsum("s,sh,sh->", p, const, dk)) - baseline
        if dist <= epsilon + 1e-12:
            best = (0.0, const)
            break

    step = 1.0 / 24.0
    grids = [
        _simplex_grid([np.arange(0.0, 1.0 + 1e-12, step)] * (n_h - 1))
        for _ in range(n_s)
    ]
    found = evaluate(grids)
    if found is not None and (best is None or found[0] < best[0]):
        best = found
    while step > budget.grid_step / 100.0:
        if best is None:
            raise EnumerationCapError(
                "no feasible grid point found; loosen the budget or step"
            )
        center = best[1]
        new_step = step / 6.0
        grids = []
        for s in range(n_s):
            per_coord = []
            for j in range(n_h - 1):
                c = center[s, j]
                vals = np.arange(c - 2.0 * step, c + 2.0 * step + 1e-12, new_step)
                per_coord.append(np.clip(vals, 0.0, 1.0))
            grids.append(_simplex_grid(per_coord))
        found = evaluate(grids)
        if found is not None and found[0] < best[0]:
            best = found
        step = new_step
    if best is None:
        raise EnumerationCapError("no feasible grid point found")
    return max(best[0], 0.0)


def mrc_enumeration_oracle(q: Distribution, p: Distribution, n_candidates: int,
                           budget: OracleBudget = OracleBudget()) -> Distribution:
    """Coder output law by recursing over ordered candidate tuples.

    The recursion is K deep and visits |H|^K tuples; both are bounded by
    refusing max(|H|, 2)^K above the budget. K is tested against
    log2(max_states) first, so no huge power is formed.
    """
    n = len(p)
    base = max(n, 2)
    if n_candidates > math.log2(budget.max_states) \
            or base**n_candidates > budget.max_states:
        raise EnumerationCapError(
            f"max(|H|, 2)^K = {base}^{n_candidates} exceeds budget "
            f"{budget.max_states}"
        )
    out = np.zeros(n)
    ratio = [q.probs[h] / p.probs[h] if p.probs[h] > 0 else 0.0 for h in range(n)]

    def rec(depth, prob, cands):
        if prob == 0.0:
            return
        if depth == n_candidates:
            weights = [ratio[h] for h in cands]
            total = sum(weights)
            if total > 0:
                for h, w in zip(cands, weights):
                    out[h] += prob * w / total
            else:
                for h in cands:
                    out[h] += prob / n_candidates
            return
        for h in range(n):
            rec(depth + 1, prob * p.probs[h], cands + (h,))

    rec(0, 1.0, ())
    return Distribution(out)


def sequence_distortion_oracle(trace, instance: ProblemInstance) -> tuple[float, float]:
    """(average, worst) per-position distortion from raw loss sums.

    Scalar loops over concepts, hypotheses, and samples; no effective
    matrices, no shortcuts shared with the checked code.
    """
    law = instance.concepts.data_law
    loss = instance.hypotheses.loss
    prior = instance.concepts.prior.probs
    vals = []
    for i in range(trace.n):
        v = 0.0
        for c in range(instance.concepts.n_concepts):
            for h in range(instance.n_hypotheses):
                risk = 0.0
                for z in range(instance.concepts.n_symbols):
                    risk += law[c, z] * loss[c, h, z]
                v += prior[c] * (trace.bob_rows[i, h] - trace.alice_rows[i, h]) * risk
        vals.append(v)
    return float(np.mean(vals)), float(np.max(vals))
