"""Brute-force oracles for auditing the analytic code paths.

Each oracle recomputes a quantity the library gets by a clever route, using
the dumbest correct method that fits in a state budget: simplex grids for
the rate solvers, tuple recursion for the coder's output law, and raw loss
sums for sequence distortion. They share only the basic containers with the
modules they check, never the algorithms.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EnumerationCapError
from .spaces import Distribution, ProblemInstance

LOG2 = math.log(2.0)
# the grid oracle's passes stop below this step, and its grid has at most
# this many free dimensions (positive-mass datasets times |H| - 1)
_GRID_STOP = 1e-5
_MAX_FREE_DIMS = 4


def _simplex_grid(values_per_coord: list[np.ndarray]) -> np.ndarray:
    """Cartesian product of free-coordinate values, kept inside the simplex.

    Rows are full probability vectors: free coordinates plus the implied
    last entry. With no free coordinate the grid is the point mass [1].
    """
    n = math.prod(len(v) for v in values_per_coord)
    combos = np.reshape(np.meshgrid(*values_per_coord, indexing="ij"),
                        (len(values_per_coord), n)).T
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
                   max_states: int = 10**7) -> float:
    """Min mutual information over feasible gridded conditionals.

    Each pass grids a box of half-width two old steps around the best
    feasible point at a sixth of the old step; the first pass, around 1/2
    with half-width 1/2, is the coarse exhaustive grid at step 1/24. Passes
    end below a step of 1e-5, so the value is a tight upper estimate of the
    true optimum. Free dimensions (positive-mass datasets times hypotheses
    minus one) are capped at 4.
    """
    from .learning import effective_distortion_matrix

    dmat, baseline = effective_distortion_matrix(instance, q_sender)
    p_s = instance.p_s
    keep = np.flatnonzero(p_s > 0)
    p = p_s[keep]
    dk = dmat[keep]
    n_s, n_h = len(keep), instance.n_hypotheses
    free = n_s * (n_h - 1)
    if free > _MAX_FREE_DIMS:
        raise EnumerationCapError(
            f"grid oracle limited to {_MAX_FREE_DIMS} free dimensions, "
            f"got {free}"
        )

    def evaluate(row_grids, best):
        """All row combinations from per-dataset row menus; returns best.

        Each combination is also augmented, one free coordinate at a time,
        with the value that lands exactly on the distortion boundary (the
        constraint is affine in any single coordinate, mass moving against
        the last hypothesis). Without this the best grid point can sit far
        from a boundary optimum whenever dataset masses are very skewed.
        The base batch, then each augmented one, is scored as it is built;
        a batch replaces best only with a strictly lower rate.
        """
        counts = [len(g) for g in row_grids]
        states = math.prod(counts) * (free + 1)
        if states > max_states:
            raise EnumerationCapError(
                f"grid round needs {states} states, budget {max_states}"
            )
        idx = np.indices(counts).reshape(n_s, -1)
        base = np.stack([g[i] for g, i in zip(row_grids, idx)],
                        axis=1)  # (B, n_s, n_h)
        base_dist = np.einsum("s,bsh,sh->b", p, base, dk) - baseline
        for move in [None, *np.ndindex(n_s, n_h - 1)]:
            q_batch, dist = base, base_dist
            if move is not None:
                s, j = move
                slope = p[s] * (dk[s, j] - dk[s, n_h - 1])
                if abs(slope) < 1e-15:
                    continue
                q_batch = base.copy()
                v = np.clip(base[:, s, j] + (epsilon - base_dist) / slope,
                            0.0, base[:, s, j] + base[:, s, n_h - 1])
                # the rebalanced tail can pick up -1e-16 of dust, and a
                # negative marginal would poison the log in the rate
                q_batch[:, s, n_h - 1] = np.maximum(
                    base[:, s, n_h - 1] + base[:, s, j] - v, 0.0
                )
                q_batch[:, s, j] = v
                dist = np.einsum("s,bsh,sh->b", p, q_batch, dk) - baseline
            feas = dist <= epsilon + 1e-12
            if not np.any(feas):
                continue
            rates = _mi_of_batch(p, q_batch[feas])
            k = int(np.argmin(rates))
            if best is None or rates[k] < best[0]:
                best = float(rates[k]), q_batch[feas][k]
        return best

    # Always consider the exact constant rows: rate 0 when feasible.
    best = None
    for h in range(n_h):
        const = np.tile(np.eye(n_h)[h], (n_s, 1))
        dist = float(np.einsum("s,sh,sh->", p, const, dk)) - baseline
        if dist <= epsilon + 1e-12:
            best = (0.0, const)
            break

    center = np.full((n_s, n_h), 0.5)
    step = 0.25
    while step > _GRID_STOP:
        new_step = step / 6.0
        grids = [
            _simplex_grid([np.clip(np.arange(c - 2.0 * step,
                                             c + 2.0 * step + 1e-12, new_step),
                                   0.0, 1.0) for c in row[:-1]])
            for row in center
        ]
        best = evaluate(grids, best)
        if best is None:
            raise EnumerationCapError(
                "no feasible grid point found; loosen the budget"
            )
        center = best[1]
        step = new_step
    return max(best[0], 0.0)


def mrc_enumeration_oracle(q: Distribution, p: Distribution, n_candidates: int,
                           max_states: int = 10**7) -> Distribution:
    """Coder output law by recursing over ordered candidate tuples.

    The recursion is K deep and visits |H|^K tuples; both are bounded by
    refusing max(|H|, 2)^K above max_states. K is tested against
    log2(max_states) first, so no huge power is formed.
    """
    n = len(p)
    base = max(n, 2)
    if n_candidates > math.log2(max_states) \
            or base**n_candidates > max_states:
        raise EnumerationCapError(
            f"max(|H|, 2)^K = {base}^{n_candidates} exceeds budget "
            f"{max_states}"
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


def sequence_distortion_oracle(alice_rows, bob_rows,
                               instance: ProblemInstance) -> tuple[float, float]:
    """(average, worst) per-position distortion from raw loss sums.

    alice_rows and bob_rows are the (n, |H|) row stacks of the two ends;
    stacks of different shapes are refused. Scalar loops over concepts,
    hypotheses, and samples; no effective matrices, no shortcuts shared with
    the checked code.
    """
    alice = np.asarray(alice_rows, dtype=float)
    bob = np.asarray(bob_rows, dtype=float)
    if alice.shape != bob.shape:
        raise ValueError(f"row stacks disagree: {alice.shape} vs {bob.shape}")
    law = instance.concepts.data_law
    loss = instance.hypotheses.loss
    prior = instance.concepts.prior.probs
    vals = []
    for i in range(len(alice)):
        v = 0.0
        for c in range(instance.concepts.n_concepts):
            for h in range(instance.n_hypotheses):
                risk = 0.0
                for z in range(instance.concepts.n_symbols):
                    risk += law[c, z] * loss[c, h, z]
                v += prior[c] * (bob[i, h] - alice[i, h]) * risk
        vals.append(v)
    return float(np.mean(vals)), float(np.max(vals))
