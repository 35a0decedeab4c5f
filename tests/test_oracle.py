"""The brute-force oracles themselves: coverage, caps, and cross-checks."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefcomm import (
    Distribution,
    LearningRule,
    effective_distortion_matrix,
    fit,
    mrc_enumeration_oracle,
    problem_instance_from_json,
    problem_instance_to_json,
    random_instance,
    rd_grid_oracle,
    run_example_1,
    sequence_distortion_oracle,
    solve_rd,
    two_hypothesis_world,
)
from beliefcomm.errors import EnumerationCapError
from beliefcomm.oracle import _mi_of_batch, _simplex_grid
from conftest import philox_rng, sharp_sender


def test_simplex_grid_covers_vertices_and_normalizes():
    vals = np.array([0.0, 0.5, 1.0])
    rows = _simplex_grid([vals, vals])
    assert rows.shape == (6, 3)
    np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-12)
    assert (rows >= 0).all()
    for vertex in np.eye(3):
        assert any(np.allclose(r, vertex) for r in rows)


def test_grid_oracle_agrees_with_solver():
    for seed in (3, 7):
        inst, q, span = sharp_sender(seed)
        eps = 0.4 * span
        assert abs(rd_grid_oracle(inst, q, eps) - solve_rd(inst, q, eps).rate) \
            < 1e-3


def test_grid_oracle_agrees_on_skewed_masses():
    """Regression: a heavy/light dataset split pushes the optimum far from
    the nearest coarse grid point, which only the boundary-landing
    augmentation recovers."""
    inst, q, span = sharp_sender(9)
    assert inst.p_s.max() > 0.9
    eps = 0.4 * span
    assert abs(rd_grid_oracle(inst, q, eps) - solve_rd(inst, q, eps).rate) \
        < 1e-3


def test_grid_oracle_agrees_on_wider_alphabets():
    inst, q, span = sharp_sender(1, n_symbols=2, n_hypotheses=3)
    eps = 0.5 * span
    assert abs(rd_grid_oracle(inst, q, eps) - solve_rd(inst, q, eps).rate) \
        < 1e-3


def test_grid_oracle_zero_rate_past_the_span():
    inst, q, span = sharp_sender(2)
    assert rd_grid_oracle(inst, q, span + 0.01) == 0.0


def test_grid_oracle_dimension_cap():
    rng = philox_rng(0)
    from beliefcomm import LearningRule, fit, random_instance

    inst = random_instance(rng, n_concepts=2, n_symbols=3, n_hypotheses=3, m=1)
    q = fit(LearningRule.gibbs(1.0), inst)
    with pytest.raises(EnumerationCapError):
        rd_grid_oracle(inst, q, 0.1)  # 3 datasets x 2 free coords = 6 > 4


def test_grid_oracle_state_budget():
    inst, q, span = sharp_sender(2)
    with pytest.raises(EnumerationCapError):
        rd_grid_oracle(inst, q, 0.4 * span, max_states=10)


def test_grid_oracle_reports_infeasible_budgets():
    inst, q, _ = sharp_sender(2)
    with pytest.raises(EnumerationCapError, match="feasible"):
        rd_grid_oracle(inst, q, -10.0)


def test_grid_oracle_on_one_hypothesis_is_zero():
    """Regression: with no free coordinate the grid was empty and the first
    pass raised IndexError; it is now the single point-mass row."""
    inst = random_instance(philox_rng(5), n_concepts=2, n_symbols=3,
                           n_hypotheses=1, m=1)
    q = fit(LearningRule.gibbs(1.0), inst)
    for eps in (0.0, 0.5):
        assert rd_grid_oracle(inst, q, eps) == 0.0


def _reference_grid_oracle(instance, q_sender, epsilon):
    """The grid oracle as it was first written, kept as the slow path: a
    coarse exhaustive round, then refinement rounds that build every
    boundary-augmented batch, concatenate them and price the stack again."""

    def simplex_grid(values_per_coord):
        combos = np.array(list(itertools.product(*values_per_coord)))
        if combos.size == 0:
            combos = combos.reshape(0, len(values_per_coord))
        tail = 1.0 - combos.sum(axis=1)
        ok = tail >= -1e-12
        combos = combos[ok]
        tail = np.clip(tail[ok], 0.0, None)
        return np.column_stack([combos, tail])

    dmat, baseline = effective_distortion_matrix(instance, q_sender)
    keep = np.flatnonzero(instance.p_s > 0)
    p = instance.p_s[keep]
    dk = dmat[keep]
    n_s, n_h = len(keep), instance.n_hypotheses

    def evaluate(row_grids):
        counts = [len(g) for g in row_grids]
        idx = np.array(list(itertools.product(*[range(c) for c in counts])))
        q_batch = np.stack(
            [row_grids[s][idx[:, s]] for s in range(n_s)], axis=1
        )
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

    best = None
    for h in range(n_h):
        const = np.tile(np.eye(n_h)[h], (n_s, 1))
        dist = float(np.einsum("s,sh,sh->", p, const, dk)) - baseline
        if dist <= epsilon + 1e-12:
            best = (0.0, const)
            break
    step = 1.0 / 24.0
    grids = [
        simplex_grid([np.arange(0.0, 1.0 + 1e-12, step)] * (n_h - 1))
        for _ in range(n_s)
    ]
    found = evaluate(grids)
    if found is not None and (best is None or found[0] < best[0]):
        best = found
    while step > 1e-3 / 100.0:
        if best is None:
            return None
        center = best[1]
        new_step = step / 6.0
        grids = []
        for s in range(n_s):
            per_coord = []
            for j in range(n_h - 1):
                c = center[s, j]
                vals = np.arange(c - 2.0 * step, c + 2.0 * step + 1e-12, new_step)
                per_coord.append(np.clip(vals, 0.0, 1.0))
            grids.append(simplex_grid(per_coord))
        found = evaluate(grids)
        if found is not None and found[0] < best[0]:
            best = found
        step = new_step
    return max(best[0], 0.0)


@st.composite
def _small_worlds(draw):
    """A world with at most two free grid dimensions (two live datasets at
    |H| = 2, or one at |H| = 2 or 3) plus up to two samples of zero mass,
    its erm sender, and a budget from 0 to 1.2 times the span (the span is
    0 when no sender beats the best constant reply)."""
    n_h, n_live = draw(st.sampled_from([(2, 2), (2, 1), (3, 1)]))
    seed = draw(st.integers(0, 2**32 - 1))
    if n_live == 2:
        inst = sharp_sender(seed)[0]
    else:
        inst = random_instance(philox_rng(seed), n_concepts=3, n_symbols=1,
                               n_hypotheses=n_h, m=1)
    obj = problem_instance_to_json(inst)
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(obj["samples"])))
        obj["samples"].insert(at, f"dead{len(obj['samples'])}")
        for row in obj["data_law"]:
            row.insert(at, 0.0)
        for rows in obj["loss"]:
            for row in rows:
                row.insert(at, draw(st.floats(0.0, 1.0)))
    inst = problem_instance_from_json(obj)
    q = fit(LearningRule.erm(), inst)
    dmat, base = effective_distortion_matrix(inst, q)
    span = max(float((inst.p_s @ dmat).min()) - base, 0.0)
    return inst, q, draw(st.floats(0.0, 1.2)) * span


@settings(derandomize=True, deadline=None, max_examples=400)
@given(case=_small_worlds())
def test_grid_oracle_equals_the_concatenating_reference(case):
    """Scoring each batch where it is built, with the coarse grid as the
    first refinement pass, returns the reference's value to the bit."""
    inst, q, eps = case
    assert rd_grid_oracle(inst, q, eps) == _reference_grid_oracle(inst, q, eps)


def test_mrc_oracle_budget_cap():
    q = Distribution([0.9, 0.1])
    p = Distribution([0.5, 0.5])
    with pytest.raises(EnumerationCapError):
        mrc_enumeration_oracle(q, p, 8, max_states=100)


def test_mrc_oracle_caps_its_recursion_depth_on_one_hypothesis():
    """Regression: at |H| = 1 there is one candidate tuple at any K, so the
    tuple count never hit the cap and K = 2,048 recursed past Python's
    limit. max(|H|, 2)^K is capped instead: K <= log2(1e7) runs."""
    one = Distribution([1.0])
    assert mrc_enumeration_oracle(one, one, 23).probs.tolist() == [1.0]
    for k in (24, 2048, 2**22):
        with pytest.raises(EnumerationCapError):
            mrc_enumeration_oracle(one, one, k)


def test_sequence_oracle_on_the_walkthrough_trace():
    res = run_example_1(4)
    avg, worst = sequence_distortion_oracle(res.alice_rows, res.bob_rows,
                                            two_hypothesis_world())
    assert abs(avg - 0.0) < 1e-12
    assert abs(worst - 0.5) < 1e-12
