"""The brute-force oracles themselves: coverage, caps, and cross-checks."""

import numpy as np
import pytest

from beliefcomm import (
    Distribution,
    OracleBudget,
    mrc_enumeration_oracle,
    rd_grid_oracle,
    run_example_1,
    sequence_distortion_oracle,
    solve_rd,
    two_hypothesis_world,
)
from beliefcomm.errors import EnumerationCapError
from beliefcomm.oracle import _simplex_grid
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
        rd_grid_oracle(inst, q, 0.4 * span, budget=OracleBudget(max_states=10))


def test_grid_oracle_reports_infeasible_budgets():
    inst, q, _ = sharp_sender(2)
    with pytest.raises(EnumerationCapError, match="feasible"):
        rd_grid_oracle(inst, q, -10.0)


def test_mrc_oracle_budget_cap():
    q = Distribution([0.9, 0.1])
    p = Distribution([0.5, 0.5])
    with pytest.raises(EnumerationCapError):
        mrc_enumeration_oracle(q, p, 8, budget=OracleBudget(max_states=100))


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
    avg, worst = sequence_distortion_oracle(res.trace, two_hypothesis_world())
    assert abs(avg - 0.0) < 1e-12
    assert abs(worst - 0.5) < 1e-12
