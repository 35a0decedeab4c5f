"""Scheme comparison and the rate-deficit distortion ceilings."""

import math

import numpy as np
import pytest

from beliefcomm import (
    Distribution,
    LearningRule,
    compare_schemes,
    distortion_rate_bound,
    d_sem,
    distortion_rate_bound_scheme2,
    effective_distortion_matrix,
    enumerate_compressors,
    fit,
    random_instance,
    refit_on_compressed,
    solve_rd_with_prior,
    verify_bound,
)
from beliefcomm.errors import InvariantViolationError
from beliefcomm.schemes import BoundCheckRow, SchemeReport, canonical_partition
from conftest import sharp_sender

LOG2 = math.log(2.0)


def test_bound_picks_the_tighter_branch():
    # small deficit: Pinsker wins; two nats: Bretagnolle-Huber wins
    assert distortion_rate_bound(0.5) == pytest.approx(
        math.sqrt(0.25 * LOG2), abs=1e-15
    )
    assert distortion_rate_bound(2.0 / LOG2) == pytest.approx(
        math.sqrt(1.0 - math.exp(-2.0)), abs=1e-15
    )


def test_bound_edges_and_scaling():
    assert distortion_rate_bound(0.0) == 0.0
    assert distortion_rate_bound(0.3, l_max=3.0) == pytest.approx(
        3.0 * distortion_rate_bound(0.3)
    )
    # saturates at l_max instead of growing without limit
    assert distortion_rate_bound(1000.0) <= 1.0
    assert distortion_rate_bound(1000.0) > 0.999
    grid = [distortion_rate_bound(x) for x in np.linspace(0.0, 5.0, 40)]
    assert all(b - a >= -1e-12 for a, b in zip(grid, grid[1:]))
    with pytest.raises(ValueError):
        distortion_rate_bound(-0.1)


def test_scheme2_bound_charges_the_residual():
    assert distortion_rate_bound_scheme2(0.4, 0.3) == pytest.approx(
        distortion_rate_bound(0.7)
    )
    assert distortion_rate_bound_scheme2(0.4, 0.0) == distortion_rate_bound(0.4)
    with pytest.raises(ValueError):
        distortion_rate_bound_scheme2(0.4, -0.2)


def test_canonical_partition_relabels_by_first_appearance():
    assert canonical_partition(["b", "a", "b"]) == (0, 1, 0)
    assert canonical_partition((2, 2, 5)) == (0, 0, 1)
    assert canonical_partition((0, 1, 2)) == (0, 1, 2)


def test_enumerate_compressors_counts_set_partitions():
    # Bell numbers 1, 2, 5, 15
    for n, bell in [(1, 1), (2, 2), (3, 5), (4, 15)]:
        parts = list(enumerate_compressors(n))
        assert len(parts) == bell
        assert len(set(parts)) == bell
        for p in parts:
            assert canonical_partition(p) == p
    assert (0, 1, 2) in list(enumerate_compressors(3))
    assert (0, 0, 0) in list(enumerate_compressors(3))


def test_refit_on_identity_compressor_reproduces_fit():
    rng = np.random.default_rng(11)
    inst = random_instance(rng, n_concepts=2, n_symbols=2, n_hypotheses=3, m=1)
    for rule in (LearningRule.gibbs(1.3), LearningRule.erm()):
        rows = refit_on_compressed(inst, rule, tuple(range(inst.n_datasets)))
        np.testing.assert_array_equal(rows, fit(rule, inst).rows)


def test_refit_rows_are_distributions_and_merge_shrinks():
    rng = np.random.default_rng(4)
    inst = random_instance(rng, n_concepts=2, n_symbols=2, n_hypotheses=2, m=2)
    assert inst.n_datasets == 4
    rows = refit_on_compressed(inst, LearningRule.gibbs(2.0), (0, 0, 1, 1))
    assert rows.shape == (2, inst.n_hypotheses)
    np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-12)
    with pytest.raises(ValueError):
        refit_on_compressed(inst, LearningRule.gibbs(2.0), (0, 0, 1))
    with pytest.raises(ValueError):
        refit_on_compressed(
            inst, LearningRule.map_table(np.full((inst.n_datasets, 2), 0.5)),
            (0, 0, 1, 1),
        )


def _report_kwargs(**over):
    base = dict(
        compressor=(0, 1), mi_model=0.5, mi_model2=0.3, mi_residual=0.2,
        delta_r=0.1, bound1=0.1, bound2=0.2, measured_distortion=0.05,
        rate_budget=0.5, scheme1_rate=0.5, boundary_gap=0.0,
        distortion_scheme2=0.07, infeasible=False,
    )
    base.update(over)
    return base


def test_scheme_report_enforces_chain_rule():
    SchemeReport(**_report_kwargs())  # consistent: 0.5 = 0.3 + 0.2
    with pytest.raises(InvariantViolationError):
        SchemeReport(**_report_kwargs(mi_residual=0.1))
    with pytest.raises(InvariantViolationError):
        SchemeReport(**_report_kwargs(mi_model2=0.6, mi_residual=-0.1))


def test_compare_schemes_model_first_dominates_at_matched_flow():
    """Scheme 1 at the flow scheme 2 carries is never worse in distortion.

    The refit rows are feasible for the model-first problem at that budget,
    so the optimum can only improve on them.
    """
    for seed in range(4):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, n_concepts=3, n_symbols=2,
                               n_hypotheses=2, m=1, concentration=0.4)
        rule = LearningRule.gibbs(2.0) if seed % 2 else LearningRule.erm()
        q = fit(rule, inst)
        for rep in compare_schemes(inst, q, rule,
                                   enumerate_compressors(inst.n_datasets)):
            assert rep.mi_residual >= 0.0
            assert rep.mi_model == pytest.approx(
                rep.mi_model2 + rep.mi_residual, abs=1e-8
            )
            assert rep.bound2 >= rep.bound1 - 1e-12
            assert rep.boundary_gap >= 0.0
            assert rep.measured_distortion <= rep.distortion_scheme2 + 1e-4
            assert not rep.infeasible


def test_compare_schemes_zero_budget_uses_full_deficit():
    rng = np.random.default_rng(2)
    inst = random_instance(rng, n_concepts=2, n_symbols=2, n_hypotheses=2, m=1)
    rule = LearningRule.gibbs(1.0)
    q = fit(rule, inst)
    rep, = compare_schemes(inst, q, rule, [(0,) * inst.n_datasets],
                           rate_budget=0.0)
    assert rep.rate_budget == 0.0
    assert rep.delta_r >= 0.0
    assert rep.bound1 == pytest.approx(
        distortion_rate_bound(rep.delta_r, inst.hypotheses.l_max)
    )
    with pytest.raises(ValueError):
        # one label too many
        compare_schemes(inst, q, rule, [(0,) * (inst.n_datasets + 1)])


def test_bound_check_row_margin_and_ok():
    row = BoundCheckRow(epsilon=0.1, rate=0.2, r_star=0.5, delta_r=0.3,
                        bound=0.4, measured=0.35)
    assert row.margin == pytest.approx(0.05)
    assert row.ok
    bad = BoundCheckRow(epsilon=0.1, rate=0.2, r_star=0.5, delta_r=0.3,
                        bound=0.4, measured=0.45)
    assert not bad.ok


def test_verify_bound_clean_on_random_instances():
    for seed in (3, 11):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, n_concepts=2, n_symbols=2,
                               n_hypotheses=2, m=1)
        q = fit(LearningRule.gibbs(1.0), inst)
        prior = Distribution(q.marginal.probs)
        rows = verify_bound(inst, q, prior, [0.0, 0.02, 0.05, 0.1])
        assert len(rows) == 4
        assert all(r.ok for r in rows)
        assert len({r.r_star for r in rows}) == 1
        assert all(r.margin >= -1e-9 for r in rows)


def test_verify_bound_solves_the_budget_zero_point_once(monkeypatch):
    """A grid that starts at 0 reuses the reference solve: the grid solver
    gets each budget once."""
    from beliefcomm import schemes

    calls = []

    def counted(instance, q_sender, prior, epsilons, **kwargs):
        calls.extend(epsilons)
        return solve(instance, q_sender, prior, epsilons, **kwargs)

    solve = schemes._prior_grid
    monkeypatch.setattr(schemes, "_prior_grid", counted)
    inst = random_instance(np.random.default_rng(3), n_concepts=2,
                           n_symbols=2, n_hypotheses=2, m=1)
    q = fit(LearningRule.gibbs(1.0), inst)
    grid = [0.0, 0.02, 0.05, 0.1]
    rows = verify_bound(inst, q, q.marginal, grid)
    assert len(calls) == len(grid)
    assert sorted(calls) == grid
    # the reused point is the one a fresh budget-zero solve returns
    assert rows[0].rate == rows[0].r_star == \
        solve_rd_with_prior(inst, q, 0.0, q.marginal, rate_tol=1e-8).rate


def test_verify_bound_rows_match_one_budget_solves():
    """Each row's rate and measured distortion are those of a solve of its
    budget alone, on a grid past the prior row's own distortion, where the
    points share one row and one measurement."""
    inst, q, _ = sharp_sender(11)
    dmat, base = effective_distortion_matrix(inst, q)
    delta_prior = float(inst.p_s @ (dmat @ q.marginal.probs)) - base
    grid = [f * delta_prior for f in (0.0, 0.25, 0.5, 1.0, 1.5, 3.0)]
    for eps, row in zip(grid, verify_bound(inst, q, q.marginal, grid)):
        pt = solve_rd_with_prior(inst, q, eps, q.marginal, rate_tol=1e-8)
        assert (row.epsilon, row.rate, row.measured) == \
            (eps, pt.rate, d_sem(q, pt.q_tilde, inst))
