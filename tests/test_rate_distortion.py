"""Rate-distortion solvers: identities, invariants, and oracle agreement."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import rel_entr

from beliefcomm import (
    Distribution,
    LearningRule,
    Posterior,
    RDCurve,
    RDPoint,
    effective_distortion_matrix,
    fit,
    kl_rate,
    mutual_information,
    random_instance,
    rd_curve,
    rd_grid_oracle,
    solve_rd,
    solve_rd_with_prior,
    two_hypothesis_world,
)
from beliefcomm.errors import InvariantViolationError, SupportViolationError
from beliefcomm.rate_distortion import _kl_bits
from conftest import philox_rng as _rng, sharp_sender as _sharp_sender


def test_kl_rate_with_own_marginal_is_mutual_information():
    rng = _rng(1)
    inst = random_instance(rng, n_concepts=2, n_symbols=3, n_hypotheses=3, m=1)
    q = fit(LearningRule.gibbs(2.0), inst)
    joint = inst.p_s[:, None] * q.rows
    assert abs(kl_rate(q, q.marginal, inst) - mutual_information(joint)) < 1e-12


def test_kl_rate_penalty_decomposition():
    # E_S KL(q_s || prior) = I(S;H) + KL(marginal || prior)
    from beliefcomm import kl_divergence

    rng = _rng(2)
    inst = random_instance(rng, n_concepts=2, n_symbols=2, n_hypotheses=3, m=1)
    q = fit(LearningRule.gibbs(1.5), inst)
    prior = Distribution(rng.dirichlet(np.ones(3) * 5.0))
    joint = inst.p_s[:, None] * q.rows
    lhs = kl_rate(q, prior, inst)
    rhs = mutual_information(joint) + kl_divergence(q.marginal, prior)
    assert abs(lhs - rhs) < 1e-12


def test_kl_rate_support_violation():
    w = two_hypothesis_world()
    q = Posterior.from_rows(np.array([[0.5, 0.5], [0.5, 0.5]]), w)
    with pytest.raises(SupportViolationError):
        kl_rate(q, Distribution([1.0, 0.0]), w)


def test_rdpoint_rejects_negative_rate():
    with pytest.raises(InvariantViolationError):
        RDPoint(epsilon=0.1, rate=-0.5, distortion=0.05, slope=1.0,
                q_tilde=None, iterations=0, duality_gap=0.0)


def test_rate_zero_when_budget_above_best_constant():
    inst, q, span = _sharp_sender(0)
    pt = solve_rd(inst, q, span + 0.01)
    assert pt.rate == 0.0
    assert pt.distortion <= span + 0.01 + 1e-12


def test_solve_rd_monotone_in_epsilon():
    inst, q, span = _sharp_sender(1)
    eps = np.linspace(0.0, span * 1.1, 6)
    rates = [solve_rd(inst, q, float(e)).rate for e in eps]
    for a, b in zip(rates, rates[1:]):
        assert b <= a + 1e-9


def test_solve_rd_epsilon_zero_receiver_matches_sender_value():
    # at budget zero the receiver must do at least as well as the sender;
    # its rate cannot exceed the sender's own mutual information
    inst, q, _ = _sharp_sender(2)
    pt = solve_rd(inst, q, 0.0)
    assert pt.distortion <= 1e-12  # exact up to blend arithmetic dust
    joint = inst.p_s[:, None] * q.rows
    assert pt.rate <= mutual_information(joint) + 1e-9


def test_solve_rd_agrees_with_grid_oracle():
    inst, q, span = _sharp_sender(3)
    for frac in (0.2, 0.6, 1.0):
        eps = frac * span * 0.9
        pt = solve_rd(inst, q, eps)
        oracle = rd_grid_oracle(inst, q, eps)
        assert abs(pt.rate - oracle) < 1e-3


def test_solve_rd_duality_gap_is_small():
    inst, q, span = _sharp_sender(4)
    pt = solve_rd(inst, q, 0.4 * span)
    assert pt.duality_gap < 1e-4


def test_negative_epsilon_rejected():
    w = two_hypothesis_world()
    q = Posterior.from_rows(np.full((2, 2), 0.5), w)
    with pytest.raises(ValueError):
        solve_rd(w, q, -0.01)


def test_nan_epsilon_rejected():
    """A NaN budget used to bracket the slope all the way to SLOPE_MAX."""
    w = two_hypothesis_world()
    q = Posterior.from_rows(np.full((2, 2), 0.5), w)
    with pytest.raises(ValueError, match="epsilon must be >= 0"):
        solve_rd(w, q, float("nan"))
    with pytest.raises(ValueError, match="epsilon must be >= 0"):
        solve_rd_with_prior(w, q, float("nan"), Distribution.uniform(2))


def test_prior_solver_infinite_rate_raises():
    inst, q, _ = _sharp_sender(5)
    # a prior with a dead hypothesis cannot reproduce rows that need it
    prior = Distribution.point_mass(0, inst.n_hypotheses)
    with pytest.raises(SupportViolationError):
        solve_rd_with_prior(inst, q, 0.0, prior)


def test_prior_solver_rate_zero_iff_prior_row_feasible():
    inst, q, _ = _sharp_sender(6)
    prior = q.marginal
    dmat, base = effective_distortion_matrix(inst, q)
    prior_dist = float(np.einsum("s,h,sh->", inst.p_s, prior.probs, dmat)) - base
    pt = solve_rd_with_prior(inst, q, prior_dist + 0.01, prior)
    assert pt.rate == 0.0
    np.testing.assert_allclose(pt.q_tilde.rows, np.tile(prior.probs, (inst.n_datasets, 1)), atol=1e-12)


def test_prior_solver_dominates_unconstrained():
    # freezing the codebook prior can never need fewer bits
    inst, q, span = _sharp_sender(7)
    for frac in (0.0, 0.3, 0.8):
        eps = frac * span
        free = solve_rd(inst, q, eps)
        pinned = solve_rd_with_prior(inst, q, eps, q.marginal)
        assert pinned.rate >= free.rate - 1e-6


def test_prior_solver_at_the_optimal_marginal_matches_solve_rd():
    # I(S;H) = min_r E_S D(q(.|s) || r): pinned to solve_rd's own output
    # marginal, the prior solver's optimum is the free optimum, so each
    # answer must sit inside the other's duality gap
    for seed in range(20, 32):
        inst, q, span = _sharp_sender(seed)
        for frac in (0.0, 0.3, 0.7):
            eps = frac * span
            free = solve_rd(inst, q, eps)
            pinned = solve_rd_with_prior(inst, q, eps, free.q_tilde.marginal)
            assert free.rate - free.duality_gap - 1e-9 <= pinned.rate
            assert pinned.rate <= free.rate + pinned.duality_gap + 1e-9


def test_prior_solver_feasible_at_budget():
    inst, q, span = _sharp_sender(8)
    for frac in (0.0, 0.5):
        eps = frac * span
        pt = solve_rd_with_prior(inst, q, eps, q.marginal)
        assert pt.distortion <= eps + 1e-15


def test_rd_curve_invariants_and_shape():
    inst, q, span = _sharp_sender(9)
    eps = [0.0, 0.25 * span, 0.5 * span, 0.75 * span, 1.05 * span]
    curve = rd_curve(inst, q, eps)
    assert isinstance(curve, RDCurve)
    assert curve.epsilons == eps
    assert curve.rates[-1] == 0.0


def test_rd_curve_rejects_unsorted_budgets():
    inst, q, _ = _sharp_sender(9)
    with pytest.raises(InvariantViolationError):
        rd_curve(inst, q, [0.2, 0.1])


def _kl_bits_one_by_one(p, q, ref):
    """The row loop _kl_bits replaces."""
    total = 0.0
    for s in range(q.shape[0]):
        total += p[s] * float(rel_entr(q[s], ref).sum())
    return total / math.log(2.0)


_CELLS = st.sampled_from([0.0, 0.0, 1e-3, 0.1, 0.3, 0.5, 1.0, 7.0])


@settings(derandomize=True, deadline=None, max_examples=200)
@given(n_s=st.integers(1, 12), n_h=st.integers(1, 9), data=st.data())
def test_kl_bits_matches_the_row_loop(n_s, n_h, data):
    """Expected divergence to the bit, dead cells and leaking rows included."""
    p = data.draw(hnp.arrays(float, n_s, elements=st.floats(1e-6, 1.0)))
    q = data.draw(hnp.arrays(float, (n_s, n_h), elements=_CELLS))
    ref = data.draw(hnp.arrays(float, n_h, elements=_CELLS))
    q[q.sum(axis=1) == 0] = 1.0
    q /= q.sum(axis=1, keepdims=True)
    ref = (ref + (ref.sum() == 0)) / (ref + (ref.sum() == 0)).sum()
    got = _kl_bits(p / p.sum(), q, ref)
    want = _kl_bits_one_by_one(p / p.sum(), q, ref)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
