"""Rate-distortion solvers: identities, invariants, and oracle agreement."""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import brentq

from beliefcomm import (
    Distribution,
    LearningRule,
    Posterior,
    RDCurve,
    RDPoint,
    effective_distortion_matrix,
    fit,
    mutual_information,
    problem_instance_from_json,
    problem_instance_to_json,
    random_instance,
    rd_curve,
    rd_grid_oracle,
    solve_dr,
    solve_rd,
    solve_rd_with_prior,
    two_hypothesis_world,
)
from beliefcomm import rate_distortion
from beliefcomm.errors import (
    ConvergenceError,
    InvariantViolationError,
    SupportViolationError,
)
from beliefcomm.rate_distortion import (
    _DR_TOL,
    _MAX_BISECTIONS,
    DEFAULT_RATE_TOL,
    FEAS_DUST,
    LOG2,
    SLOPE_MAX,
    _ba_lagrangian,
    _bisect_slope,
    _constant_point,
    _constant_rows,
    _distortion,
    _kl_bits,
    _point,
    _prior_grid,
    _search,
    _setup,
    _tilt,
)
from beliefcomm.spaces import _logsumexp_rows, _rel_entr
from conftest import (kl_bits_reference, kl_rate, philox_rng as _rng,
                      sharp_sender as _sharp_sender)


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
    prior = Distribution(np.eye(inst.n_hypotheses)[0])
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


def _search_midpoint(budget, cost, tol, width, dust, limit=None):
    """The multiplier search as it was before Illinois steps, the reference
    for the solvers' fast path: least obj subject to cons <= budget, by
    bisecting a multiplier lam.

    A generator, as _search: it yields each lam and is sent back (q, obj,
    cons, dual, iters), q minimizing obj + lam * cons and dual being a
    certified lower bound on the constrained optimum; cost(q) is (obj, cons)
    of a blend. Feasible means cons <= budget + dust. limit is the feasible
    (q, obj, cons) at lam = infinity; without one, no feasible lam up to
    SLOPE_MAX raises. The bisection stops once obj is within tol of the best
    dual bound or the bracket is narrower than width relative to lam.
    Returns (q, obj, cons, lam, iters, gap).
    """
    lower = -np.inf
    iters = 0

    def solve(lam):
        nonlocal lower, iters
        q, obj, cons, dual, it = yield lam
        lower = max(lower, dual)
        iters += it
        return q, obj, cons

    # Bracket the budget in lam.
    lo, hi = 0.0, 1.0
    q_lo = cons_lo = None
    while hi <= SLOPE_MAX:
        q_hi, obj_hi, cons_hi = yield from solve(hi)
        if cons_hi <= budget + dust:
            break
        lo, q_lo, cons_lo = hi, q_hi, cons_hi
        hi *= 2.0
    else:
        if limit is None:
            raise ConvergenceError(
                f"no multiplier up to {SLOPE_MAX} meets budget {budget}; "
                f"last constraint value {cons_hi}"
            )
        # an infinite bracket end also ends the bisection below
        hi, (q_hi, obj_hi, cons_hi) = math.inf, limit

    for _ in range(_MAX_BISECTIONS):
        if obj_hi - lower <= tol or hi - lo <= width * max(1.0, hi):
            break
        mid = 0.5 * (lo + hi)
        q_mid, obj_mid, cons_mid = yield from solve(mid)
        if cons_mid <= budget + dust:
            hi, q_hi, obj_hi, cons_hi = mid, q_mid, obj_mid, cons_mid
        else:
            lo, q_lo, cons_lo = mid, q_mid, cons_mid

    # Candidate feasible solutions: the feasible side of the bracket, and
    # blends with the other side that land on the budget (optimal on flat
    # segments). A linear cons lands in one step; under a convex one each
    # regula falsi step stays feasible and moves closer.
    obj_f, cons_f, q_f = obj_hi, cons_hi, q_hi
    if q_lo is not None and cons_lo > budget > cons_hi:
        t = 0.0
        for _ in range(_MAX_BISECTIONS):
            t += (1.0 - t) * (budget - cons_f) / (cons_lo - cons_f)
            q_blend = t * q_lo + (1.0 - t) * q_hi
            obj_blend, cons_blend = cost(q_blend)
            if not (cons_blend <= budget + dust and obj_blend < obj_f):
                break
            obj_f, cons_f, q_f = obj_blend, cons_blend, q_blend
            if cons_f >= budget - dust:
                break

    # Exact feasibility: nudge any float dust back inside the budget by
    # blending with the strictly feasible bracket point.
    if cons_f > budget and cons_hi < cons_f:
        a = (budget - cons_hi) / (cons_f - cons_hi)
        q_f = a * q_f + (1.0 - a) * q_hi
        obj_f, cons_f = cost(q_f)

    return q_f, obj_f, cons_f, hi, iters, max(obj_f - lower, 0.0)


def _bisect_slope_midpoint(budget, run, cost, tol, width, dust, limit=None):
    """_bisect_slope driving the midpoint search."""
    with mock.patch.object(rate_distortion, "_search", _search_midpoint):
        return _bisect_slope(budget, run, cost, tol, width, dust, limit)


def _solve_with_prior_alone(instance, q_sender, epsilon, prior):
    """solve_rd_with_prior as it was before grids shared one set-up, before
    the Lagrangian priced its rate and before Illinois steps."""
    dmat, baseline = effective_distortion_matrix(instance, q_sender)
    keep = instance.p_s > 0
    p, dk = instance.p_s[keep], dmat[keep]
    prior_p = prior.probs
    supp = prior_p > 0
    d_inf = float(p @ dk[:, supp].min(axis=1)) - baseline
    if epsilon < d_inf - FEAS_DUST:
        raise SupportViolationError("unreachable")
    delta_prior = float(p @ (dk @ prior_p)) - baseline
    if delta_prior <= epsilon + FEAS_DUST:
        return _constant_point(
            epsilon, _constant_rows(instance.p_s[None], prior_p[None])[0],
            delta_prior)
    log_prior = np.full_like(prior_p, -np.inf)
    log_prior[supp] = np.log(prior_p[supp])

    def run(slope_bits):
        sigma = slope_bits * math.log(2.0)
        a = log_prior[None, :] - sigma * dk
        log_z = _logsumexp_rows(a)
        q = np.exp(a - log_z[:, None])
        delta = _distortion(p, q, dk, baseline)
        f_exact = (-float(p @ log_z) - sigma * baseline) / math.log(2.0)
        return q, _kl_bits(p, q, prior_p), delta, \
            max(f_exact - slope_bits * epsilon, 0.0), 1

    q, rate, delta, slope, iters, gap = _bisect_slope_midpoint(
        epsilon, run,
        lambda q: (_kl_bits(p, q, prior_p), _distortion(p, q, dk, baseline)),
        DEFAULT_RATE_TOL, 1e-15, FEAS_DUST)
    return _point(instance, epsilon, q, prior_p, rate, delta, slope, iters,
                  gap)


def _point_bits(pt):
    fields = ("epsilon", "rate", "distortion", "slope", "duality_gap",
              "iterations")
    return (np.array([getattr(pt, f) for f in fields]).tobytes(),
            pt.q_tilde.rows.tobytes())


@settings(derandomize=True, deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32), n_s=st.integers(2, 3),
       n_h=st.integers(2, 3), erm=st.booleans(), uniform=st.booleans(),
       fracs=st.lists(st.sampled_from([0.0, 0.05, 0.3, 0.7, 0.99, 1.0, 1.5]),
                      max_size=6))
def test_prior_grid_matches_one_budget_solves(seed, n_s, n_h, erm, uniform,
                                              fracs):
    """One set-up for a grid gives each point's bits, rows included, as a
    solve of that budget alone, and each point answers the budget as the
    old one-budget solve did, within the rate tolerance; the grid starts at
    0 and reaches past the prior row's own distortion, where the points
    share one rate-zero row."""
    inst = random_instance(_rng(seed), n_concepts=3, n_symbols=n_s,
                           n_hypotheses=n_h, m=1, concentration=0.2)
    q = fit(LearningRule.erm() if erm else LearningRule.gibbs(2.0), inst)
    prior = Distribution.uniform(n_h) if uniform else q.marginal
    dmat, base = effective_distortion_matrix(inst, q)
    delta_prior = float(inst.p_s @ (dmat @ prior.probs)) - base
    grid = [0.0] + [f * max(delta_prior, 0.0) for f in fracs]
    for eps, pt in zip(grid, _prior_grid([(inst, q, prior, grid)])[0]):
        assert _point_bits(pt) == \
            _point_bits(solve_rd_with_prior(inst, q, eps, prior))
        ref = _solve_with_prior_alone(inst, q, eps, prior)
        assert abs(pt.rate - ref.rate) <= DEFAULT_RATE_TOL
        assert pt.distortion <= eps + FEAS_DUST
        assert pt.duality_gap <= DEFAULT_RATE_TOL


def _prior_grid_one_world(instance, q_sender, prior, epsilons,
                          rate_tol=DEFAULT_RATE_TOL):
    """The fixed-prior grid solver as it was before banks: one world at a
    time, every multiplier step a tilt of that world alone."""
    p, dk, baseline = _setup(instance, q_sender)
    prior_p = prior.probs
    supp = prior_p > 0
    d_min = dk[:, supp].min(axis=1)
    delta_prior = float(p @ (dk @ prior_p)) - baseline
    log_prior = np.full_like(prior_p, -np.inf)
    log_prior[supp] = np.log(prior_p[supp])
    d0 = dk - d_min[:, None]
    const = None

    def cost(q):
        return _kl_bits(p, q, prior_p), _distortion(p, q, dk, baseline)

    points = []
    for epsilon in map(float, epsilons):
        if delta_prior <= epsilon + FEAS_DUST:
            if const is None:
                const = _constant_point(
                    epsilon,
                    _constant_rows(instance.p_s[None], prior_p[None])[0],
                    delta_prior)
            points.append(dataclasses.replace(
                const, epsilon=epsilon, distortion=min(delta_prior, epsilon)))
            continue

        def run(slope_bits, epsilon=epsilon):
            sigma = slope_bits * LOG2
            a = log_prior - sigma * d0
            log_z = _logsumexp_rows(a)
            q = np.exp(a - log_z[:, None])
            rate = (-float(p @ log_z)
                    - sigma * float(np.einsum("s,sh,sh->", p, q, d0))) / LOG2
            delta = _distortion(p, q, dk, baseline)
            return q, rate, delta, \
                max(rate + slope_bits * (delta - epsilon), 0.0), 1

        q, rate, delta, slope, iters, gap = _bisect_slope(
            epsilon, run, cost, rate_tol, 1e-15, FEAS_DUST)
        points.append(_point(instance, epsilon, q, prior_p, rate, delta, slope,
                             iters, gap))
    return points


_BANK_FRACS = st.lists(st.sampled_from([0.0, 0.3, 0.7, 0.99, 1.0, 1.5]),
                       max_size=4)


@st.composite
def _prior_banks(draw):
    """A bank of fixed-prior problems: worlds with 1-3 kept datasets, up to
    one extra sample of zero mass, |H| 2-4, erm or gibbs senders, marginal or
    uniform priors, budgets at 0, inside the curve and past the prior row;
    then one world whose budgets are all past its prior row, so it searches
    none, and a repeat of an earlier problem."""
    bank = []
    for _ in range(draw(st.integers(1, 5))):
        n_live, n_h = draw(st.integers(1, 3)), draw(st.integers(2, 4))
        inst = random_instance(_rng(draw(st.integers(0, 2**32 - 1))),
                               n_concepts=3, n_symbols=n_live,
                               n_hypotheses=n_h, m=1, concentration=0.2)
        if draw(st.booleans()):
            obj = problem_instance_to_json(inst)
            at = draw(st.integers(0, n_live))
            obj["samples"].insert(at, "dead")
            for row in obj["data_law"]:
                row.insert(at, 0.0)
            for rows in obj["loss"]:
                for row in rows:
                    row.insert(at, draw(st.floats(0.0, 1.0)))
            inst = problem_instance_from_json(obj)
        q = fit(LearningRule.erm() if draw(st.booleans())
                else LearningRule.gibbs(2.0), inst)
        prior = Distribution.uniform(n_h) if draw(st.booleans()) \
            else q.marginal
        dmat, base = effective_distortion_matrix(inst, q)
        delta_prior = max(float(inst.p_s @ (dmat @ prior.probs)) - base, 0.0)
        fracs = draw(_BANK_FRACS)
        if not bank:
            bank.append((inst, q, prior, [(1.0 + f) * delta_prior + FEAS_DUST
                                          for f in (0.0, 0.5)]))
        bank.append((inst, q, prior, [f * delta_prior for f in fracs]))
    bank.insert(draw(st.integers(0, len(bank))),
                bank[draw(st.integers(0, len(bank) - 1))])
    return bank


@settings(derandomize=True, deadline=None, max_examples=60)
@given(bank=_prior_banks())
def test_lockstep_bank_matches_one_world_at_a_time(bank):
    """Each point of a bank solved in lockstep has the bits, rows included,
    of its world solved as a bank of one and of the per-world loop with a
    tilt of that world alone at every step."""
    solved = _prior_grid(bank)
    assert [len(pts) for pts in solved] == [len(b) for *_, b in bank]
    for problem, pts in zip(bank, solved):
        bits = [_point_bits(pt) for pt in pts]
        assert bits == [_point_bits(pt) for pt in _prior_grid([problem])[0]]
        assert bits == [_point_bits(pt)
                        for pt in _prior_grid_one_world(*problem)]


def test_prior_grid_gives_a_problem_one_rate_zero_row():
    """Every budget the prior row meets gets its problem's one q_tilde
    object; every other problem gets its own, a repeat of a problem in the
    bank included."""
    problems = []
    for seed in (11, 12):
        inst, q, _ = _sharp_sender(seed)
        dmat, base = effective_distortion_matrix(inst, q)
        delta_prior = float(inst.p_s @ (dmat @ q.marginal.probs)) - base
        problems.append((inst, q, q.marginal,
                         [f * delta_prior for f in (0.5, 1.0, 1.5, 3.0)]))
    solved = _prior_grid([problems[0], problems[1], problems[0]])
    for pts in solved:
        assert pts[0].rate > 0.0 and pts[0].q_tilde is not pts[1].q_tilde
        assert pts[1].q_tilde is pts[2].q_tilde is pts[3].q_tilde
    assert len({id(pts[1].q_tilde) for pts in solved}) == len(solved)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(n_s=st.integers(1, 6), n_h=st.integers(1, 5),
       slope=st.one_of(st.floats(0.0, SLOPE_MAX),
                       st.sampled_from([0.0, 1e-3, 1.0, SLOPE_MAX])),
       data=st.data())
def test_tilt_rate_matches_the_row_divergence(n_s, n_h, slope, data):
    """The fixed-prior rate from the exact Lagrangian on shifted rows, at
    any slope the search reaches, dead prior cells and tied rows included."""
    p = data.draw(hnp.arrays(float, n_s, elements=st.floats(1e-6, 1.0)))
    dk = data.draw(hnp.arrays(float, (n_s, n_h), elements=_CELLS))
    prior = data.draw(hnp.arrays(float, n_h, elements=_CELLS))
    p /= p.sum()
    prior[np.argmax(prior)] += prior.max() == 0.0
    prior /= prior.sum()
    supp = prior > 0
    log_prior = np.full(n_h, -np.inf)
    log_prior[supp] = np.log(prior[supp])
    d0 = dk - dk[:, supp].min(axis=1)[:, None]
    q, kl_nats = (x[0] for x in _tilt(p[None], log_prior[None], d0[None],
                                      np.array([slope * LOG2])))
    assert np.allclose(q.sum(axis=1), 1.0) and not q[:, ~supp].any()
    assert abs(kl_nats / LOG2 - _kl_bits(p, q, prior)) <= 1e-12


def test_rd_curve_invariants_and_shape():
    inst, q, span = _sharp_sender(9)
    eps = [0.0, 0.25 * span, 0.5 * span, 0.75 * span, 1.05 * span]
    curve = rd_curve(inst, q, eps)
    assert isinstance(curve, RDCurve)
    assert [p.epsilon for p in curve.points] == eps
    assert curve.points[-1].rate == 0.0


def test_rd_curve_rejects_unsorted_budgets():
    inst, q, _ = _sharp_sender(9)
    with pytest.raises(InvariantViolationError):
        rd_curve(inst, q, [0.2, 0.1])


def _kl_bits_one_by_one(p, q, ref):
    """The row loop _kl_bits replaces, on the package's kernel."""
    total = 0.0
    for s in range(q.shape[0]):
        total += p[s] * float(_rel_entr(q[s], ref).sum())
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


@settings(derandomize=True, deadline=None, max_examples=200)
@given(n_s=st.integers(1, 40), n_h=st.integers(1, 6), data=st.data())
def test_kl_bits_adds_as_pythons_sum(n_s, n_h, data):
    """cumsum adds the weighted rows left to right as Python's sum did, to
    the bit, zero and -0.0 weights and leaking rows included."""
    p = data.draw(hnp.arrays(float, n_s, elements=st.sampled_from(
        [0.0, -0.0, 5e-324, 1e-300, 1e-6, 0.1, 0.5, 1.0, 3.0])))
    q = data.draw(hnp.arrays(float, (n_s, n_h), elements=_CELLS))
    ref = data.draw(hnp.arrays(float, n_h, elements=_CELLS))
    q[q.sum(axis=1) == 0] = 1.0
    q /= q.sum(axis=1, keepdims=True)
    ref = (ref + (ref.sum() == 0)) / (ref + (ref.sum() == 0)).sum()
    with np.errstate(invalid="ignore"):  # a zero weight on a leaking row
        got, want = _kl_bits(p, q, ref), kl_bits_reference(p, q, ref)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def _i_nats_by_row_divergence(p, q):
    """I(S;H) in nats as E_S D(q(.|s) || p q), the reference for the rate
    the Blahut-Arimoto step prices from its own sums."""
    return float(p @ _rel_entr(q, p @ q).sum(axis=1))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(n_s=st.integers(1, 6), n_h=st.integers(1, 5),
       sigma=st.floats(0.0, 40.0), tol=st.sampled_from([1e-2, 1e-6, 1e-13]),
       data=st.data())
def test_step_sum_rate_matches_the_row_divergence(n_s, n_h, sigma, tol, data):
    """The rate a check returns, at stops early and late, dead cells and
    tied rows included."""
    p = data.draw(hnp.arrays(float, n_s, elements=st.floats(1e-3, 1.0)))
    dmat = data.draw(hnp.arrays(float, (n_s, n_h), elements=_CELLS))
    p /= p.sum()
    q, i_nats, avg_d, gap, _ = _ba_lagrangian(p, dmat, sigma, tol)
    want = _i_nats_by_row_divergence(p, q)
    assert math.isfinite(i_nats) and gap >= 0.0
    if math.isfinite(want):
        assert abs(i_nats - want) <= 1e-10


def test_step_sum_rate_stays_finite_where_the_marginal_underflows(
        monkeypatch):
    """Regression: solving this world at 0.99 span, the check at iteration
    1,168 of slope 2.18233... nats holds a 5e-324 entry whose marginal mass
    underflows to 0, so the row divergence reads +inf there."""
    inst, q, span = _sharp_sender(7000, n_symbols=2, n_hypotheses=4)
    runs = []

    def recorded(*args):
        runs.append(_ba_lagrangian(*args))
        return runs[-1]

    monkeypatch.setattr(rate_distortion, "_ba_lagrangian", recorded)
    pt = solve_rd(inst, q, 0.99 * span)
    assert pt.duality_gap <= DEFAULT_RATE_TOL
    assert runs and all(math.isfinite(run[1]) for run in runs)

    # that check, as the last one of a run capped there
    monkeypatch.setattr(rate_distortion, "_MAX_INNER_ITERS", 1168)
    p, dk, _ = _setup(inst, q)
    q_it, i_nats, _, _, it = _ba_lagrangian(
        p, dk, 2.182330576294203, 0.25 * DEFAULT_RATE_TOL * LOG2)
    assert it == 1168
    assert _i_nats_by_row_divergence(p, q_it) == math.inf
    dead = p @ q_it == 0
    assert q_it[:, dead].max() == 5e-324
    q_it[:, dead] = 0.0  # what the row divergence should have priced
    assert abs(i_nats - _i_nats_by_row_divergence(p, q_it)) <= 1e-10


# compare_schemes' rate tolerance when it found D(R) by nested bisection
_COMPARE_RATE_TOL = 1e-6


def _inverse_rate_lookup(instance, q_alice, budget, p0):
    """Smallest budgeted distortion: min eps with rate(eps) <= budget; p0 is eps=0."""
    if p0.rate <= budget:
        return p0
    dmat, baseline = effective_distortion_matrix(instance, q_alice)
    p_s = instance.p_s
    keep = p_s > 0
    eps_hi = float((p_s[keep] @ dmat[keep]).min()) - baseline  # rate hits 0 here
    lo, hi = 0.0, max(eps_hi, 1e-12)
    pt_hi = solve_rd(instance, q_alice, hi, rate_tol=_COMPARE_RATE_TOL)
    for _ in range(60):
        if hi - lo < 1e-12 * max(1.0, hi):
            break
        mid = 0.5 * (lo + hi)
        pt = solve_rd(instance, q_alice, mid, rate_tol=_COMPARE_RATE_TOL)
        if pt.rate <= budget:
            hi, pt_hi = mid, pt
        else:
            lo = mid
    return pt_hi


@settings(derandomize=True, deadline=None, max_examples=30)
@given(seed=st.integers(0, 2**32), n_s=st.integers(2, 3),
       n_h=st.integers(2, 3), erm=st.booleans(),
       frac=st.sampled_from([0.0, 0.02, 0.3, 0.7, 0.99, 1.5]))
def test_solve_dr_matches_the_nested_bisection(seed, n_s, n_h, erm, frac):
    """D(R) in one bisection against the budget bisection around solve_rd.

    Below R(0) both answer D(R). At or above it the nested search stops at
    the budget-zero point, which D(R) can only improve on.
    """
    inst = random_instance(_rng(seed), n_concepts=3, n_symbols=n_s,
                           n_hypotheses=n_h, m=1, concentration=0.2)
    q = fit(LearningRule.erm() if erm else LearningRule.gibbs(2.0), inst)
    p0 = solve_rd(inst, q, 0.0, rate_tol=_COMPARE_RATE_TOL)
    budget = frac * p0.rate
    ref = _inverse_rate_lookup(inst, q, budget, p0)
    pt = solve_dr(inst, q, budget)
    assert pt.rate <= budget
    assert pt.distortion <= ref.distortion + 1e-9
    # the nested search's point is feasible, so it is never below the
    # certified lower bound
    assert pt.distortion - pt.duality_gap <= ref.distortion + 1e-12


def test_solve_dr_agrees_with_grid_oracle():
    """At eps = D(R) the independent grid oracle's R(eps) is the budget."""
    for seed, n_h in ((3, 2), (9, 2), (1, 3)):
        inst, q, _ = _sharp_sender(seed, n_hypotheses=n_h)
        r0 = solve_rd(inst, q, 0.0).rate
        for frac in (0.3, 0.7):
            pt = solve_dr(inst, q, frac * r0)
            assert abs(rd_grid_oracle(inst, q, pt.distortion) - frac * r0) \
                < 1e-3


def test_bisection_lands_a_convex_constraint_on_the_budget():
    """Largest x with x^2 <= 0.3 through a coarse bracket: a single chord
    blend of the bracket ends stays strictly inside a convex constraint, so
    the blends have to keep stepping until the constraint meets the budget."""
    def run(lam):
        x = 0.5 / lam  # argmin of -x + lam * x^2
        return np.array([[x]]), -x, x * x, -0.25 / lam - lam * 0.3, 1

    def cost(q):
        return -float(q[0, 0]), float(q[0, 0]) ** 2

    q, obj, cons, lam, iters, gap = _bisect_slope(0.3, run, cost, 0.0, 0.5,
                                                  0.0)
    assert cons <= 0.3
    assert cons == pytest.approx(0.3, abs=1e-12)
    assert obj == pytest.approx(-math.sqrt(0.3), abs=1e-12)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32), n_s=st.integers(2, 3),
       n_h=st.integers(2, 3), erm=st.booleans(), uniform=st.booleans(),
       frac=st.sampled_from([0.0, 0.05, 0.3, 0.7, 0.99]))
def test_illinois_steps_match_the_midpoint_search(seed, n_s, n_h, erm,
                                                   uniform, frac):
    """Each solver on Illinois steps against the same solver on the midpoint
    search: feasible, no worse than the reference by more than its
    tolerance, and within tolerance wherever the reference is."""
    inst = random_instance(_rng(seed), n_concepts=3, n_symbols=n_s,
                           n_hypotheses=n_h, m=1, concentration=0.2)
    q = fit(LearningRule.erm() if erm else LearningRule.gibbs(2.0), inst)
    prior = Distribution.uniform(n_h) if uniform else q.marginal
    dmat, base = effective_distortion_matrix(inst, q)
    span = float((inst.p_s @ dmat).min()) - base
    eps = frac * max(span, 0.0)

    def searched(search, solve, *args):
        """solve(*args) with search patched in as the multiplier search,
        and how many searches it started."""
        starts = []

        def start(*search_args):
            starts.append(search_args)
            return search(*search_args)

        with mock.patch.object(rate_distortion, "_search", start):
            return solve(*args), len(starts)

    solvers = [(solve_rd_with_prior, inst, q, eps, prior),
               (solve_rd, inst, q, eps)]
    refs, ref_runs = zip(*(searched(_search_midpoint, *s) for s in solvers))
    budget = frac * refs[1].rate
    dr_ref, dr_ref_runs = searched(_search_midpoint, solve_dr, inst, q, budget)
    got, got_runs = zip(*(searched(_search, *s) for s in solvers))
    dr, dr_runs = searched(_search, solve_dr, inst, q, budget)
    # the midpoint search stood in for every search each solver ran: one
    # wherever a solver's point is not its fast path's (rate zero, or for
    # solve_dr the constant row at budget 0 and the least distortion at
    # slope infinity)
    searches = (int(got[0].iterations > 0), int(got[1].iterations > 0),
                int(budget > 0.0 and dr.slope != math.inf))
    assert (*ref_runs, dr_ref_runs) == (*got_runs, dr_runs) == searches
    for pt, ref in zip(got, refs):
        assert pt.distortion <= eps + FEAS_DUST
        assert pt.rate <= ref.rate + DEFAULT_RATE_TOL
        if ref.duality_gap <= DEFAULT_RATE_TOL:
            assert pt.duality_gap <= DEFAULT_RATE_TOL
    assert dr.rate <= budget
    assert dr.distortion <= dr_ref.distortion + _DR_TOL
    if dr_ref.duality_gap <= _DR_TOL:
        assert dr.duality_gap <= _DR_TOL


def test_prior_grid_needs_few_slope_evaluations():
    """Regression on the search's cost, a count and no timing: verify-bound's
    gibbs-sender worlds for seed 1000 on its 9-budget grid. The midpoint
    search takes about 18 slope evaluations per positive-rate budget."""
    rng = _rng(1000)
    bank = []
    for _ in range(200):
        inst = random_instance(rng, n_concepts=int(rng.integers(2, 4)),
                               n_symbols=int(rng.integers(2, 4)),
                               n_hypotheses=int(rng.integers(2, 4)), m=1)
        beta = float(np.exp(rng.uniform(np.log(0.5), np.log(4.0))))
        q = fit(LearningRule.gibbs(beta), inst)
        grid = [round(inst.hypotheses.l_max * k / 8.0, 12) for k in range(9)]
        bank.append((inst, q, q.marginal, grid))
    evals = [pt.iterations for pts in _prior_grid(bank, rate_tol=1e-8)
             for pt in pts if pt.iterations]
    assert len(evals) >= 100
    assert np.mean(evals) <= 8.0


def _binary_symmetric_world():
    """Two equally likely concepts that the one sample reveals, each
    punishing the other's hypothesis: Hamming distortion on a fair bit, so
    D(R) = h^-1(1 - R) and both constant rows tie at 1/2."""
    hit = [[0.0, 0.0], [1.0, 1.0]]
    return problem_instance_from_json({
        "concepts": [{"name": "c0", "prior": 0.5}, {"name": "c1", "prior": 0.5}],
        "samples": ["z0", "z1"], "data_law": [[1.0, 0.0], [0.0, 1.0]],
        "hypotheses": ["h0", "h1"], "loss": [hit, hit[::-1]], "m": 1,
        "l_max": 1.0})


def test_solve_dr_matches_the_binary_entropy_curve():
    w = _binary_symmetric_world()
    q = fit(LearningRule.erm(), w)
    for rate in (1e-6, 0.1, 0.5, 0.9):
        pt = solve_dr(w, q, rate)
        want = brentq(lambda d: 1.0 + d * math.log2(d)
                      + (1.0 - d) * math.log2(1.0 - d) - rate, 1e-300, 0.5)
        assert pt.rate <= rate
        assert abs(pt.distortion - want) < 1e-9


def test_solve_dr_dust_budget_on_a_tie_takes_the_constant_end():
    """Regression: with both constant rows tied, no multiplier up to
    SLOPE_MAX gets the rate below a budget of float dust; the constant row,
    the end of the bracket at infinity, is feasible for any budget."""
    w = _binary_symmetric_world()
    q = fit(LearningRule.erm(), w)
    for budget in (0.0, 1.56e-16):
        pt = solve_dr(w, q, budget)
        assert pt.rate <= budget
        assert pt.slope == 0.0
        assert pt.distortion <= 0.5
        assert pt.duality_gap < 1e-6


def test_solve_dr_budget_of_float_dust():
    """Regression: a budget of +1.56e-16 bits, the flow compare-schemes
    measures for the all-merging compressor of world 1013, is below any rate
    the Blahut-Arimoto step reaches; the best constant row answers it."""
    inst, q, span = _sharp_sender(1013, n_symbols=4)
    pt = solve_dr(inst, q, 1.558005359926657e-16)
    assert pt.rate <= 1.558005359926657e-16
    assert abs(pt.distortion - span) < 1e-9


def test_solve_dr_zero_budget_is_the_best_constant_row():
    """I(S;H) = 0 forces one row on every dataset, so the best constant row
    is exact and needs no solve. Regression: on the tied world a budget of 0
    took 20 Blahut-Arimoto solves up to mu = 2^19 and reported a gap of
    1.65e-7."""
    inst, q, span = _sharp_sender(1013, n_symbols=4)
    tie = _binary_symmetric_world()
    for world, sender, d in ((inst, q, span),
                             (tie, fit(LearningRule.erm(), tie), 0.5)):
        pt = solve_dr(world, sender, 0.0)
        assert (pt.rate, pt.distortion, pt.duality_gap, pt.iterations) == \
            (0.0, d, 0.0, 0)
        assert (pt.q_tilde.rows == pt.q_tilde.rows[0]).all()
    with pytest.raises(ValueError, match="rate_budget must be >= 0"):
        solve_dr(inst, q, -1e-3)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_solve_dr_rate_zero_test_does_not_overflow():
    """Regression: the rate-zero test exponentiated (ln 2 / mu) times
    distortion differences, which overflowed at the small mu this budget
    (one compressor's flow on this world) bisects down to."""
    inst, q, _ = _sharp_sender(3001, n_symbols=6, n_hypotheses=3)
    budget = 0.9603868541128637
    pt = solve_dr(inst, q, budget)
    assert pt.rate <= budget
    assert pt.duality_gap <= _DR_TOL


def test_solve_dr_budget_past_the_zero_distortion_rate():
    """Past R(0) the answer is at or below distortion 0, within budget."""
    for seed in (2, 5):
        inst, q, _ = _sharp_sender(seed)
        dmat, base = effective_distortion_matrix(inst, q)
        d_min = float(inst.p_s @ dmat.min(axis=1)) - base
        r0 = solve_rd(inst, q, 0.0).rate
        for budget in (r0, 1.5 * r0 + 0.1):
            pt = solve_dr(inst, q, budget)
            assert pt.rate <= budget
            assert d_min - 1e-12 <= pt.distortion <= 1e-9
