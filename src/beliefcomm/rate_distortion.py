"""Rate-distortion solvers for semantic distortion budgets.

Two views of one convex program over receiver rows q(h|s), both minimizing
an expected divergence E_S[D(q(.|s) || r)] subject to semantic distortion
<= eps:

* solve_rd: r is the output marginal, so the rate is the mutual information
  I(S;H) = min_r E_S D(q(.|s) || r). Its inner solve is Blahut-style
  alternating minimization of the slope-Lagrangian.

* solve_rd_with_prior: r is frozen to a given prior. The inner minimization
  then decouples across datasets and is closed-form, so each slope is
  solved exactly.

One outer loop serves both inner solves: it brackets and bisects the slope
to land on the distortion budget, blends the bracket ends onto the budget,
and reports an explicit duality gap: achieved rate minus the best dual lower
bound seen, which certifies the answer to within the gap. All rates are in
bits; slopes are bits per unit distortion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import rel_entr

from .errors import ConvergenceError, InvariantViolationError, SupportViolationError
from .learning import Posterior, effective_distortion_matrix
from .spaces import Distribution, ProblemInstance, _logsumexp_rows

LOG2 = math.log(2.0)

DEFAULT_RATE_TOL = 1e-7
SLOPE_MAX = 1e6
_MAX_INNER_ITERS = 10**5
# never reached: the bracket-width stop ends the bisection within about 50
# halvings
_MAX_BISECTIONS = 200
# Distortion comparisons inside the solver allow this much absolute dust so a
# boundary solution computed in floats is not rejected as infeasible.
FEAS_DUST = 1e-13


@dataclass(frozen=True)
class RDPoint:
    """One solved point: requested budget, achieved rate and distortion."""

    epsilon: float
    rate: float
    distortion: float
    slope: float
    q_tilde: Posterior
    iterations: int
    duality_gap: float

    def __post_init__(self):
        if self.rate < -1e-12:
            raise InvariantViolationError(f"negative rate {self.rate}")
        if self.distortion > self.epsilon + 1e-8:
            raise InvariantViolationError(
                f"distortion {self.distortion} exceeds budget {self.epsilon} + 1e-8"
            )


@dataclass(frozen=True)
class RDCurve:
    """Solved points over an increasing budget grid, checked for shape."""

    points: tuple[RDPoint, ...]

    def __post_init__(self):
        eps = [p.epsilon for p in self.points]
        rates = [p.rate for p in self.points]
        if any(b <= a for a, b in zip(eps, eps[1:])):
            raise InvariantViolationError("epsilon grid must be strictly increasing")
        for a, b in zip(rates, rates[1:]):
            if b > a + 1e-6:
                raise InvariantViolationError(f"rate increased along the curve: {a} -> {b}")
        for (e0, r0), (e1, r1), (e2, r2) in zip(
            zip(eps, rates), zip(eps[1:], rates[1:]), zip(eps[2:], rates[2:])
        ):
            chord = r0 + (r2 - r0) * (e1 - e0) / (e2 - e0)
            if r1 > chord + 1e-6:
                raise InvariantViolationError(
                    f"convexity violated at eps={e1}: rate {r1} above chord {chord}"
                )

    @property
    def epsilons(self) -> list[float]:
        return [p.epsilon for p in self.points]

    @property
    def rates(self) -> list[float]:
        return [p.rate for p in self.points]


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


def _kl_bits(p: np.ndarray, q: np.ndarray, ref: np.ndarray) -> float:
    """E_S D(q(.|s) || ref) in bits over weights p.

    The weighted row divergences are added left to right, as a loop over the
    rows would add them.
    """
    return float(sum(p * rel_entr(q, ref).sum(axis=1))) / LOG2


def _ba_lagrangian(p, dmat, sigma, tol_gap_nats):
    """Alternating minimization of I + sigma*<q,D> (nats) at fixed tilt sigma.

    Returns (q, i_nats, avg_d, fw_gap_nats, iters). The Frank-Wolfe gap is a
    true upper bound on the Lagrangian suboptimality of the returned iterate,
    computed from the r-free form of the gradient so dead hypotheses cause no
    log(0) trouble.
    """
    n_h = dmat.shape[1]
    log_r = np.full(n_h, -math.log(n_h))
    tilt = -sigma * dmat  # (s, h)
    last_f = np.inf
    window_f = np.inf
    check_every = 8
    q = np.exp(tilt - tilt.max())  # placeholder until first diagnostics pass
    i_nats = avg_d = 0.0
    gap = np.inf
    for it in range(1, _MAX_INNER_ITERS + 1):
        # scipy's logsumexp dominates runtime on alphabets this small, so the
        # reductions are spelled out with plain max/exp/log
        a = log_r[None, :] + tilt
        m1 = a.max(axis=1)
        log_z = np.log(np.exp(a - m1[:, None]).sum(axis=1)) + m1
        x = tilt - log_z[:, None]
        m0 = x.max(axis=0)
        log_t = np.log((p[:, None] * np.exp(x - m0[None, :])).sum(axis=0)) + m0
        if it % check_every == 0 or it == _MAX_INNER_ITERS or it == 1:
            q = np.exp(a - log_z[:, None])
            avg_d = float(np.einsum("s,sh,sh->", p, q, dmat))
            i_nats = float(p @ rel_entr(q, p @ q).sum(axis=1))
            f = i_nats + sigma * avg_d
            # gradient of the Lagrangian per unit of p[s] is -log_z[s] -
            # log_t[h]; the -log_z part cancels between the two gap terms
            gap = float(-np.einsum("s,sh,h->", p, q, log_t) + log_t.max())
            if gap < tol_gap_nats or abs(last_f - f) < 1e-12 * LOG2:
                return q, i_nats, avg_d, max(gap, 0.0), it
            if it % 512 == 0:
                # slow-crawl cutoff: progress this window too small to matter
                if window_f - f < 1e-9:
                    return q, i_nats, avg_d, max(gap, 0.0), it
                window_f = f
            last_f = f
        log_r = log_r + log_t
        mr = log_r.max()
        log_r -= mr + math.log(np.exp(log_r - mr).sum())
    # Ran out of iterations. The iterate is still primal-feasible and the gap
    # is an honest certificate, so hand both back and let the caller fold the
    # residual into its reported duality gap.
    return q, i_nats, avg_d, max(gap, 0.0), _MAX_INNER_ITERS


def _setup(instance, q_sender, epsilon):
    """Weights, distortion rows and baseline over the positive-mass datasets."""
    if not epsilon >= 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    dmat, baseline = effective_distortion_matrix(instance, q_sender)
    keep = instance.p_s > 0
    return instance.p_s[keep], dmat[keep], baseline


def _constant_point(instance, epsilon, row, delta) -> RDPoint:
    """The rate-zero answer: every dataset gets the same row."""
    return RDPoint(
        epsilon=epsilon, rate=0.0, distortion=min(delta, epsilon), slope=0.0,
        q_tilde=Posterior.from_rows(np.tile(row, (instance.n_datasets, 1)), instance),
        iterations=0, duality_gap=0.0,
    )


def _bisect_slope(instance, epsilon, p, dk, baseline, run, ref, rate_tol,
                  width) -> RDPoint:
    """Bisect the slope onto the distortion budget around one inner solve.

    run(slope) minimizes rate + slope * distortion and returns (q, rate,
    distortion, dual, iters), where dual is a certified lower bound on the
    constrained optimum. ref(q) is the row the rate is measured against,
    rate = E_S D(q(.|s) || ref(q)), and also fills zero-mass datasets. The
    bisection stops once the rate is within rate_tol of the best dual bound
    or the bracket is narrower than width relative to the slope.
    """
    lower = -np.inf
    iters = 0

    def solve(slope):
        nonlocal lower, iters
        q, rate, delta, dual, it = run(slope)
        lower = max(lower, dual)
        iters += it
        return q, rate, delta

    def distortion(q):
        return float(np.einsum("s,sh,sh->", p, q, dk)) - baseline

    # Bracket the budget in slope.
    lo, hi = 0.0, 1.0
    q_lo = delta_lo = None
    while hi <= SLOPE_MAX:
        q_hi, rate_hi, delta_hi = solve(hi)
        if delta_hi <= epsilon + FEAS_DUST:
            break
        lo, q_lo, delta_lo = hi, q_hi, delta_hi
        hi *= 2.0
    else:
        raise ConvergenceError(
            f"no slope up to {SLOPE_MAX} meets distortion budget {epsilon}; "
            f"last distortion {delta_hi}"
        )

    for _ in range(_MAX_BISECTIONS):
        if rate_hi - max(lower, 0.0) <= rate_tol or hi - lo <= width * max(1.0, hi):
            break
        mid = 0.5 * (lo + hi)
        q_mid, rate_mid, delta_mid = solve(mid)
        if delta_mid <= epsilon + FEAS_DUST:
            hi, q_hi, rate_hi, delta_hi = mid, q_mid, rate_mid, delta_mid
        else:
            lo, q_lo, delta_lo = mid, q_mid, delta_mid

    # Candidate feasible solutions: the feasible side of the bracket, and the
    # chord blend that lands exactly on the budget (optimal on flat segments).
    rate_f, delta_f, q_f = rate_hi, delta_hi, q_hi
    if q_lo is not None and delta_lo > epsilon > delta_hi:
        t = (epsilon - delta_hi) / (delta_lo - delta_hi)
        q_blend = t * q_lo + (1.0 - t) * q_hi
        delta_blend = distortion(q_blend)
        rate_blend = _kl_bits(p, q_blend, ref(q_blend))
        if delta_blend <= epsilon + FEAS_DUST and rate_blend < rate_f:
            rate_f, delta_f, q_f = rate_blend, delta_blend, q_blend

    # Exact feasibility: nudge any float dust back inside the budget by
    # blending with the strictly feasible bracket point.
    if delta_f > epsilon and delta_hi < delta_f:
        a = (epsilon - delta_hi) / (delta_f - delta_hi)
        q_f = a * q_f + (1.0 - a) * q_hi
        delta_f = distortion(q_f)
        rate_f = _kl_bits(p, q_f, ref(q_f))

    rows = np.tile(ref(q_f), (instance.n_datasets, 1))
    rows[instance.p_s > 0] = q_f
    return RDPoint(
        epsilon=epsilon,
        rate=max(rate_f, 0.0),
        distortion=delta_f,
        slope=hi,
        q_tilde=Posterior.from_rows(rows, instance),
        iterations=iters,
        duality_gap=max(rate_f - max(lower, 0.0), 0.0),
    )


def solve_rd(instance: ProblemInstance, q_sender: Posterior, epsilon: float,
             rate_tol: float = DEFAULT_RATE_TOL) -> RDPoint:
    """Least mutual information compatible with a semantic-distortion budget.

    The budget must be >= 0 (the sender's own rows always meet it). Ties on
    the constraint boundary resolve toward the smaller rate; in particular a
    budget reachable with a constant row returns rate exactly 0.
    """
    p, dk, baseline = _setup(instance, q_sender, epsilon)

    # Rate-zero fast path: best constant row.
    dbar = p @ dk
    h_star = int(np.argmin(dbar))
    delta0 = float(dbar[h_star]) - baseline
    if delta0 <= epsilon + FEAS_DUST:
        return _constant_point(instance, epsilon,
                               np.eye(instance.n_hypotheses)[h_star], delta0)

    gap_tol_nats = 0.25 * rate_tol * LOG2

    def run(slope_bits):
        q, i_nats, avg_d, fw_gap, it = _ba_lagrangian(
            p, dk, slope_bits * LOG2, gap_tol_nats
        )
        delta = avg_d - baseline
        # dual value at this slope: certified Lagrangian lower bound minus slope*eps
        dual = (i_nats - fw_gap) / LOG2 + slope_bits * (delta - epsilon)
        return q, i_nats / LOG2, delta, dual, it

    # the rate is I(S;H) = E_S D(q(.|s) || marginal)
    return _bisect_slope(instance, epsilon, p, dk, baseline, run,
                         lambda q: p @ q, rate_tol, width=1e-9)


def solve_rd_with_prior(instance: ProblemInstance, q_sender: Posterior, epsilon: float,
                        prior: Distribution,
                        rate_tol: float = DEFAULT_RATE_TOL) -> RDPoint:
    """Least expected coding divergence against a fixed prior under a budget.

    The inner problem decouples across datasets and is solved in closed form
    (tilt the prior by the distortion column), so every slope evaluation is
    exact and the dual bound is tight.
    """
    p, dk, baseline = _setup(instance, q_sender, epsilon)
    prior_p = prior.probs
    if len(prior_p) != instance.n_hypotheses:
        raise SupportViolationError("prior lives on the wrong hypothesis alphabet")

    supp = prior_p > 0
    d_inf = float(p @ dk[:, supp].min(axis=1)) - baseline
    if epsilon < d_inf - FEAS_DUST:
        raise SupportViolationError(
            f"budget {epsilon} unreachable inside the prior support "
            f"(best achievable {d_inf}); the rate is infinite"
        )

    delta_prior = float(p @ (dk @ prior_p)) - baseline
    if delta_prior <= epsilon + FEAS_DUST:
        return _constant_point(instance, epsilon, prior_p, delta_prior)

    log_prior = np.full_like(prior_p, -np.inf)
    log_prior[supp] = np.log(prior_p[supp])

    def run(slope_bits):
        sigma = slope_bits * LOG2
        a = log_prior[None, :] - sigma * dk
        log_z = _logsumexp_rows(a)
        q = np.exp(a - log_z[:, None])
        delta = float(np.einsum("s,sh,sh->", p, q, dk)) - baseline
        # exact Lagrangian minimum at this slope
        f_exact = (-float(p @ log_z) - sigma * baseline) / LOG2
        return q, _kl_bits(p, q, prior_p), delta, f_exact - slope_bits * epsilon, 1

    return _bisect_slope(instance, epsilon, p, dk, baseline, run,
                         lambda q: prior_p, rate_tol, width=1e-15)


def rd_curve(instance: ProblemInstance, q_sender: Posterior, epsilons,
             prior: Distribution | None = None) -> RDCurve:
    """Solve a whole increasing budget grid; prior=None means plain solve_rd."""
    pts = []
    for eps in epsilons:
        if prior is None:
            pts.append(solve_rd(instance, q_sender, float(eps)))
        else:
            pts.append(solve_rd_with_prior(instance, q_sender, float(eps), prior))
    return RDCurve(points=tuple(pts))
