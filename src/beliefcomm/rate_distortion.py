"""Rate-distortion solvers for semantic distortion budgets.

Two views of one convex program over receiver rows q(h|s), both minimizing
an expected divergence E_S[D(q(.|s) || r)] subject to semantic distortion
<= eps:

* solve_rd: r is the output marginal, so the rate is the mutual information
  I(S;H) = min_r E_S D(q(.|s) || r). Its inner solve is Blahut-style
  alternating minimization of the slope-Lagrangian. solve_dr reads the same
  curve from the rate axis: the least distortion within a rate budget.

* solve_rd_with_prior: r is frozen to a given prior. The inner minimization
  then decouples across datasets and is closed-form, so each slope is
  solved exactly.

One multiplier search serves all three: it brackets a multiplier, closes in
on the budget by Illinois steps (regula falsi on the constraint value,
safeguarded to keep the bracket), blends the bracket ends onto the budget,
and reports an explicit duality gap: achieved objective minus the best dual
lower bound seen, which certifies the answer to within the gap. The search
is a generator that yields each multiplier and is sent its evaluation, so
one copy of it is driven two ways: by a scalar run(lam) for one problem
(solve_rd, solve_dr), and in lockstep over a bank of fixed-prior problems,
where every multiplier step is one batched tilt per problem shape. All rates
are in bits; slopes are bits per unit distortion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InvariantViolationError, SupportViolationError
from .learning import Posterior, effective_distortion_matrix
from .spaces import Distribution, ProblemInstance, _logsumexp_rows, _rel_entr

LOG2 = math.log(2.0)

DEFAULT_RATE_TOL = 1e-7
SLOPE_MAX = 1e6
# distortion tolerance of solve_dr's duality gap
_DR_TOL = 1e-10
_MAX_INNER_ITERS = 10**5
# never reached: the gap or bracket-width stop ends the Illinois search
# within 25 steps on the test suite's worlds (halving took about 50)
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


def _kl_bits(p: np.ndarray, q: np.ndarray, ref: np.ndarray) -> float:
    """E_S D(q(.|s) || ref) in bits over weights p.

    The weighted row divergences are added left to right, as a loop over the
    rows would add them; + 0.0 reads an all -0.0 sum as Python's sum does.
    """
    return (float((p * _rel_entr(q, ref).sum(axis=1)).cumsum()[-1]) + 0.0) \
        / LOG2


def _ba_lagrangian(p, dmat, sigma, tol_gap_nats):
    """Alternating minimization of I + sigma*<q,D> (nats) at fixed tilt sigma.

    Returns (q, i_nats, avg_d, fw_gap_nats, iters). Each check prices the
    iterate q(h|s) = r_h e^{-sigma d_sh} / z_s from the sums the step already
    holds, z_s and Blahut's c_h = sum_s p_s e^{-sigma d_sh} / z_s: with the
    output marginal m = p q = r c, the Lagrangian is -p.log z - m.log c, and
    max log c - m.log c is the Frank-Wolfe gap, a true upper bound on its
    suboptimality. Both stay finite where a hypothesis' mass underflows.
    """
    n_h = dmat.shape[1]
    log_r = np.full(n_h, -math.log(n_h))
    tilt = -sigma * dmat  # (s, h)
    last_f = np.inf
    window_f = np.inf
    check_every = 8
    for it in range(1, _MAX_INNER_ITERS + 1):
        # scipy's logsumexp dominates runtime on alphabets this small, so the
        # reductions are spelled out with plain max/exp/log
        a = log_r[None, :] + tilt
        m1 = a.max(axis=1)
        log_z = np.log(np.exp(a - m1[:, None]).sum(axis=1)) + m1
        x = tilt - log_z[:, None]
        m0 = x.max(axis=0)
        log_c = np.log((p[:, None] * np.exp(x - m0[None, :])).sum(axis=0)) + m0
        if it % check_every == 0 or it == _MAX_INNER_ITERS or it == 1:
            q = np.exp(a - log_z[:, None])
            avg_d = float(np.einsum("s,sh,sh->", p, q, dmat))
            m_log_c = float((p @ q) @ log_c)
            f = -float(p @ log_z) - m_log_c
            gap = max(float(log_c.max()) - m_log_c, 0.0)
            # slow-crawl cutoff: progress over a 512-iteration window too
            # small to matter. Out of iterations, the iterate is still
            # primal-feasible and the gap an honest certificate; the caller
            # folds the residual into its reported duality gap.
            if gap < tol_gap_nats or abs(last_f - f) < 1e-12 * LOG2 \
                    or (it % 512 == 0 and window_f - f < 1e-9) \
                    or it == _MAX_INNER_ITERS:
                return q, f - sigma * avg_d, avg_d, gap, it
            if it % 512 == 0:
                window_f = f
            last_f = f
        log_r = log_r + log_c
        mr = log_r.max()
        log_r -= mr + math.log(np.exp(log_r - mr).sum())


def _check_budget(budget, name="epsilon"):
    if not budget >= 0:
        raise ValueError(f"{name} must be >= 0, got {budget}")


def _setup(instance, q_sender):
    """Weights, distortion rows and baseline over the positive-mass datasets."""
    dmat, baseline = effective_distortion_matrix(instance, q_sender)
    keep = instance.p_s > 0
    return instance.p_s[keep], dmat[keep], baseline


def _point(instance, epsilon, q, ref_row, rate, distortion, slope, iters,
           gap) -> RDPoint:
    """An RDPoint whose zero-mass datasets get ref_row."""
    rows = np.repeat(ref_row[None, :], instance.n_datasets, axis=0)
    rows[instance.p_s > 0] = q
    return RDPoint(
        epsilon=epsilon, rate=max(rate, 0.0), distortion=distortion,
        slope=slope, q_tilde=Posterior.from_rows(rows, instance),
        iterations=iters, duality_gap=gap,
    )


def _constant_rows(instance, row) -> Posterior:
    """Every dataset gets the same row."""
    return Posterior.from_rows(
        np.repeat(row[None, :], instance.n_datasets, axis=0), instance)


def _constant_point(epsilon, q_tilde, delta) -> RDPoint:
    """The rate-zero answer around constant rows q_tilde of distortion
    delta."""
    return RDPoint(
        epsilon=epsilon, rate=0.0, distortion=min(delta, epsilon), slope=0.0,
        q_tilde=q_tilde, iterations=0, duality_gap=0.0,
    )


def _best_constant(p, dk, baseline):
    """The best constant row and its distortion: the rate-zero answer."""
    dbar = p @ dk
    h_star = int(np.argmin(dbar))
    return np.eye(dk.shape[1])[h_star], float(dbar[h_star]) - baseline


def _search(budget, cost, tol, width, dust, limit=None):
    """Least obj subject to cons <= budget, by searching a multiplier lam.

    A generator: it yields each lam to evaluate and is sent back (q, obj,
    cons, dual, iters), q minimizing obj + lam * cons and dual being a
    certified lower bound on the constrained optimum; cost(q) is (obj, cons)
    of a blend. Feasible means cons <= budget + dust. limit is the feasible
    (q, obj, cons) at lam = infinity; without one, no feasible lam up to
    SLOPE_MAX raises.

    Doubling lam brackets the budget. Each step then tries lam where the
    chord through the ends' cons - budget crosses zero, halving the weight
    of an end that stays put twice in a row (the Illinois method, Dowell &
    Jarratt 1971), and takes the midpoint while the lower end is unevaluated,
    the bracket is infinite or the chord's zero is not strictly inside. The
    search stops once obj is within tol of the best dual bound or the bracket
    is narrower than width relative to lam. Returns (q, obj, cons, lam,
    iters, gap).
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
        # an infinite bracket end also ends the search below
        hi, (q_hi, obj_hi, cons_hi) = math.inf, limit

    # The ends' weighted cons - budget for the Illinois step. Until the lower
    # end is evaluated f_lo is nan, and a feasible end up to dust above the
    # budget gives no sign change either: both take the midpoint.
    f_lo = math.nan if q_lo is None else cons_lo - budget
    f_hi = cons_hi - budget
    moved = None
    for _ in range(_MAX_BISECTIONS):
        if obj_hi - lower <= tol or hi - lo <= width * max(1.0, hi):
            break
        lam = 0.5 * (lo + hi)
        if f_hi <= 0.0 < f_lo:
            x = lo + (hi - lo) * f_lo / (f_lo - f_hi)
            if lo < x < hi:
                lam = x
        q_lam, obj_lam, cons_lam = yield from solve(lam)
        if cons_lam <= budget + dust:
            hi, q_hi, obj_hi, cons_hi = lam, q_lam, obj_lam, cons_lam
            f_hi = cons_lam - budget
            if moved == "hi":
                f_lo *= 0.5
            moved = "hi"
        else:
            lo, q_lo, cons_lo = lam, q_lam, cons_lam
            f_lo = cons_lam - budget
            if moved == "lo":
                f_hi *= 0.5
            moved = "lo"

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


def _bisect_slope(budget, run, cost, tol, width, dust, limit=None):
    """_search driven by one problem's run(lam), which returns what the
    search is sent: (q, obj, cons, dual, iters). Returns (q, obj, cons, lam,
    iters, gap)."""
    search = _search(budget, cost, tol, width, dust, limit)
    lam = next(search)
    while True:
        result = run(lam)
        try:
            lam = search.send(result)
        except StopIteration as done:
            return done.value


def _distortion(p, q, dk, baseline):
    return float(np.einsum("s,sh,sh->", p, q, dk)) - baseline


def solve_rd(instance: ProblemInstance, q_sender: Posterior, epsilon: float,
             rate_tol: float = DEFAULT_RATE_TOL) -> RDPoint:
    """Least mutual information compatible with a semantic-distortion budget.

    The budget must be >= 0 (the sender's own rows always meet it). Ties on
    the constraint boundary resolve toward the smaller rate; in particular a
    budget reachable with a constant row returns rate exactly 0.
    """
    _check_budget(epsilon)
    p, dk, baseline = _setup(instance, q_sender)

    # Rate-zero fast path: best constant row.
    row, delta0 = _best_constant(p, dk, baseline)
    if delta0 <= epsilon + FEAS_DUST:
        return _constant_point(epsilon, _constant_rows(instance, row), delta0)

    gap_tol_nats = 0.25 * rate_tol * LOG2

    def run(slope_bits):
        q, i_nats, avg_d, fw_gap, it = _ba_lagrangian(
            p, dk, slope_bits * LOG2, gap_tol_nats
        )
        delta = avg_d - baseline
        # dual value at this slope: certified Lagrangian lower bound minus
        # slope*eps, and a rate is never below 0
        dual = (i_nats - fw_gap) / LOG2 + slope_bits * (delta - epsilon)
        return q, i_nats / LOG2, delta, max(dual, 0.0), it

    # the rate is I(S;H) = E_S D(q(.|s) || marginal)
    q, rate, delta, slope, iters, gap = _bisect_slope(
        epsilon, run,
        lambda q: (_kl_bits(p, q, p @ q), _distortion(p, q, dk, baseline)),
        rate_tol, 1e-9, FEAS_DUST)
    return _point(instance, epsilon, q, p @ q, rate, delta, slope, iters, gap)


def solve_dr(instance: ProblemInstance, q_sender: Posterior,
             rate_budget: float) -> RDPoint:
    """Least semantic distortion within a rate budget in bits: D(R).

    The multiplier mu = 1/slope prices rate in distortion units; each mu
    runs solve_rd's Blahut-Arimoto step at slope 1/mu, and the best constant
    row (rate 0) is the mu -> infinity end. The point's epsilon is the
    distortion it reaches and its duality gap is in distortion units.
    """
    _check_budget(rate_budget, "rate_budget")
    p, dk, baseline = _setup(instance, q_sender)

    def cost(q):
        return _distortion(p, q, dk, baseline), _kl_bits(p, q, p @ q)

    # Least-distortion fast path: every dataset gets its best hypothesis.
    best = np.eye(dk.shape[1])[dk.argmin(axis=1)]
    d_best, r_best = cost(best)
    if r_best <= rate_budget:
        return _point(instance, d_best, best, p @ best, r_best, d_best,
                      math.inf, 0, 0.0)

    row, delta0 = _best_constant(p, dk, baseline)
    if rate_budget == 0.0:
        # I(S;H) = 0 forces one row on every dataset, so the best constant
        # row is the exact answer
        return _constant_point(delta0, _constant_rows(instance, row), delta0)
    const, d_const = np.repeat(row[None, :], len(p), axis=0), dk @ row

    def run(mu):
        # Blahut's optimality condition at the constant row: no hypothesis
        # would gain mass from it (c_h <= c of the row's own hypothesis), so
        # it is the exact minimizer at this mu
        log_c = _logsumexp_rows(np.log(p) + (LOG2 / mu) * (d_const - dk.T))
        if log_c.max() <= log_c @ row:
            return const, delta0, 0.0, delta0 - mu * rate_budget, 0
        q, i_nats, avg_d, fw_gap, it = _ba_lagrangian(
            p, dk, LOG2 / mu, 0.25 * _DR_TOL * LOG2 / mu
        )
        delta = avg_d - baseline
        dual = delta + mu * ((i_nats - fw_gap) / LOG2 - rate_budget)
        return q, delta, i_nats / LOG2, dual, it

    q, delta, rate, mu, iters, gap = _bisect_slope(
        rate_budget, run, cost, _DR_TOL, 1e-9, 0.0, limit=(const, delta0, 0.0))
    return _point(instance, delta, q, p @ q, rate, delta, 1.0 / mu, iters, gap)


def solve_rd_with_prior(instance: ProblemInstance, q_sender: Posterior, epsilon: float,
                        prior: Distribution,
                        rate_tol: float = DEFAULT_RATE_TOL) -> RDPoint:
    """Least expected coding divergence against a fixed prior under a budget.

    The inner problem decouples across datasets and is solved in closed form
    (tilt the prior by the distortion column), so every slope evaluation is
    exact and the dual bound is tight.
    """
    return _prior_grid([(instance, q_sender, prior, [epsilon])], rate_tol)[0][0]


def _tilt(p, log_prior, d0, sigma):
    """The priors tilted by slopes sigma (nats), one problem per leading
    index: the rows q minimizing E_S D(q(.|s) || prior) + sigma <q, d>, and
    that divergence in nats.

    d0 is d with each row shifted to minimum 0 over the prior's support,
    which leaves q as it is. The divergence is then -p.log z - sigma p.<q, d0>
    with both terms bounded as sigma grows, so it is not a difference of
    large numbers. The row-wise logsumexp, the matmul and the three-operand
    einsum give each problem the bits it gets alone; (p * log_z).sum(1) or
    einsum("bs,bs->b") would not.
    """
    a = log_prior[:, None, :] - sigma[:, None, None] * d0
    n_b, n_s, n_h = a.shape
    log_z = _logsumexp_rows(a.reshape(n_b * n_s, n_h)).reshape(n_b, n_s)
    q = np.exp(a - log_z[:, :, None])
    p_log_z = np.matmul(p[:, None, :], log_z[:, :, None])[:, 0, 0]
    return q, -p_log_z - sigma * np.einsum("bs,bsh,bsh->b", p, q, d0)


def _prior_search(instance, epsilon, p, dk, baseline, prior_p, rate_tol):
    """One budget's _search against a fixed prior; returns its RDPoint."""
    def cost(q):
        return _kl_bits(p, q, prior_p), _distortion(p, q, dk, baseline)

    q, rate, delta, slope, iters, gap = yield from _search(
        epsilon, cost, rate_tol, 1e-15, FEAS_DUST)
    return _point(instance, epsilon, q, prior_p, rate, delta, slope, iters,
                  gap)


def _lockstep(searches, p, log_prior, d0, dk, baseline, epsilon):
    """Drive fixed-prior searches of one shape together, row b of each
    stacked array belonging to searches[b]: every multiplier step is one
    batched tilt over the searches still open. Returns their results."""
    results = [None] * len(searches)
    live = list(range(len(searches)))
    lam = np.array([next(search) for search in searches])
    while live:
        q, kl_nats = _tilt(p[live], log_prior[live], d0[live], lam * LOG2)
        rate = kl_nats / LOG2
        delta = np.einsum("bs,bsh,bsh->b", p[live], q, dk[live]) \
            - baseline[live]
        # the exact Lagrangian minimum rate + slope * delta, less
        # slope * epsilon
        dual = rate + lam * (delta - epsilon[live])
        still, lams = [], []
        for k, b in enumerate(live):
            try:
                lams.append(searches[b].send((
                    q[k], float(rate[k]), float(delta[k]),
                    max(float(dual[k]), 0.0), 1)))
            except StopIteration as done:
                results[b] = done.value
            else:
                still.append(b)
        live, lam = still, np.array(lams)
    return results


def _prior_grid(problems, rate_tol=DEFAULT_RATE_TOL) -> list[list[RDPoint]]:
    """solve_rd_with_prior over a bank of problems (instance, sender, prior,
    budgets), each set up once, every search of the bank in lockstep.

    The distortion rows, the prior's reach and log, and the rate-zero point
    depend on the instance, the sender and the prior alone; every budget
    the prior row meets shares that one point, with its own epsilon. The
    other budgets are searched together: the searches whose kept-dataset x
    hypothesis shape agree share one batched tilt per multiplier step, which
    gives each search the bits it gets alone. Returns each problem's points
    in budget order.
    """
    points, banks = [], {}
    for instance, q_sender, prior, epsilons in problems:
        p, dk, baseline = _setup(instance, q_sender)
        prior_p = prior.probs
        if len(prior_p) != instance.n_hypotheses:
            raise SupportViolationError(
                "prior lives on the wrong hypothesis alphabet")

        supp = prior_p > 0
        d_min = dk[:, supp].min(axis=1)
        d_inf = float(p @ d_min) - baseline
        delta_prior = float(p @ (dk @ prior_p)) - baseline
        log_prior = np.full_like(prior_p, -np.inf)
        log_prior[supp] = np.log(prior_p[supp])
        d0 = dk - d_min[:, None]
        q_const = None
        pts = []
        for epsilon in map(float, epsilons):
            _check_budget(epsilon)
            if epsilon < d_inf - FEAS_DUST:
                raise SupportViolationError(
                    f"budget {epsilon} unreachable inside the prior support "
                    f"(best achievable {d_inf}); the rate is infinite"
                )
            if delta_prior <= epsilon + FEAS_DUST:
                if q_const is None:
                    q_const = _constant_rows(instance, prior_p)
                pts.append(_constant_point(epsilon, q_const, delta_prior))
                continue
            slots, searches, rows = banks.setdefault(dk.shape, ([], [], []))
            slots.append((pts, len(pts)))
            searches.append(_prior_search(instance, epsilon, p, dk, baseline,
                                          prior_p, rate_tol))
            rows.append((p, log_prior, d0, dk, baseline, epsilon))
            pts.append(None)
        points.append(pts)
    for slots, searches, rows in banks.values():
        stacked = [np.array(column) for column in zip(*rows)]
        for (pts, i), point in zip(slots, _lockstep(searches, *stacked)):
            pts[i] = point
    return points


def rd_curve(instance: ProblemInstance, q_sender: Posterior, epsilons,
             prior: Distribution | None = None) -> RDCurve:
    """Solve a whole increasing budget grid; prior=None means plain solve_rd."""
    if prior is None:
        pts = [solve_rd(instance, q_sender, float(eps)) for eps in epsilons]
    else:
        pts = _prior_grid([(instance, q_sender, prior, epsilons)])[0]
    return RDCurve(points=tuple(pts))
