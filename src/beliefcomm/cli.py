"""Command line front end: seeded experiments written as CSV plus a manifest.

Every subcommand reads an optional JSON config, applies flag overrides,
runs, and writes files under --out. Outputs carry no timestamps, so a rerun
with the same config and seed is byte-identical. Exit codes: 0 on success,
2 on a validation problem, 3 when an invariant, bound, or oracle check
fails.
"""

from __future__ import annotations

import argparse
import csv
import json
import platform
import sys
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .channel_coding import CommonRandomness, code_sequence, encode_batch, \
    induced_distribution_exact, inverse_cdf_sample
from .coordination import (
    d_avg_seq,
    d_max_seq,
    run_example_1,
    simulate_strong,
)
from .errors import (
    BeliefCommError,
    BoundViolationError,
    ConfigError,
    ConvergenceError,
    EnumerationCapError,
    InvariantViolationError,
)
from .learning import LearningRule, fit
from .oracle import (
    mrc_enumeration_oracle,
    rd_grid_oracle,
    sequence_distortion_oracle,
)
from .rate_distortion import rd_curve, solve_rd
from .schemes import compare_schemes, enumerate_compressors, verify_bound
from .spaces import (
    Distribution,
    kl_divergence,
    load_problem_instance,
    problem_instance_from_json,
    total_variation,
)
from .worlds import random_instance, two_hypothesis_world

VALIDATION_EXIT = 2
VIOLATION_EXIT = 3


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, np.integer):
        return str(int(x))
    return str(x)


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(x) for x in row])


def _write_checks(path: Path, rows) -> int:
    """Write oracle agreement rows; the exit code says whether all held."""
    _write_csv(path, ["check", "case", "value_solver", "value_oracle",
                      "abs_diff", "ok"], rows)
    if any(not r[-1] for r in rows):
        print(f"oracle disagreement; see {path.name}", file=sys.stderr)
        return VIOLATION_EXIT
    return 0


def _write_manifest(outdir: Path, command: str, cfg: dict):
    manifest = {
        "command": command,
        "config": cfg,
        "seed": cfg.get("seed", 0),
        "versions": {
            "beliefcomm": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
    }
    with open(outdir / "manifest.json", "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def _load_config(args) -> dict:
    cfg = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise ConfigError("/", f"config file not found: {path}")
        try:
            cfg = json.loads(path.read_text())
        except json.JSONDecodeError as e:
            raise ConfigError("/", f"config is not valid JSON: {e}")
        if not isinstance(cfg, dict):
            raise ConfigError("/", "config must be a JSON object")
    for key in ("seed", "n", "trials", "slack", "mode", "prior", "rate_budget",
                "instances", "tv_trials"):
        val = getattr(args, key.replace("-", "_"), None)
        if val is not None:
            cfg[key] = val
    if getattr(args, "epsilons", None):
        try:
            cfg["epsilons"] = [float(x) for x in args.epsilons.split(",")]
        except ValueError:
            raise ConfigError("/epsilons", "expected comma-separated numbers")
    if getattr(args, "n_list", None):
        try:
            cfg["n_list"] = [int(x) for x in args.n_list.split(",")]
        except ValueError:
            raise ConfigError("/n_list", "expected comma-separated integers")
    if getattr(args, "instance", None):
        cfg["instance"] = args.instance
    return cfg


def _get_instance(cfg):
    if "instance" not in cfg:
        raise ConfigError("/instance", "this command needs a problem instance")
    spec = cfg["instance"]
    if isinstance(spec, str):
        path = Path(spec)
        if not path.exists():
            raise ConfigError("/instance", f"no such file: {path}")
        return load_problem_instance(path)
    return problem_instance_from_json(spec, pointer="/instance")


def _get_rule(cfg) -> LearningRule:
    return LearningRule.from_json(cfg.get("rule", {"rule": "gibbs", "beta": 1.0}))


def _get_seed(cfg) -> int:
    seed = cfg.get("seed", 0)
    if not isinstance(seed, int):
        raise ConfigError("/seed", "seed must be an integer")
    if not 0 <= seed < 2**64:
        raise ConfigError("/seed", f"seed {seed} outside [0, 2^64)")
    return seed


def _get_prior(cfg, posterior, n_hypotheses) -> Distribution:
    spec = cfg.get("prior", "marginal")
    if spec == "marginal":
        return posterior.marginal
    if spec == "uniform":
        return Distribution.uniform(n_hypotheses)
    if isinstance(spec, list):
        return Distribution(spec)
    if isinstance(spec, str):
        path = Path(spec)
        if not path.exists():
            raise ConfigError("/prior", f"no such prior file: {path}")
        try:
            return Distribution(json.loads(path.read_text()))
        except (json.JSONDecodeError, ValueError) as e:
            raise ConfigError("/prior", f"bad prior file: {e}")
    raise ConfigError("/prior", f"unrecognized prior spec {spec!r}")


def _epsilon_grid(cfg, l_max: float):
    eps = cfg.get("epsilons")
    if eps is None:
        eps = [round(l_max * k / 8.0, 12) for k in range(9)]
    if not isinstance(eps, list) or not all(isinstance(e, (int, float)) for e in eps):
        raise ConfigError("/epsilons", "need a list of numbers")
    if any(b <= a for a, b in zip(eps, eps[1:])):
        raise ConfigError("/epsilons", "grid must be strictly increasing")
    if eps and eps[0] < 0:
        raise ConfigError("/epsilons", "budgets must be >= 0")
    return [float(e) for e in eps]


# ---------------------------------------------------------------------------
# subcommands


def _cmd_rd_curve(args, outdir: Path) -> int:
    cfg = _load_config(args)
    instance = _get_instance(cfg)
    rule = _get_rule(cfg)
    q_alice = fit(rule, instance)
    prior = _get_prior(cfg, q_alice, instance.n_hypotheses)
    epsilons = _epsilon_grid(cfg, instance.hypotheses.l_max)
    points = rd_curve(instance, q_alice, epsilons).points
    prior_points = rd_curve(instance, q_alice, epsilons, prior=prior).points
    _write_csv(outdir / "rd-curve.csv",
               ["epsilon", "rate_bits", "rate_with_prior_bits",
                "converged_iters", "duality_gap"],
               [(pt.epsilon, pt.rate, ppt.rate, pt.iterations, pt.duality_gap)
                for pt, ppt in zip(points, prior_points)])
    _write_manifest(outdir, "rd-curve", cfg)
    if args.with_oracle:
        checks = []
        free = int(np.sum(instance.p_s > 0)) * (instance.n_hypotheses - 1)
        if free <= 4:
            for eps, pt in zip(epsilons, points):
                oracle_rate = rd_grid_oracle(instance, q_alice, eps)
                diff = abs(oracle_rate - pt.rate)
                checks.append(("rd_grid", f"eps={_fmt(eps)}", pt.rate,
                               oracle_rate, diff, diff <= 1e-3))
        return _write_checks(outdir / "oracle_checks.csv", checks)
    return 0


def _cmd_code(args, outdir: Path) -> int:
    cfg = _load_config(args)
    instance = _get_instance(cfg)
    rule = _get_rule(cfg)
    q_alice = fit(rule, instance)
    prior = _get_prior(cfg, q_alice, instance.n_hypotheses)
    seed = _get_seed(cfg)
    n = int(cfg.get("n", 8))
    slack = float(cfg.get("slack", 4.0))
    mode = cfg.get("mode", "per_symbol")
    if mode not in ("per_symbol", "block"):
        raise ConfigError("/mode", f"unknown mode {mode!r}")
    tv_trials = int(cfg.get("tv_trials", 512))
    cr = CommonRandomness(seed)
    s_seq = inverse_cdf_sample(instance.p_s, cr.data_stream(0).random(n))
    cr.tally(n)
    coded = code_sequence(q_alice, prior, s_seq, cr, mode=mode, slack=slack)
    recs = [coded.records[i if mode == "per_symbol" else 0] for i in range(n)]
    row_dists = [Distribution(q_alice.rows[s]) for s in s_seq]

    def exact_law(row_dist, k):
        """TV of the exact induced law, plus its oracle check; None past the cap."""
        try:
            induced = induced_distribution_exact(row_dist, prior, k)
        except EnumerationCapError:
            return None
        tv, check = total_variation(induced, row_dist), None
        if args.with_oracle and len(prior) ** k <= 4096:
            ref = mrc_enumeration_oracle(row_dist, prior, k)
            diff = total_variation(induced, ref)
            check = (total_variation(ref, row_dist), diff, diff <= 1e-12)
        return tv, check

    # positions that share a dataset and K share one law
    laws, tvs, oracle_rows = {}, {}, []
    for i, (s, rec) in enumerate(zip(s_seq.tolist(), recs)):
        key = (s, rec.n_candidates)
        if key not in laws:
            laws[key] = exact_law(row_dists[i], rec.n_candidates)
        if laws[key] is None:
            continue
        tvs[i], check = laws[key]
        if check is not None:
            oracle_rows.append(("mrc_induced", f"position={i}", tvs[i], *check))
    # Monte Carlo estimate where the exact law is out of reach: trial j of
    # position i on stream (10**6 + j, i), all of them in one batch
    mc = np.array([i for i in range(n) if i not in tvs], dtype=np.int64)
    if len(mc):
        pos = np.tile(mc, tv_trials)
        paths = np.column_stack([10**6 + np.repeat(np.arange(tv_trials), len(mc)),
                                 pos])
        q_rows = np.array([row_dists[i].probs for i in mc])
        k = np.array([recs[i].n_candidates for i in mc])
        est = encode_batch(np.tile(q_rows, (tv_trials, 1)), prior,
                           np.tile(k, tv_trials), cr, paths)
        hits = np.zeros((n, len(prior)))
        np.add.at(hits, (pos, est.sample), 1.0)
        for i in mc.tolist():
            tvs[i] = total_variation(hits[i] / tv_trials, row_dists[i])
    rows = [(i, kl_divergence(row_dists[i], prior), rec.n_candidates,
             rec.index_bits, tvs[i], rec.fallback) for i, rec in enumerate(recs)]
    _write_csv(outdir / "code.csv",
               ["position", "kl_bits", "K", "index_bits",
                "tv_exact_or_estimate", "flagged_fallback"], rows)
    _write_manifest(outdir, "code", cfg)
    if args.with_oracle:
        return _write_checks(outdir / "oracle_checks.csv", oracle_rows)
    return 0


def _cmd_coordinate(args, outdir: Path) -> int:
    cfg = _load_config(args)
    instance = _get_instance(cfg)
    rule = _get_rule(cfg)
    q_target = fit(rule, instance)
    seed = _get_seed(cfg)
    n = int(cfg.get("n", 4))
    trials = int(cfg.get("trials", 10**4))
    slack = float(cfg.get("slack", 4.0))
    cr = CommonRandomness(seed)
    report = simulate_strong(instance, q_target, n, cr, trials=trials, slack=slack)
    _write_csv(outdir / "coordinate.csv",
               ["n", "d_avg", "d_max", "bits_per_symbol", "tv_max_position",
                "trials"],
               [(report.n, report.d_avg_est, report.d_max_est,
                 report.bits_per_symbol, report.tv_max_position, report.trials)])
    _write_manifest(outdir, "coordinate", cfg)
    return 0


def _cmd_example1(args, outdir: Path) -> int:
    cfg = _load_config(args)
    seed = _get_seed(cfg)
    n_list = cfg.get("n_list")
    if n_list is None:
        n_list = [int(cfg["n"])] if "n" in cfg else [2, 3, 4, 5, 8, 16, 32, 50]
    if not all(isinstance(n, int) and n >= 2 for n in n_list):
        raise ConfigError("/n_list", "need integers >= 2")
    rows, oracle_rows = [], []
    world = two_hypothesis_world()
    for n in n_list:
        res = run_example_1(n, seed=seed)
        rows.append((n, res.d_avg, res.d_max, res.bits_per_symbol,
                     res.tv_max_position, 0))
        if args.with_oracle:
            o_avg, o_max = sequence_distortion_oracle(res.trace, world)
            diff = max(abs(o_avg - res.d_avg), abs(o_max - res.d_max))
            oracle_rows.append(("sequence_distortion", f"n={n}", res.d_avg,
                                o_avg, diff, diff <= 1e-12))
    _write_csv(outdir / "example1.csv",
               ["n", "d_avg", "d_max", "bits_per_symbol", "tv_max_position",
                "trials"], rows)
    _write_manifest(outdir, "example1", cfg)
    if args.with_oracle:
        return _write_checks(outdir / "oracle_checks.csv", oracle_rows)
    return 0


def _cmd_compare_schemes(args, outdir: Path) -> int:
    cfg = _load_config(args)
    instance = _get_instance(cfg)
    rule = _get_rule(cfg)
    if rule.kind == "map_table":
        raise ConfigError("/rule", "compare-schemes needs a refittable rule")
    q_alice = fit(rule, instance)
    budget = cfg.get("rate_budget")
    compressors = cfg.get("compressors")
    if compressors is None:
        if instance.n_datasets > 6:
            raise ConfigError(
                "/compressors",
                "exhaustive enumeration limited to 6 datasets; list compressors"
            )
        compressors = list(enumerate_compressors(instance.n_datasets))
    rows = []
    for rho in compressors:
        if len(rho) != instance.n_datasets:
            raise ConfigError("/compressors", "each map must label every dataset")
        rep = compare_schemes(instance, q_alice, rule, rho,
                              rate_budget=budget)
        rows.append(("|".join(str(c) for c in rep.compressor),
                     rep.mi_model, rep.mi_model2, rep.mi_residual, rep.delta_r,
                     rep.bound1, rep.bound2, rep.measured_distortion,
                     rep.rate_budget, rep.scheme1_rate, rep.boundary_gap,
                     rep.distortion_scheme2, rep.infeasible))
    _write_csv(outdir / "compare-schemes.csv",
               ["compressor", "mi_model", "mi_model2", "mi_residual", "delta_r",
                "bound1", "bound2", "measured_distortion", "rate_budget",
                "scheme1_rate", "boundary_gap", "distortion_scheme2",
                "infeasible"], rows)
    _write_manifest(outdir, "compare-schemes", cfg)
    return 0


def _random_world_and_sender(rng):
    inst = random_instance(
        rng,
        n_concepts=int(rng.integers(2, 4)),
        n_symbols=int(rng.integers(2, 4)),
        n_hypotheses=int(rng.integers(2, 4)),
        m=1,
    )
    beta = float(np.exp(rng.uniform(np.log(0.5), np.log(4.0))))
    return inst, fit(LearningRule.gibbs(beta), inst)


def _cmd_verify_bound(args, outdir: Path) -> int:
    cfg = _load_config(args)
    seed = _get_seed(cfg)
    count = int(cfg.get("instances", 20))
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    cases = []
    world = two_hypothesis_world()
    uniform_rows = np.full((world.n_datasets, 2), 0.5)
    from .learning import Posterior
    cases.append(("alternating-world", world,
                  Posterior.from_rows(uniform_rows, world)))
    for i in range(count):
        inst, q = _random_world_and_sender(rng)
        cases.append((f"random-{i}", inst, q))
    rows = []
    for name, inst, q_alice in cases:
        prior = _get_prior(cfg, q_alice, inst.n_hypotheses)
        eps_grid = _epsilon_grid(cfg, inst.hypotheses.l_max)
        try:
            checks = verify_bound(inst, q_alice, prior, eps_grid)
        except BoundViolationError as e:
            repro = outdir / "violation.json"
            with open(repro, "w") as f:
                json.dump(e.instance_json, f, indent=2, sort_keys=True)
            print(f"bound violated on {name}: {e}; instance in {repro}",
                  file=sys.stderr)
            return VIOLATION_EXIT
        for c in checks:
            rows.append((name, c.epsilon, c.rate, c.r_star, c.delta_r,
                         c.bound, c.measured, c.margin, c.ok))
    _write_csv(outdir / "verify-bound.csv",
               ["instance_id", "epsilon", "rate_bits", "r_star_bits",
                "delta_r_bits", "bound", "measured", "margin", "ok"], rows)
    _write_manifest(outdir, "verify-bound", cfg)
    return 0


def _cmd_audit(args, outdir: Path) -> int:
    cfg = _load_config(args)
    seed = _get_seed(cfg)
    count = int(cfg.get("instances", 8))
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    rows = []

    from .learning import effective_distortion_matrix

    sizes = [(2, 2), (3, 2), (2, 3)]
    for i in range(count):
        n_sym, n_h = sizes[i % len(sizes)]
        # hunt briefly for a sender that beats every constant reply, so the
        # checked point sits on the positive-rate part of the curve
        inst = q = None
        span = 0.0
        for _ in range(40):
            inst = random_instance(rng, n_concepts=3, n_symbols=n_sym,
                                   n_hypotheses=n_h, m=1, concentration=0.2)
            q = fit(LearningRule.erm(), inst)
            dmat, base = effective_distortion_matrix(inst, q)
            span = float((inst.p_s @ dmat).min()) - base
            if span > 0.01:
                break
        eps = float(rng.uniform(0.2, 0.8)) * span if span > 0.01 else 0.0
        pt = solve_rd(inst, q, eps)
        oracle_rate = rd_grid_oracle(inst, q, eps)
        diff = abs(oracle_rate - pt.rate)
        rows.append(("rd_grid", f"case={i}", pt.rate, oracle_rate, diff,
                     diff <= 1e-3))

    for i in range(count):
        n_h = 2 + (i % 2)
        q = Distribution(rng.dirichlet(np.ones(n_h)))
        p = Distribution(rng.dirichlet(np.ones(n_h)))
        k = int(2 ** int(rng.integers(0, 4)))
        ind = induced_distribution_exact(q, p, k)
        ref = mrc_enumeration_oracle(q, p, k)
        diff = total_variation(ind, ref)
        rows.append(("mrc_induced", f"case={i}", float(ind.probs[0]),
                     float(ref.probs[0]), diff, diff <= 1e-12))

    from .coordination import SequenceTrace, joint_type_from_pairs
    for i in range(count):
        inst = random_instance(rng, n_concepts=2, n_symbols=2,
                               n_hypotheses=2, m=1)
        q = fit(LearningRule.gibbs(1.0), inst)
        n = int(rng.integers(2, 7))
        s_seq = inverse_cdf_sample(inst.p_s, rng.random(n))
        hyp = rng.integers(0, inst.n_hypotheses, size=n)
        sched = np.zeros((n, inst.n_hypotheses))
        sched[np.arange(n), hyp] = 1.0
        trace = SequenceTrace(
            n=n, datasets=tuple(int(s) for s in s_seq),
            alice_rows=q.rows[s_seq], bob_rows=sched,
            joint_type=joint_type_from_pairs(s_seq, hyp, inst.n_datasets,
                                             inst.n_hypotheses),
            bits_used=0.0, cr_bits=0,
        )
        o_avg, o_max = sequence_distortion_oracle(trace, inst)
        a_avg = d_avg_seq(trace.alice_rows, trace.bob_rows, inst)
        a_max = d_max_seq(trace.alice_rows, trace.bob_rows, inst)
        diff = max(abs(o_avg - a_avg), abs(o_max - a_max))
        rows.append(("sequence_distortion", f"case={i}", a_avg, o_avg, diff,
                     diff <= 1e-12))

    _write_manifest(outdir, "audit", cfg)
    return _write_checks(outdir / "audit.csv", rows)


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beliefcomm",
        description="Seeded experiments on communicating learned beliefs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, instance=True):
        p.add_argument("--config", help="JSON experiment config")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--with-oracle", action="store_true",
                       help="cross-check results against brute-force oracles")
        if instance:
            p.add_argument("--instance", help="problem instance JSON file")

    p = sub.add_parser("rd-curve", help="rate-distortion curve over a budget grid")
    common(p)
    p.add_argument("--epsilons", help="comma-separated budgets")
    p.add_argument("--prior", help="marginal, uniform, or a JSON file")

    p = sub.add_parser("code", help="one-shot code a sampled dataset sequence")
    common(p)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--slack", type=float, default=None)
    p.add_argument("--mode", choices=["per_symbol", "block"], default=None)
    p.add_argument("--prior", help="marginal, uniform, or a JSON file")
    p.add_argument("--tv-trials", type=int, default=None)

    p = sub.add_parser("coordinate", help="strong per-position tracking estimate")
    common(p)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--slack", type=float, default=None)

    p = sub.add_parser("example1", help="the alternating-schedule walkthrough")
    common(p, instance=False)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--n-list", dest="n_list", help="comma-separated lengths")

    p = sub.add_parser("compare-schemes", help="model-first vs data-first accounting")
    common(p)
    p.add_argument("--rate-budget", type=float, default=None)

    p = sub.add_parser("verify-bound", help="distortion-rate ceiling sweep")
    common(p, instance=False)
    p.add_argument("--instances", type=int, default=None)
    p.add_argument("--epsilons", help="comma-separated budgets")
    p.add_argument("--prior", help="marginal, uniform, or a JSON file")

    p = sub.add_parser("audit", help="run every oracle bank on random cases")
    common(p, instance=False)
    p.add_argument("--instances", type=int, default=None)

    return parser


_HANDLERS = {
    "rd-curve": _cmd_rd_curve,
    "code": _cmd_code,
    "coordinate": _cmd_coordinate,
    "example1": _cmd_example1,
    "compare-schemes": _cmd_compare_schemes,
    "verify-bound": _cmd_verify_bound,
    "audit": _cmd_audit,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        return _HANDLERS[args.command](args, outdir)
    except (ConfigError,) as e:
        print(f"config error: {e}", file=sys.stderr)
        return VALIDATION_EXIT
    except (InvariantViolationError, BoundViolationError, ConvergenceError) as e:
        print(f"check failed: {e}", file=sys.stderr)
        return VIOLATION_EXIT
    except BeliefCommError as e:
        print(f"validation error: {e}", file=sys.stderr)
        return VALIDATION_EXIT


if __name__ == "__main__":
    sys.exit(main())
