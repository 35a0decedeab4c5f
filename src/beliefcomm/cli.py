"""Command line front end: seeded experiments written as CSV plus a manifest.

One entry point, ``main``, serves the subcommands listed in ``COMMANDS``: it
loads the JSON config with the given flags laid over it, calls the handler,
which only computes its table and check rows, then writes ``<command>.csv``,
``manifest.json`` and the check rows, and picks the exit code. Outputs carry no
timestamps, so a rerun with the same config and seed is byte-identical. Exit
codes: 0 on success, 2 on a bad flag, config value or input file, 3 when an
invariant, bound, or oracle check fails.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import platform
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .channel_coding import DEFAULT_BLOCK_CAP, CommonRandomness, \
    code_sequence, induced_distribution_exact, inverse_cdf_sample
from .coordination import d_avg_seq, d_max_seq, run_example_1, simulate_strong
from .errors import (
    BeliefCommError,
    BoundViolationError,
    ConfigError,
    ConvergenceError,
    EnumerationCapError,
    InvariantViolationError,
)
from .learning import LearningRule, Posterior, effective_distortion_matrix, fit
from .oracle import (
    _MAX_FREE_DIMS,
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

# parsed arguments that main uses itself; the rest are experiment settings
_MAIN_KEYS = ("command", "config", "out", "with_oracle")
# comma-separated flags and the type of their elements
_LIST_FLAGS = {"epsilons": float, "n_list": int}
# numeric settings: the type that converts them and their least value (None
# for a float setting, which must be finite)
_NUMERIC = {"n": (int, 1), "trials": (int, 1), "instances": (int, 0),
            "slack": (float, None), "rate_budget": (float, None)}


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, np.integer):
        return str(int(x))
    return str(x)


# cells csv.writer writes as _fmt would: str() of a float is its repr
_NATIVE = (str, int, float)


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        # an exact type test: bool subclasses int and np.float64 float, and
        # _fmt writes both its own way
        w.writerows([x if type(x) in _NATIVE else _fmt(x) for x in row]
                    for row in rows)


def _write_manifest(outdir: Path, command: str, cfg: dict):
    manifest = {
        "command": command,
        "config": cfg,
        "versions": {
            "beliefcomm": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }
    # only a command that draws has a seed its outputs depend on
    if "--seed" in COMMANDS[command][2].split():
        manifest["seed"] = cfg.get("seed", 0)
    with open(outdir / "manifest.json", "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def _load_config(args) -> dict:
    """The JSON config file, if any, with every flag given laid over it."""
    cfg = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError("/", f"config file not found: {path}")
        try:
            cfg = json.loads(path.read_text())
        except json.JSONDecodeError as e:
            raise ConfigError("/", f"config is not valid JSON: {e}")
        if not isinstance(cfg, dict):
            raise ConfigError("/", "config must be a JSON object")
    for key, val in vars(args).items():
        if key in _MAIN_KEYS or val is None:
            continue
        if key in _LIST_FLAGS:
            kind = _LIST_FLAGS[key]
            try:
                val = [kind(x) for x in val.split(",")]
            except ValueError:
                raise ConfigError(f"/{key}",
                                  f"expected comma-separated {kind.__name__}s")
        cfg[key] = val
    return cfg


def _setting(cfg, key: str, default):
    """Numeric setting, converted as int() / float() would and range-checked;
    a setting with no default is optional and reads None when unset."""
    kind, least = _NUMERIC[key]
    val = cfg.get(key, default)
    if val is None and default is None:
        return None
    # bool is an int subclass, but true is no number
    if isinstance(val, bool):
        raise ConfigError(f"/{key}", f"expected a number, got {val!r}")
    try:
        x = kind(val)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"/{key}", f"expected a number, got {val!r}") from None
    if kind is float and not math.isfinite(x):
        raise ConfigError(f"/{key}", f"must be finite, got {val!r}")
    if least is not None and x < least:
        raise ConfigError(f"/{key}", f"must be >= {least}, got {val!r}")
    return x


def _get_sender(cfg):
    """The problem instance, the learning rule and the rule's fitted sender."""
    if "instance" not in cfg:
        raise ConfigError("/instance", "this command needs a problem instance")
    spec = cfg["instance"]
    if isinstance(spec, str):
        path = Path(spec)
        if not path.is_file():
            raise ConfigError("/instance", f"no such file: {path}")
        instance = load_problem_instance(path)
    else:
        instance = problem_instance_from_json(spec, pointer="/instance")
    rule = LearningRule.from_json(cfg.get("rule", {"rule": "gibbs", "beta": 1.0}))
    return instance, rule, fit(rule, instance)


def _get_seed(cfg) -> int:
    seed = cfg.get("seed", 0)
    # bool is an int subclass, but true is no seed
    if not isinstance(seed, int) or isinstance(seed, bool):
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
        if any(isinstance(x, bool) for x in spec):
            raise ConfigError("/prior", "bad prior: booleans are not probabilities")
        try:
            return Distribution(spec)
        except (TypeError, ValueError) as e:
            raise ConfigError("/prior", f"bad prior: {e}") from None
    if isinstance(spec, str):
        path = Path(spec)
        if not path.is_file():
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
    if not isinstance(eps, list) or not all(
            isinstance(e, (int, float)) and not isinstance(e, bool) for e in eps):
        raise ConfigError("/epsilons", "need a list of numbers")
    if not all(math.isfinite(e) for e in eps):
        raise ConfigError("/epsilons", "budgets must be finite")
    if any(b <= a for a, b in zip(eps, eps[1:])):
        raise ConfigError("/epsilons", "grid must be strictly increasing")
    if eps and eps[0] < 0:
        raise ConfigError("/epsilons", "budgets must be >= 0")
    return [float(e) for e in eps]


# ---------------------------------------------------------------------------
# subcommands: handler(cfg, with_oracle) -> ((header, rows) or None,
# check rows or None); files and exit codes are left to main


def _cmd_rd_curve(cfg, with_oracle):
    instance, _, q_alice = _get_sender(cfg)
    prior = _get_prior(cfg, q_alice, instance.n_hypotheses)
    epsilons = _epsilon_grid(cfg, instance.hypotheses.l_max)
    points = rd_curve(instance, q_alice, epsilons).points
    prior_points = rd_curve(instance, q_alice, epsilons, prior=prior).points
    table = (["epsilon", "rate_bits", "rate_with_prior_bits",
              "converged_iters", "duality_gap"],
             [(pt.epsilon, pt.rate, ppt.rate, pt.iterations, pt.duality_gap)
              for pt, ppt in zip(points, prior_points)])
    checks = []
    free = int(np.sum(instance.p_s > 0)) * (instance.n_hypotheses - 1)
    if with_oracle and free <= _MAX_FREE_DIMS:
        for eps, pt in zip(epsilons, points):
            oracle_rate = rd_grid_oracle(instance, q_alice, eps)
            diff = abs(oracle_rate - pt.rate)
            checks.append(("rd_grid", f"eps={_fmt(eps)}", pt.rate,
                           oracle_rate, diff, diff <= 1e-3))
    return table, checks if with_oracle else None


def _tuple_law(rows) -> Distribution:
    """The product of probability rows on their tuple alphabet, first
    position slowest."""
    return Distribution(functools.reduce(np.multiply.outer, rows).ravel())


def _cmd_code(cfg, with_oracle):
    instance, _, q_alice = _get_sender(cfg)
    prior = _get_prior(cfg, q_alice, instance.n_hypotheses)
    seed = _get_seed(cfg)
    n = _setting(cfg, "n", 8)
    slack = _setting(cfg, "slack", 4.0)
    mode = cfg.get("mode", "per_symbol")
    if mode not in ("per_symbol", "block"):
        raise ConfigError("/mode", f"unknown mode {mode!r}")
    n_h = len(prior)
    if mode == "block" and n_h**n > DEFAULT_BLOCK_CAP:
        raise EnumerationCapError(f"block alphabet |H|^n = {n_h}^{n} exceeds "
                                  f"cap {DEFAULT_BLOCK_CAP}")
    cr = CommonRandomness(seed)
    s_seq = inverse_cdf_sample(instance.p_s, cr.data_uniforms([[0]], n)[0])
    coded = code_sequence(q_alice, prior, s_seq, cr, mode=mode, slack=slack)
    # message j carries positions msgs[j]: one each per symbol, all in a block
    width = 1 if mode == "per_symbol" else n
    msgs = np.arange(n).reshape(-1, width)
    row_dists = [Distribution(q_alice.rows[s]) for s in s_seq]
    prior_w = _tuple_law([prior.probs] * width)

    def tvs(law, targets):
        """TV of each position's marginal of a law on H^width to its target."""
        cube = law.probs.reshape((n_h,) * width)
        return [total_variation(np.moveaxis(cube, i, 0).reshape(n_h, -1).sum(1), t)
                for i, t in enumerate(targets)]

    # messages with the same datasets and K share one law
    laws, tv, oracle_rows = {}, [], []
    for pos, rec in zip(msgs.tolist(), coded.records):
        targets, k = [row_dists[i] for i in pos], rec.n_candidates
        key = (tuple(s_seq[pos].tolist()), k)
        if key not in laws:
            target = _tuple_law([t.probs for t in targets])
            law, checks = induced_distribution_exact(target, prior_w, k), []
            if with_oracle:
                try:
                    ref = mrc_enumeration_oracle(target, prior_w, k,
                                                 max_states=4096)
                except EnumerationCapError:
                    pass  # too many candidate tuples to enumerate: unchecked
                else:
                    diff = total_variation(law, ref)
                    checks = [(x, diff, diff <= 1e-12)
                              for x in tvs(ref, targets)]
            laws[key] = tvs(law, targets), checks
        tv += laws[key][0]
        oracle_rows += [("mrc_induced", f"position={i}", x, *c)
                        for i, x, c in zip(pos, laws[key][0], laws[key][1])]
    recs = [coded.records[i // width] for i in range(n)]
    rows = [(i, kl_divergence(row_dists[i], prior), rec.n_candidates,
             rec.index_bits, tv[i], rec.fallback) for i, rec in enumerate(recs)]
    return ((["position", "kl_bits", "K", "index_bits", "tv_exact",
              "flagged_fallback"], rows),
            oracle_rows if with_oracle else None)


def _cmd_coordinate(cfg, with_oracle):
    instance, _, q_target = _get_sender(cfg)
    seed = _get_seed(cfg)
    n = _setting(cfg, "n", 4)
    trials = _setting(cfg, "trials", 10**4)
    slack = _setting(cfg, "slack", 4.0)
    cr = CommonRandomness(seed)
    report = simulate_strong(instance, q_target, n, cr, trials=trials, slack=slack)
    return (["n", "d_avg", "d_max", "bits_per_symbol", "tv_max_position",
             "trials"],
            [(report.n, report.d_avg_est, report.d_max_est,
              report.bits_per_symbol, report.tv_max_position,
              report.trials)]), None


def _cmd_example1(cfg, with_oracle):
    n_list = cfg.get("n_list", [2, 3, 4, 5, 8, 16, 32, 50])
    if not isinstance(n_list, list) or \
            not all(isinstance(n, int) and n >= 2 for n in n_list):
        raise ConfigError("/n_list", "need integers >= 2")
    rows, oracle_rows = [], []
    world = two_hypothesis_world()
    for n in n_list:
        res = run_example_1(n)
        rows.append((n, res.d_avg, res.d_max, res.bits_per_symbol,
                     res.tv_max_position, 0))
        if with_oracle:
            o_avg, o_max = sequence_distortion_oracle(res.alice_rows,
                                                      res.bob_rows, world)
            diff = max(abs(o_avg - res.d_avg), abs(o_max - res.d_max))
            oracle_rows.append(("sequence_distortion", f"n={n}", res.d_avg,
                                o_avg, diff, diff <= 1e-12))
    return ((["n", "d_avg", "d_max", "bits_per_symbol", "tv_max_position",
              "trials"], rows),
            oracle_rows if with_oracle else None)


def _cmd_compare_schemes(cfg, with_oracle):
    instance, rule, q_alice = _get_sender(cfg)
    if rule.kind == "map_table":
        raise ConfigError("/rule", "compare-schemes needs a refittable rule")
    budget = _setting(cfg, "rate_budget", None)
    compressors = cfg.get("compressors")
    if compressors is None:
        if instance.n_datasets > 6:
            raise ConfigError(
                "/compressors",
                "exhaustive enumeration limited to 6 datasets; list compressors"
            )
        compressors = list(enumerate_compressors(instance.n_datasets))
    if not isinstance(compressors, list):
        raise ConfigError("/compressors", "need a list of maps")
    if not all(isinstance(rho, (list, tuple)) and len(rho) == instance.n_datasets
               for rho in compressors):
        raise ConfigError("/compressors", "each map must label every dataset")
    for i, rho in enumerate(compressors):
        # a cell label is a dict key of the relabelling, so it must hash, and
        # true would share a key with 1
        if any(isinstance(x, (list, dict, bool)) for x in rho):
            raise ConfigError(f"/compressors/{i}",
                              "labels must be numbers or strings")
    rows = [("|".join(str(c) for c in rep.compressor),
             rep.mi_model, rep.mi_model2, rep.mi_residual, rep.delta_r,
             rep.bound1, rep.bound2, rep.measured_distortion,
             rep.rate_budget, rep.scheme1_rate, rep.boundary_gap,
             rep.distortion_scheme2, rep.infeasible)
            for rep in compare_schemes(instance, q_alice, rule, compressors,
                                       rate_budget=budget)]
    return (["compressor", "mi_model", "mi_model2", "mi_residual", "delta_r",
             "bound1", "bound2", "measured_distortion", "rate_budget",
             "scheme1_rate", "boundary_gap", "distortion_scheme2",
             "infeasible"], rows), None


def _cmd_verify_bound(cfg, with_oracle):
    seed = _get_seed(cfg)
    count = _setting(cfg, "instances", 20)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    world = two_hypothesis_world()
    cases = [("alternating-world", world,
              Posterior.from_rows(np.full((world.n_datasets, 2), 0.5), world))]
    for i in range(count):
        inst = random_instance(rng, n_concepts=int(rng.integers(2, 4)),
                               n_symbols=int(rng.integers(2, 4)),
                               n_hypotheses=int(rng.integers(2, 4)), m=1)
        beta = float(np.exp(rng.uniform(np.log(0.5), np.log(4.0))))
        cases.append((f"random-{i}", inst, fit(LearningRule.gibbs(beta), inst)))
    grids = {}  # the default grid scales with l_max
    for _, inst, _ in cases:
        l_max = inst.hypotheses.l_max
        if l_max not in grids:
            grids[l_max] = _epsilon_grid(cfg, l_max)
    bank = [(inst, q_alice, _get_prior(cfg, q_alice, inst.n_hypotheses),
             grids[inst.hypotheses.l_max])
            for _, inst, q_alice in cases]
    try:
        checked = verify_bound(bank)
    except BoundViolationError as e:
        raise BoundViolationError(f"bound violated on {cases[e.case][0]}: {e}",
                                  e.instance_json) from e
    rows = [(name, c.epsilon, c.rate, c.r_star, c.delta_r, c.bound, c.measured,
             c.margin, c.ok)
            for (name, *_), checks in zip(cases, checked) for c in checks]
    return (["instance_id", "epsilon", "rate_bits", "r_star_bits",
             "delta_r_bits", "bound", "measured", "margin", "ok"], rows), None


def _cmd_audit(cfg, with_oracle):
    seed = _get_seed(cfg)
    count = _setting(cfg, "instances", 8)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    rows = []

    sizes = [(2, 2), (3, 2), (2, 3)]
    for i in range(count):
        n_sym, n_h = sizes[i % len(sizes)]
        # hunt briefly for a sender that beats every constant reply, so the
        # checked point sits on the positive-rate part of the curve
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

    for i in range(count):
        inst = random_instance(rng, n_concepts=2, n_symbols=2,
                               n_hypotheses=2, m=1)
        q = fit(LearningRule.gibbs(1.0), inst)
        n = int(rng.integers(2, 7))
        s_seq = inverse_cdf_sample(inst.p_s, rng.random(n))
        hyp = rng.integers(0, inst.n_hypotheses, size=n)
        sched = np.zeros((n, inst.n_hypotheses))
        sched[np.arange(n), hyp] = 1.0
        alice = q.rows[s_seq]
        o_avg, o_max = sequence_distortion_oracle(alice, sched, inst)
        a_avg = d_avg_seq(alice, sched, inst)
        a_max = d_max_seq(alice, sched, inst)
        diff = max(abs(o_avg - a_avg), abs(o_max - a_max))
        rows.append(("sequence_distortion", f"case={i}", a_avg, o_avg, diff,
                     diff <= 1e-12))
    return None, rows


# ---------------------------------------------------------------------------

# every flag past --config and --out, declared once
_FLAGS = {
    "--seed": {"type": int},
    "--with-oracle": {"action": "store_true",
                      "help": "cross-check results against brute-force oracles"},
    "--instance": {"help": "problem instance JSON file"},
    "--epsilons": {"help": "comma-separated budgets"},
    "--prior": {"help": "marginal, uniform, or a JSON file"},
    "--n": {"type": int},
    "--n-list": {"help": "comma-separated lengths"},
    "--slack": {"type": float},
    "--mode": {"choices": ["per_symbol", "block"]},
    "--trials": {"type": int},
    "--rate-budget": {"type": float},
    "--instances": {"type": int},
}

# subcommand: (help, handler, the flags it takes)
COMMANDS = {
    "rd-curve": ("rate-distortion curve over a budget grid", _cmd_rd_curve,
                 "--with-oracle --instance --epsilons --prior"),
    "code": ("one-shot code a sampled dataset sequence", _cmd_code,
             "--seed --with-oracle --instance --n --slack --mode --prior"),
    "coordinate": ("strong per-position tracking estimate", _cmd_coordinate,
                   "--seed --instance --n --trials --slack"),
    "example1": ("the alternating-schedule walkthrough", _cmd_example1,
                 "--with-oracle --n-list"),
    "compare-schemes": ("model-first vs data-first accounting",
                        _cmd_compare_schemes, "--instance --rate-budget"),
    "verify-bound": ("distortion-rate ceiling sweep", _cmd_verify_bound,
                     "--seed --instances --epsilons --prior"),
    "audit": ("run every oracle bank on random cases", _cmd_audit,
              "--seed --instances"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beliefcomm",
        description="Seeded experiments on communicating learned beliefs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, flags) in COMMANDS.items():
        # no prefix matching, or example1 --n would be read as --n-list
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.add_argument("--config", help="JSON experiment config")
        p.add_argument("--out", required=True, help="output directory")
        for flag in flags.split():
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _, run, _ = COMMANDS[args.command]
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        cfg = _load_config(args)
        table, checks = run(cfg, getattr(args, "with_oracle", False))
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return VALIDATION_EXIT
    except BoundViolationError as e:
        repro = outdir / "violation.json"
        with open(repro, "w") as f:
            json.dump(e.instance_json, f, indent=2, sort_keys=True)
        print(f"{e}; instance in {repro}", file=sys.stderr)
        return VIOLATION_EXIT
    except (InvariantViolationError, ConvergenceError) as e:
        print(f"check failed: {e}", file=sys.stderr)
        return VIOLATION_EXIT
    except BeliefCommError as e:
        print(f"validation error: {e}", file=sys.stderr)
        return VALIDATION_EXIT
    if table is not None:
        _write_csv(outdir / f"{args.command}.csv", *table)
    _write_manifest(outdir, args.command, cfg)
    if checks is None:
        return 0
    path = outdir / ("audit.csv" if args.command == "audit" else
                     "oracle_checks.csv")
    _write_csv(path, ["check", "case", "value_solver", "value_oracle",
                      "abs_diff", "ok"], checks)
    if all(row[-1] for row in checks):
        return 0
    print(f"oracle disagreement; see {path.name}", file=sys.stderr)
    return VIOLATION_EXIT


if __name__ == "__main__":
    sys.exit(main())
