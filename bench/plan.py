"""Seeded inputs for the benchmark: world JSON files plus the op plan.

Run as a script it performs one timed set-up in a fresh interpreter:

    python3 bench/plan.py --workload coding --seed 3 --out DIR

It imports beliefcomm from ./src, generates every world of the workload from
the seed, writes the instance and config JSON under DIR and DIR/plan.json,
and prints one JSON line with the set-up time and a digest of the inputs.
The program under test only ever sees these files and the CLI flags.

An op is one CLI invocation: {"cmd", "argv", "units", "check"}. argv names
input files relative to DIR and has no --out; the runner adds a fresh
output directory per invocation. A round is one pass of the workload's
subcommand list on fresh worlds. World seeds are contiguous: round r of
workload seed n uses world seed 1000 * n + r.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

# rd-bank budgets, as fractions of each world's span (the distortion of the
# best constant reply)
RD_BANK_FRACTIONS = (0.01, 0.3, 0.7, 0.99)
# rd-large-m shapes (|Z|, m, |H|): 256, 1024 and 4096 datasets per round
LARGE_M_SHAPES = (((2, 8, 8), (2, 10, 6), (2, 12, 4)),
                  ((4, 4, 8), (4, 5, 6), (4, 6, 4)))
ACCEPT5_TRIALS = 10**4
DEFAULT_GRID_POINTS = 9  # the CLI's budget grid when --epsilons is absent


def philox_rng(seed):
    import numpy as np
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def sharp_sender(seed, n_symbols=2, n_hypotheses=2, min_span=0.02,
                 attempts=80, m=1):
    """Instance, erm sender and span: the first draw with span > min_span.

    At m=1 this is the rejection sampling of the test suite's sharp_sender
    helper, draw for draw: random_instance with three concepts and
    concentration 0.2, then an erm fit.
    """
    from beliefcomm import (LearningRule, effective_distortion_matrix, fit,
                            random_instance)
    rng = philox_rng(seed)
    for _ in range(attempts):
        inst = random_instance(rng, n_concepts=3, n_symbols=n_symbols,
                               n_hypotheses=n_hypotheses, m=m,
                               concentration=0.2)
        q = fit(LearningRule.erm(), inst)
        dmat, base = effective_distortion_matrix(inst, q)
        span = float((inst.p_s @ dmat).min()) - base
        if span > min_span:
            return inst, q, span
    raise RuntimeError(f"no positive-span draw for seed {seed}")


class _Writer:
    """Writes JSON inputs under one directory and hashes each file."""

    def __init__(self, out: str):
        self.out = out
        self.hashes: dict[str, str] = {}

    def write(self, name: str, obj) -> str:
        data = json.dumps(obj, sort_keys=True).encode()
        with open(os.path.join(self.out, name), "wb") as f:
            f.write(data)
        self.hashes[name] = hashlib.sha256(data).hexdigest()
        return name

    def instance(self, name: str, inst) -> str:
        from beliefcomm import problem_instance_to_json
        return self.write(name, problem_instance_to_json(inst))


def _op(cmd, units, *argv, check=None):
    return {"cmd": cmd, "units": units, "argv": [cmd, *argv],
            "check": check or {}}


def _rd_bank(seed, w: _Writer, n_rounds):
    erm = w.write("erm.json", {"rule": {"rule": "erm"}})
    rounds = []
    for r in range(n_rounds):
        ws = 1000 * seed + r
        ops = []
        for n_h in (2, 3, 4):
            inst, _, span = sharp_sender(ws, n_symbols=2, n_hypotheses=n_h)
            path = w.instance(f"bank-{ws}-h{n_h}.json", inst)
            eps = ",".join(repr(f * span) for f in RD_BANK_FRACTIONS)
            ops.append(_op("rd-curve", len(RD_BANK_FRACTIONS), "--instance",
                           path, "--config", erm, "--epsilons", eps))
        rounds.append(ops)
    return rounds


def _rd_large_m(seed, w: _Writer, n_rounds):
    erm = w.write("erm.json", {"rule": {"rule": "erm"}})
    rounds = []
    for r in range(n_rounds):
        ws = 1000 * seed + r
        ops = []
        for n_z, m, n_h in LARGE_M_SHAPES[r % 2]:
            inst, _, _ = sharp_sender(ws, n_symbols=n_z, n_hypotheses=n_h, m=m)
            path = w.instance(f"large-{ws}-z{n_z}m{m}h{n_h}.json", inst)
            ops.append(_op("rd-curve", DEFAULT_GRID_POINTS, "--instance", path,
                           "--config", erm))
        rounds.append(ops)
    return rounds


def _verify_solver(seed, w: _Writer, n_rounds):
    erm = w.write("erm.json", {"rule": {"rule": "erm"}})
    rounds = []
    for r in range(n_rounds):
        ws = 1000 * seed + r
        inst, _, _ = sharp_sender(ws, n_symbols=4, n_hypotheses=2)
        path = w.instance(f"schemes-{ws}.json", inst)
        rounds.append([
            # four datasets: all 15 set partitions are compared
            _op("compare-schemes", 15, "--instance", path, "--config", erm),
            # three oracle banks on 8 cases each
            _op("audit", 3 * 8, "--instances", "8", "--seed", str(ws)),
        ])
    return rounds


def _coding(seed, w: _Writer, n_rounds):
    from beliefcomm import random_instance, two_hypothesis_world
    gibbs = w.write("gibbs.json", {"rule": {"rule": "gibbs", "beta": 2.0}})
    rounds = []
    for r in range(n_rounds):
        ws = 1000 * seed + r
        rng = philox_rng(ws)
        # |H|=3 at slack 4: K >= 16 candidates, over the enumeration cap, so
        # the CLI estimates TV by Monte Carlo. |H|=2 at slack 2: K <= 19 for
        # any row within 2.25 bits of the prior, so the induced law is exact.
        h3 = w.instance(f"code-{ws}-h3.json", random_instance(
            rng, n_concepts=3, n_symbols=3, n_hypotheses=3, m=1))
        h2 = w.instance(f"code-{ws}-h2.json", random_instance(
            rng, n_concepts=3, n_symbols=3, n_hypotheses=2, m=1))
        s = str(ws)
        rounds.append([
            _op("code", 8, "--instance", h3, "--config", gibbs, "--n", "8",
                "--seed", s, check={"slack": 4.0}),
            # --with-oracle: the tuple-recursion oracle checks the exact law
            # wherever |H|^K <= 4096
            _op("code", 16, "--instance", h2, "--config", gibbs, "--n", "16",
                "--slack", "2", "--with-oracle", "--seed", s,
                check={"slack": 2.0}),
            _op("code", 4, "--instance", h2, "--config", gibbs, "--n", "4",
                "--mode", "block", "--slack", "2", "--seed", s,
                check={"slack": 2.0, "block": True}),
            _op("coordinate", 4 * 2000, "--instance", h2, "--config", gibbs,
                "--n", "4", "--trials", "2000", "--seed", s),
        ])
    # ACCEPT-5 once per run: per-position tracking at essentially zero rate
    demo = w.instance("two-hypothesis.json", two_hypothesis_world())
    flat = w.write("flat.json", {"rule": {"rule": "map_table",
                                          "rows": [[0.5, 0.5], [0.5, 0.5]]}})
    rounds[0].append(_op(
        "coordinate", 4 * ACCEPT5_TRIALS, "--instance", demo, "--config", flat,
        "--n", "4", "--trials", str(ACCEPT5_TRIALS), "--slack", "0", "--seed",
        str(seed), check={"d_max_below": 0.02, "bits_below": 0.05}))
    return rounds


def _verify(seed, w: _Writer, n_rounds):
    # the alternating world plus 200 random ones, 9 budgets each
    return [[_op("verify-bound", 201 * DEFAULT_GRID_POINTS, "--instances",
                 "200", "--seed", str(1000 * seed + r))]
            for r in range(n_rounds)]


# plan function and round count; a run that gets through every round of its
# plan starts again from round 0, so the counts only need to cover a typical
# run
WORKLOADS = {
    "rd-bank": (_rd_bank, 48),
    "rd-large-m": (_rd_large_m, 8),
    "verify-solver": (_verify_solver, 16),
    "coding": (_coding, 48),
    "verify": (_verify, 96),
}


def make_inputs(workload: str, seed: int, out: str) -> dict:
    """Generate a workload's inputs under out and return the plan."""
    w = _Writer(out)
    build, n_rounds = WORKLOADS[workload]
    rounds = build(seed, w, n_rounds)
    plan = {"workload": workload, "seed": seed, "rounds": rounds,
            "hashes": w.hashes}
    with open(os.path.join(out, "plan.json"), "w") as f:
        json.dump(plan, f, sort_keys=True)
    return plan


def inputs_digest(hashes: dict) -> str:
    """One hash over every instance and config file of a plan."""
    h = hashlib.sha256()
    for name in sorted(hashes):
        h.update(f"{name}={hashes[name]}\n".encode())
    return h.hexdigest()


def main(argv=None) -> int:
    t0 = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import beliefcomm  # noqa: F401  (the import is part of set-up)
    plan = make_inputs(args.workload, args.seed, args.out)
    print(json.dumps({"setup_s": time.perf_counter() - t0,
                      "files": len(plan["hashes"]),
                      "digest": inputs_digest(plan["hashes"])}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
