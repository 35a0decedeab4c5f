"""beliefcomm benchmark: seeded CLI workloads, timed end to end or traced.

Run from the root of a checkout:

    python3 bench/run.py --workload coding --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40

A workload is a seeded plan of rounds; a round is one pass of the workload's
subcommand list on fresh worlds (plan.py). One closed-loop client in this
process runs whole rounds through beliefcomm.cli.main until --seconds have
passed. An op is one CLI invocation and starts only after the previous one
has finished. Every op writes to a fresh directory, and its CSV output is
checked (checks.py).

Set-up runs SETUP_REPS times, each in a fresh interpreter, and setup_s is
the median. --trace 0 times the window untraced and returns the end-to-end
metrics: setup_s, wall_s (busy seconds per round), units_per_s (units per
busy second) and peak_rss_mb. --trace 1 runs the first half of the window
untraced, replays the same rounds under the span tracer (spans.py), and
returns the per-layer metrics, the latency and failure figures of the
untraced half, and trace.overhead_frac. The hash of every input file is
written to .bench_out/<workload>-seed<n>.inputs.json and the spans to
.bench_out/<workload>-seed<n>.trace.jsonl.gz. --workload all runs every
workload in its own process, one after another.

The last line of stdout is one JSON object. Its attempted and failed count
CLI invocations; fail_frac counts units, including rd points whose duality
gap misses rate_tol. The exit code is 0 only when every output check passed.
"""

import os

# one BLAS/OpenMP thread: the matrices are too small to gain from threads,
# and idle worker threads only add scheduling noise to the timings
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402

T_PROCESS = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
OUT = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("rd-bank", "rd-large-m", "verify-solver", "coding", "verify")
SETUP_REPS = 5
# per set-up child: five slow set-ups still leave the window its time
SETUP_TIMEOUT_S = 25
# an op still running this long after the process started is aborted and
# counted as failed, so a run always ends inside its time limit
OP_DEADLINE_S = 150.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "units_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# reported from the untraced half of a --trace 1 run, and printed (not
# returned) by a --trace 0 run: they depend too much on the seeded worlds
# to carry a bound
CMD_METRICS = tuple(f"{c.replace('-', '_')}_s" for c in
                    ("rd-curve", "code", "coordinate", "compare-schemes",
                     "verify-bound", "audit"))
WINDOW_METRICS = CMD_METRICS + ("op_p50_ms", "op_max_s", "fail_frac",
                                "gap_miss_rows")


class OpTimeout(Exception):
    pass


@dataclass
class OpRecord:
    seq: int  # position of the op's round among the rounds its loop ran
    round: int
    cmd: str
    seconds: float
    units: int
    failed_units: int
    gap_miss: int
    ok: bool


def _alarm(signum, frame):
    raise OpTimeout(f"op still running {OP_DEADLINE_S:.0f} s after start")


def run_setup(workload, seed, work):
    """Generate the inputs SETUP_REPS times.

    Returns the median set-up time, the directory of the last copy and the
    set of input digests, which holds one digest when set-up is
    deterministic.
    """
    times, digests, out = [], set(), None
    for k in range(SETUP_REPS):
        out = os.path.join(work, f"inputs-{k}")
        os.makedirs(out)
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "plan.py"), "--workload",
             workload, "--seed", str(seed), "--out", out],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"set-up failed with exit code {proc.returncode}")
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append(rec["setup_s"])
        digests.add(rec["digest"])
    if len(digests) != 1:
        print(f"set-up is not deterministic: {sorted(digests)}",
              file=sys.stderr)
    return statistics.median(times), out, digests


def run_ops(cli, plan, inputs, workdir, seconds=None, rounds=None,
            tracer=None):
    """Closed loop over whole rounds: until `seconds`, or exactly `rounds`."""
    import checks

    files = plan["hashes"]
    records = []
    start = time.perf_counter()
    order = rounds if rounds is not None else itertools.cycle(
        range(len(plan["rounds"])))
    for seq, r in enumerate(order):
        if rounds is None and records and \
                time.perf_counter() - start >= seconds:
            break
        for k, op in enumerate(plan["rounds"][r]):
            out = tempfile.mkdtemp(prefix="op-", dir=workdir)
            argv = [os.path.join(inputs, a) if a in files else a
                    for a in op["argv"]] + ["--out", out]
            left = OP_DEADLINE_S - (time.perf_counter() - T_PROCESS)
            signal.setitimer(signal.ITIMER_REAL, max(left, 1e-3))
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    rc = cli.main(argv)
                else:
                    tracer.op = f"{r}.{k}"
                    with tracer.span("cli." + op["cmd"].replace("-", "_")):
                        rc = cli.main(argv)
            except Exception:
                # any escape from the CLI is a failed op, not a crashed run
                traceback.print_exc()
                rc = -1
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            dt = time.perf_counter() - t0
            res = checks.check_op(op, rc, out)
            shutil.rmtree(out)
            for msg in res.messages:
                print(f"check failed: op {r}.{k} {op['cmd']}: {msg}",
                      file=sys.stderr)
            records.append(OpRecord(seq, r, op["cmd"], dt, res.units,
                                    res.failed, res.gap_miss,
                                    rc == 0 and res.failed == 0))
            if time.perf_counter() - T_PROCESS >= OP_DEADLINE_S:
                return records
    return records


def rounds_run(records):
    """(plan index, busy seconds) of each round a loop ran, in order."""
    out = {}
    for r in records:
        index, busy = out.get(r.seq, (r.round, 0.0))
        out[r.seq] = (index, busy + r.seconds)
    return list(out.values())


def end_to_end(records, setup_s):
    """Bounded metrics of a timed window.

    wall_s is the busy time of the window over the rounds it ran: the time
    one pass of the workload's subcommand list takes, on average.
    """
    busy = sum(r.seconds for r in records)
    return {
        "setup_s": setup_s,
        "wall_s": busy / len(rounds_run(records)),
        "units_per_s": sum(r.units for r in records) / busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def window_metrics(records):
    """Latency per subcommand (median), per op, and failed units."""
    times = [r.seconds for r in records]
    m = {}
    for name in CMD_METRICS:
        cmd = name[:-2].replace("_", "-")
        cmd_times = [r.seconds for r in records if r.cmd == cmd]
        m[name] = statistics.median(cmd_times) if cmd_times else 0.0
    m["op_p50_ms"] = 1e3 * statistics.median(times)
    m["op_max_s"] = max(times)
    # a unit fails when a check rejects it or its rd point misses rate_tol
    m["fail_frac"] = sum(r.failed_units + r.gap_miss for r in records) \
        / sum(r.units for r in records)
    m["gap_miss_rows"] = sum(r.gap_miss for r in records)
    return m


def describe(records, label):
    cmds = sorted({r.cmd for r in records})
    parts = [f"{c}={sum(1 for r in records if r.cmd == c)}" for c in cmds]
    units = sum(r.units for r in records)
    return (f"{label}: {len(records)} ops ({', '.join(parts)}), {units} units, "
            f"{sum(r.failed_units for r in records)} failed units, "
            f"{sum(r.gap_miss for r in records)} rd points above rate_tol")


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("share", "ratio"),
                         ("frac", "ratio"), ("us_per_iter", "us")):
        if name.endswith(suffix):
            return unit
    return "count"


def run_workload(args) -> int:
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        setup_s, inputs, digests = run_setup(args.workload, args.seed, workdir)
        sys.path.insert(0, SRC)
        sys.path.insert(0, HERE)
        import beliefcomm
        from beliefcomm import cli
        if not os.path.abspath(beliefcomm.__file__).startswith(SRC + os.sep):
            raise SystemExit(f"beliefcomm imported from {beliefcomm.__file__}, "
                             f"not from {SRC}")
        with open(os.path.join(inputs, "plan.json")) as f:
            plan = json.load(f)
        signal.signal(signal.SIGALRM, _alarm)
        os.makedirs(OUT, exist_ok=True)
        stem = os.path.relpath(
            os.path.join(OUT, f"{args.workload}-seed{args.seed}"))
        with open(stem + ".inputs.json", "w") as f:
            json.dump(plan["hashes"], f, indent=0, sort_keys=True)
        print(f"workload {args.workload} seed {args.seed}: "
              f"{len(plan['rounds'])} rounds in plan, setup {setup_s:.3f} s, "
              f"inputs digest {' '.join(sorted(digests))} over "
              f"{len(plan['hashes'])} files (sha256 each in {stem}"
              ".inputs.json)")
        if args.trace:
            import spans
            plain = run_ops(cli, plan, inputs, workdir,
                            seconds=args.seconds / 2.0)
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced = run_ops(cli, plan, inputs, workdir,
                                 rounds=[i for i, _ in rounds_run(plain)],
                                 tracer=tracer)
            finally:
                tracer.uninstall()
            path = stem + ".trace.jsonl.gz"
            tracer.write_jsonl(path)
            print(describe(plain, "untraced") + "; " + describe(traced, "traced")
                  + f"; {len(tracer.spans)} spans in {path}")
            base = sum(r.seconds for r in plain)
            metrics = spans.summarize(tracer.spans, len(rounds_run(traced)))
            metrics["trace.overhead_frac"] = (
                sum(r.seconds for r in traced) - base) / base
            metrics.update(window_metrics(plain))
            records = plain + traced
            shown = metrics
        else:
            records = run_ops(cli, plan, inputs, workdir,
                              seconds=args.seconds)
            print(describe(records, "timed"))
            print("round busy seconds: " + " ".join(
                f"{t:.3f}" for _, t in rounds_run(records)))
            metrics = end_to_end(records, setup_s)
            shown = dict(metrics, **window_metrics(records))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = len(digests) == 1 and all(r.ok for r in records)
    for name, value in shown.items():
        print(f"  {name} = {value:.6g} {unit_of(name)}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": sum(not r.ok for r in records),
        "metrics": {k: {"value": v, "unit": unit_of(k)}
                    for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    ok, attempted, failed, metrics = True, 0, 0, {}
    for w in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", w,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            res = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"workload {w}: no result (exit code {proc.returncode})",
                  file=sys.stderr)
            ok = False
            continue
        ok = ok and res["correct"] and proc.returncode == 0
        attempted += res["attempted"]
        failed += res["failed"]
        metrics.update({f"{w}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "beliefcomm", "__init__.py")):
        print(f"no beliefcomm sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
