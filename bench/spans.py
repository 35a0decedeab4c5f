"""In-memory span tracer for beliefcomm's public functions.

Tracer.install() wraps each function in TRACED at every binding of the same
object in a loaded beliefcomm.* module, so a call is traced whichever module
it was imported through, and a later refactor that moves an import is still
traced. Each call records a span (name, start, end, parent, op) plus counts
read off its return value or exception; nested calls form a tree through the
parent index. uninstall() restores every binding.

Self time of a span is its duration minus the durations of its children.
Calls run on one thread, so children never overlap each other.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import statistics
import sys
import time
from contextlib import contextmanager

# (module, function): the listed public function of each layer
TRACED = (
    ("spaces", "problem_instance_from_json"),
    ("learning", "fit"),
    ("learning", "effective_distortion_matrix"),
    ("learning", "d_sem"),
    ("rate_distortion", "solve_rd"),
    ("rate_distortion", "solve_rd_with_prior"),
    ("channel_coding", "code_sequence"),
    ("channel_coding", "encode_mrc"),
    ("channel_coding", "decode_mrc"),
    ("channel_coding", "induced_distribution_exact"),
    ("coordination", "simulate_strong"),
    ("schemes", "compare_schemes"),
    ("schemes", "verify_bound"),
    ("oracle", "rd_grid_oracle"),
    ("oracle", "mrc_enumeration_oracle"),
    ("oracle", "sequence_distortion_oracle"),
    ("worlds", "random_instance"),
)

LAYERS = ("cli", "spaces", "learning", "rate_distortion", "channel_coding",
          "coordination", "schemes", "oracle", "worlds")
CLI_COMMANDS = ("rd-curve", "code", "coordinate", "compare-schemes",
                "verify-bound", "audit")

NAME = 0
START = 1
END = 2
PARENT = 3
OP = 4
COUNTS = 5


def _solve_rd_counts(sig, default_tol):
    def counts(args, kwargs, pt):
        tol = sig.bind(*args, **kwargs).arguments.get("rate_tol", default_tol)
        return {"iters": pt.iterations, "gap": pt.duality_gap,
                "gap_miss": int(pt.duality_gap > tol)}
    return counts


def _code_sequence_counts(args, kwargs, coded):
    return {"symbols": len(coded.reconstruction),
            "candidates": sum(r.n_candidates for r in coded.records),
            "fallbacks": sum(bool(r.fallback) for r in coded.records)}


def _counters():
    """Count hooks keyed by span name, read from return values."""
    from beliefcomm import rate_distortion
    solve_rd = rate_distortion.solve_rd
    return {
        "spaces.problem_instance_from_json":
            lambda a, k, inst: {"n_datasets": inst.n_datasets},
        "rate_distortion.solve_rd": _solve_rd_counts(
            inspect.signature(solve_rd), rate_distortion.DEFAULT_RATE_TOL),
        "rate_distortion.solve_rd_with_prior":
            lambda a, k, pt: {"evals": pt.iterations},
        "channel_coding.code_sequence": _code_sequence_counts,
    }


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self._saved: list[tuple] = []

    def _open(self, name):
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op,
                           None])
        self.stack.append(sid)
        return sid

    def _close(self, sid):
        self.spans[sid][END] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name):
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def _wrap(self, fn, name, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as e:
                self.spans[sid][COUNTS] = {"error": type(e).__name__}
                raise
            finally:
                self._close(sid)
            if count is not None:
                self.spans[sid][COUNTS] = count(args, kwargs, result)
            return result
        return traced

    def install(self):
        """Wrap every beliefcomm.* binding of each TRACED function."""
        counters = _counters()
        wrappers = {}
        for mod, fname in TRACED:
            fn = getattr(sys.modules[f"beliefcomm.{mod}"], fname)
            name = f"{mod}.{fname}"
            wrappers[id(fn)] = (fn, self._wrap(fn, name, counters.get(name)))
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "beliefcomm"
                                      or modname.startswith("beliefcomm.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self):
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def write_jsonl(self, path):
        """All spans as gzip-compressed JSON lines, one per span."""
        with gzip.open(path, "wt") as f:
            for sid, s in enumerate(self.spans):
                rec = {"id": sid, "name": s[NAME], "start": s[START],
                       "end": s[END], "parent": s[PARENT], "op": s[OP]}
                rec.update(s[COUNTS] or {})
                f.write(json.dumps(rec) + "\n")


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def _has_ancestor(spans, sid, name) -> bool:
    parent = spans[sid][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


def summarize(spans, n_rounds: int = 1) -> dict[str, float]:
    """Per-layer metrics of one traced phase, keyed by metric name.

    Calls, self times and counts are per round, so they do not grow with
    the number of rounds a faster program fits into the window; medians,
    maxima, ratios and shares are over the whole phase.
    """
    own = self_times(spans)
    calls: dict[str, int] = {}
    selfs: dict[str, float] = {}
    durs: dict[str, list[float]] = {}
    counts: dict[str, float] = {}
    for s, t in zip(spans, own):
        name = s[NAME]
        calls[name] = calls.get(name, 0) + 1
        selfs[name] = selfs.get(name, 0.0) + t
        durs.setdefault(name, []).append(s[END] - s[START])
        for key, v in (s[COUNTS] or {}).items():
            if key == "error":
                key, v = f"errors.{v}", 1
            counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + v

    def p50_ms(name):
        return 1e3 * statistics.median(durs[name]) if name in durs else 0.0

    m: dict[str, float] = {}
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd.replace('-', '_')}.self_s"] = selfs.get(
            f"cli.{cmd.replace('-', '_')}", 0.0) / n_rounds
    total = sum(own)
    for layer in LAYERS:
        busy = sum(v for k, v in selfs.items() if k.split(".")[0] == layer)
        m[f"{layer}.self_share"] = busy / total if total > 0 else 0.0
    for mod, fname in TRACED:
        name = f"{mod}.{fname}"
        m[f"{name}.calls"] = calls.get(name, 0) / n_rounds
        m[f"{name}.self_s"] = selfs.get(name, 0.0) / n_rounds

    sr = "rate_distortion.solve_rd"
    iters = counts.get(f"{sr}.iters", 0)
    m[f"{sr}.p50_ms"] = p50_ms(sr)
    m[f"{sr}.max_s"] = max(durs.get(sr, [0.0]))
    m[f"{sr}.iters"] = iters / n_rounds
    m[f"{sr}.iters_max"] = max(
        [(s[COUNTS] or {}).get("iters", 0) for s in spans if s[NAME] == sr],
        default=0)
    m[f"{sr}.us_per_iter"] = 1e6 * selfs.get(sr, 0.0) / iters if iters else 0.0
    m[f"{sr}.gap_miss"] = counts.get(f"{sr}.gap_miss", 0) / n_rounds
    m["rate_distortion.solve_rd_with_prior.evals"] = counts.get(
        "rate_distortion.solve_rd_with_prior.evals", 0) / n_rounds
    m["spaces.n_datasets"] = counts.get(
        "spaces.problem_instance_from_json.n_datasets", 0) / n_rounds

    cs = "channel_coding.code_sequence"
    symbols = counts.get(f"{cs}.symbols", 0)
    m["channel_coding.symbols"] = symbols / n_rounds
    m["channel_coding.candidates_per_symbol"] = (
        counts.get(f"{cs}.candidates", 0) / symbols if symbols else 0.0)
    m["channel_coding.fallbacks"] = counts.get(f"{cs}.fallbacks", 0) / n_rounds
    m["channel_coding.induced_distribution_exact.refused"] = counts.get(
        "channel_coding.induced_distribution_exact.errors.EnumerationCapError",
        0) / n_rounds

    reports = calls.get("schemes.compare_schemes", 0)
    nested = sum(1 for sid, s in enumerate(spans) if s[NAME] == sr
                 and _has_ancestor(spans, sid, "schemes.compare_schemes"))
    m["schemes.solves_per_report"] = nested / reports if reports else 0.0
    m["oracle.rd_grid_oracle.p50_ms"] = p50_ms("oracle.rd_grid_oracle")
    return m
