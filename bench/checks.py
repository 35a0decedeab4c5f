"""Output checks for one CLI invocation, read back from its CSV files.

No check depends on a particular random draw: each one is an invariant that
holds for any seed and any generator version. check_op returns the number
of units the op produced, how many of them a check rejected, how many rd
points missed their duality-gap tolerance (a known solver defect that is
counted, not rejected), and one message per rejection.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field

from beliefcomm.rate_distortion import DEFAULT_RATE_TOL as RATE_TOL

CHAIN_RULE_TOL = 1e-8
FLOAT_SLACK = 1e-9

CSV_NAMES = {
    "rd-curve": "rd-curve.csv",
    "code": "code.csv",
    "coordinate": "coordinate.csv",
    "compare-schemes": "compare-schemes.csv",
    "verify-bound": "verify-bound.csv",
    "audit": "audit.csv",
}


@dataclass
class CheckResult:
    units: int = 0
    failed: int = 0
    gap_miss: int = 0
    messages: list[str] = field(default_factory=list)

    def reject(self, row: int, why: str, units: int = 1):
        self.failed += units
        self.messages.append(f"row {row}: {why}")


def read_rows(path: str) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _rd_curve(rows, spec, res):
    for i, r in enumerate(rows):
        rate, with_prior = float(r["rate_bits"]), float(r["rate_with_prior_bits"])
        if not rate <= with_prior + RATE_TOL:
            res.reject(i, f"rate {rate} above rate with prior {with_prior}")
        if float(r["duality_gap"]) > RATE_TOL:
            res.gap_miss += 1


def _code(rows, spec, res):
    slack = float(spec["slack"])
    n = len(rows)
    for i, r in enumerate(rows):
        k, bits = int(r["K"]), float(r["index_bits"])
        kl = float(r["kl_bits"])
        if abs(bits - math.log2(k)) > FLOAT_SLACK:
            res.reject(i, f"index_bits {bits} is not log2(K={k})")
            continue
        if spec.get("block"):
            # every row repeats the one block index: spread it over n symbols
            kl = sum(float(x["kl_bits"]) for x in rows) / n
            bits /= n
        bound = kl + math.log2(kl + 1.0) + 4.0 + slack
        if bits > bound + FLOAT_SLACK:
            res.reject(i, f"{bits} bits per symbol above bound {bound}")


def _coordinate(rows, spec, res):
    for i, r in enumerate(rows):
        d_max, bits = float(r["d_max"]), float(r["bits_per_symbol"])
        units = int(r["n"]) * int(r["trials"])
        if not bits >= 0.0:
            res.reject(i, f"negative bits per symbol {bits}", units)
        elif "d_max_below" in spec and not d_max < spec["d_max_below"]:
            res.reject(i, f"d_max {d_max} not below {spec['d_max_below']}",
                       units)
        elif "bits_below" in spec and not bits < spec["bits_below"]:
            res.reject(i, f"{bits} bits per symbol not below "
                          f"{spec['bits_below']}", units)


def _compare_schemes(rows, spec, res):
    for i, r in enumerate(rows):
        mi, mi2, resid = (float(r["mi_model"]), float(r["mi_model2"]),
                          float(r["mi_residual"]))
        if abs(mi - mi2 - resid) > CHAIN_RULE_TOL:
            res.reject(i, f"chain rule off: {mi} vs {mi2} + {resid}")
        elif resid < 0.0:
            res.reject(i, f"negative residual {resid}")
        elif float(r["scheme1_rate"]) > float(r["rate_budget"]):
            res.reject(i, f"scheme 1 rate {r['scheme1_rate']} above budget "
                          f"{r['rate_budget']}")


def _all_ok(rows, spec, res):
    for i, r in enumerate(rows):
        if r["ok"] != "1":
            res.reject(i, "ok is not 1")


ROW_CHECKS = {
    "rd-curve": _rd_curve,
    "code": _code,
    "coordinate": _coordinate,
    "compare-schemes": _compare_schemes,
    "verify-bound": _all_ok,
    "audit": _all_ok,
}


def units_of(cmd: str, rows: list[dict]) -> int:
    """Units a user reads off the CSV: rows, or n x trials for coordinate."""
    if cmd == "coordinate":
        return sum(int(r["n"]) * int(r["trials"]) for r in rows)
    return len(rows)


def check_op(op: dict, rc: int, outdir: str) -> CheckResult:
    """Check one finished invocation; every unit fails if the op failed."""
    res = CheckResult(units=op["units"])
    if rc != 0:
        res.failed = res.units
        res.messages.append(f"exit code {rc}")
        return res
    path = os.path.join(outdir, CSV_NAMES[op["cmd"]])
    try:
        rows = read_rows(path)
        got = units_of(op["cmd"], rows)
        if got != op["units"]:
            res.failed = res.units
            res.messages.append(f"{got} units in {path}, expected {op['units']}")
            return res
        ROW_CHECKS[op["cmd"]](rows, op["check"], res)
    except (OSError, KeyError, ValueError) as e:
        res.failed = res.units
        res.messages.append(f"unreadable output {path}: {e!r}")
    return res
