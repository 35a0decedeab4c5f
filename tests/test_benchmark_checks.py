"""The benchmark's own output checks, on round 0 of its seeded plans.

Builds the inputs with bench/plan.py, runs every op of round 0 through the
CLI in process and asserts that bench/checks.py rejects no unit.
"""

import os
import sys

import pytest

from beliefcomm.cli import main

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench"))

import checks  # noqa: E402
import plan  # noqa: E402


@pytest.mark.parametrize("workload", ["coding", "verify"])
def test_round_0_passes_the_benchmark_checks(tmp_path, workload):
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    built = plan.make_inputs(workload, 1, str(inputs))
    ops = built["rounds"][0]
    assert ops
    for k, op in enumerate(ops):
        argv = [str(inputs / a) if a in built["hashes"] else a
                for a in op["argv"]]
        out = tmp_path / f"op{k}"
        rc = main(argv + ["--out", str(out)])
        res = checks.check_op(op, rc, str(out))
        assert res.failed == 0, (op["argv"], res.messages)
