"""The benchmark's own output checks, on rounds of its seeded plans.

Builds the inputs with bench/plan.py, runs the ops of a round through the
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


def _run_round(tmp_path, workload, rnd, cmds=None):
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    built = plan.make_inputs(workload, 1, str(inputs))
    ops = [op for op in built["rounds"][rnd] if cmds is None or op["cmd"] in cmds]
    assert ops
    for k, op in enumerate(ops):
        argv = [str(inputs / a) if a in built["hashes"] else a
                for a in op["argv"]]
        out = tmp_path / f"op{k}"
        rc = main(argv + ["--out", str(out)])
        res = checks.check_op(op, rc, str(out))
        assert res.failed == 0, (op["argv"], res.messages)


@pytest.mark.parametrize("workload", ["coding", "verify"])
def test_round_0_passes_the_benchmark_checks(tmp_path, workload):
    _run_round(tmp_path, workload, 0)


@pytest.mark.parametrize("rnd", [5, 10, 13])
def test_verify_solver_compare_schemes_pass_the_benchmark_checks(tmp_path,
                                                                 rnd):
    """Regression: independent factors once gave mutual information of
    -3.8e-16 (rounds 5 and 10), a negative residual the check rejects;
    round 13's flow of +1.56e-16 bits is below any rate the Blahut-Arimoto
    step reaches."""
    _run_round(tmp_path, "verify-solver", rnd, cmds=("compare-schemes",))
