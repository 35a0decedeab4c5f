"""Shared helpers: seeded generators and senders worth compressing.

Hypothesis also draws, now and then, from the literals of every local
non-test module in sys.modules, so the examples a derandomized property
test draws depend on what was imported before it runs. Importing every
beliefcomm module and the bench modules that bench/test_bench.py imports
here gives each test the same pool, and the same examples, whether it runs
alone or in the full suite.
"""

import importlib
import os
import pkgutil
import sys

import numpy as np

import beliefcomm
from beliefcomm import (
    LearningRule,
    effective_distortion_matrix,
    fit,
    random_instance,
)

for _module in pkgutil.iter_modules(beliefcomm.__path__):
    importlib.import_module(f"beliefcomm.{_module.name}")
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench"))
import checks  # noqa: E402,F401
import plan  # noqa: E402,F401
import run  # noqa: E402,F401
import spans  # noqa: E402,F401


def philox_rng(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def sharp_sender(seed, n_symbols=2, n_hypotheses=2, min_span=0.02,
                 attempts=80):
    """Instance plus an erm sender whose belief actually tracks the data.

    Soft senders on diffuse worlds are dominated by a constant reply, so
    their rate is zero at any nonnegative budget. Peaked concept laws with an
    erm learner give a positive span (the distortion of the best constant
    reply), which is where the rate-distortion tradeoff is alive. Rejection
    sampling keeps the first draw that clears min_span.
    """
    rng = philox_rng(seed)
    for _ in range(attempts):
        inst = random_instance(rng, n_concepts=3, n_symbols=n_symbols,
                               n_hypotheses=n_hypotheses, m=1,
                               concentration=0.2)
        q = fit(LearningRule.erm(), inst)
        dmat, base = effective_distortion_matrix(inst, q)
        span = float((inst.p_s @ dmat).min()) - base
        if span > min_span:
            return inst, q, span
    raise RuntimeError("no positive-span draw; widen the search")
