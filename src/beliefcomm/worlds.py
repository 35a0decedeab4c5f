"""Ready-made problem instances: the two-hypothesis demo world and random draws."""

from __future__ import annotations

import numpy as np

from .spaces import (
    ConceptSpace,
    Distribution,
    HypothesisSpace,
    ProblemInstance,
)


def two_hypothesis_world() -> ProblemInstance:
    """The minimal world behind the alternating-schedule walkthrough.

    One concept, two equiprobable sample symbols, and two hypotheses whose
    losses are constant in the data: h0 always scores 0, h1 always scores 1.
    A learner posting the uniform belief has expected loss 1/2 regardless of
    the dataset, so any reproduction row shifts semantic distortion by how
    much mass it moves onto h1. Datasets are single samples (m = 1).
    """
    concepts = ConceptSpace(
        concept_names=("c0",),
        sample_names=("z0", "z1"),
        prior=Distribution([1.0]),
        data_law=np.array([[0.5, 0.5]]),
    )
    hyps = HypothesisSpace(
        hypothesis_names=("h0", "h1"),
        loss=np.array([[[0.0, 0.0], [1.0, 1.0]]]),
        l_max=1.0,
    )
    return ProblemInstance(concepts, hyps, 1)


def random_instance(
    rng: np.random.Generator,
    n_concepts: int = 2,
    n_symbols: int = 2,
    n_hypotheses: int = 2,
    m: int = 1,
    concentration: float = 1.0,
) -> ProblemInstance:
    """Dirichlet priors and data laws, uniform losses on [0, 1]."""
    prior = rng.dirichlet(np.full(n_concepts, concentration))
    law = np.stack(
        [rng.dirichlet(np.full(n_symbols, concentration)) for _ in range(n_concepts)]
    )
    loss = rng.uniform(0.0, 1.0, size=(n_concepts, n_hypotheses, n_symbols))
    concepts = ConceptSpace(
        concept_names=tuple(f"c{i}" for i in range(n_concepts)),
        sample_names=tuple(f"z{i}" for i in range(n_symbols)),
        prior=Distribution(prior),
        data_law=law,
    )
    hyps = HypothesisSpace(
        hypothesis_names=tuple(f"h{i}" for i in range(n_hypotheses)),
        loss=loss,
    )
    return ProblemInstance(concepts, hyps, m)

