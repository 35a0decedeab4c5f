"""Ready-made problem instances: the two-hypothesis demo world and random draws."""

from __future__ import annotations

import numpy as np

from .spaces import (
    ConceptSpace,
    Distribution,
    HypothesisSpace,
    ProblemInstance,
    _bank,
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


def _draw(rng: np.random.Generator, n_concepts: int, n_symbols: int,
          n_hypotheses: int, concentration: float = 1.0):
    """One world's draws: a Dirichlet prior, one Dirichlet data-law row per
    concept, uniform losses on [0, 1]. Returns (prior, law, loss)."""
    prior = rng.dirichlet(np.full(n_concepts, concentration))
    # one call draws the rows one after another, as separate calls would
    law = rng.dirichlet(np.full(n_symbols, concentration), size=n_concepts)
    loss = rng.uniform(0.0, 1.0, size=(n_concepts, n_hypotheses, n_symbols))
    return prior, law, loss


def random_instance(
    rng: np.random.Generator,
    n_concepts: int = 2,
    n_symbols: int = 2,
    n_hypotheses: int = 2,
    m: int = 1,
    concentration: float = 1.0,
) -> ProblemInstance:
    """Dirichlet priors and data laws, uniform losses on [0, 1]; a bank of
    one world."""
    draw = _draw(rng, n_concepts, n_symbols, n_hypotheses, concentration)
    return _bank(*(x[None] for x in draw), m)[0]
