"""Alphabets, distributions, and the induced dataset space."""

import json

import numpy as np
import pytest

from beliefcomm import (
    Distribution,
    entropy_bits,
    kl_divergence,
    mutual_information,
    total_variation,
)
from beliefcomm.errors import (
    AlphabetMismatchError,
    ConfigError,
    EnumerationCapError,
    NormalizationError,
    SupportViolationError,
)
from beliefcomm.spaces import (
    ConceptSpace,
    DatasetSpace,
    enumerate_datasets,
    problem_instance_from_json,
    problem_instance_to_json,
)
from beliefcomm.worlds import random_instance, two_hypothesis_world


def test_distribution_accepts_small_drift():
    d = Distribution([0.5, 0.5 + 3e-10])
    assert abs(float(d.probs.sum()) - 1.0) < 1e-12


def test_distribution_rejects_large_drift():
    with pytest.raises(NormalizationError):
        Distribution([0.5, 0.6])


def test_distribution_rejects_negative_mass():
    with pytest.raises(NormalizationError):
        Distribution([1.2, -0.2])


def test_distribution_is_read_only():
    d = Distribution([0.25, 0.75])
    with pytest.raises(ValueError):
        d.probs[0] = 1.0


def test_support_and_constructors():
    d = Distribution([0.2, 0.0, 0.8])
    assert list(d.support) == [0, 2]
    assert np.allclose(Distribution.uniform(4).probs, 0.25)
    assert list(Distribution.point_mass(1, 3).probs) == [0.0, 1.0, 0.0]


def test_total_variation_basics():
    assert total_variation([1.0, 0.0], [0.0, 1.0]) == 1.0
    assert total_variation([0.5, 0.5], [0.5, 0.5]) == 0.0
    with pytest.raises(AlphabetMismatchError):
        total_variation([1.0], [0.5, 0.5])


def test_kl_hand_value():
    # 0.75*log2(1.5) + 0.25*log2(0.5)
    got = kl_divergence([0.75, 0.25], [0.5, 0.5])
    assert abs(got - 0.18872187554086714) < 1e-14


def test_kl_support_violation_raises():
    with pytest.raises(SupportViolationError):
        kl_divergence([0.5, 0.5], [1.0, 0.0])


def test_entropy_edge_cases():
    assert entropy_bits([0.5, 0.5]) == 1.0
    assert entropy_bits([1.0, 0.0]) == 0.0


def test_mutual_information_product_is_zero():
    joint = np.outer([0.3, 0.7], [0.6, 0.4])
    assert abs(mutual_information(joint)) < 1e-15


def test_mutual_information_perfect_correlation():
    joint = np.diag([0.5, 0.5])
    assert abs(mutual_information(joint) - 1.0) < 1e-15


def test_enumerate_datasets_lexicographic():
    ds = enumerate_datasets(3, 2)
    assert len(ds) == 9
    assert ds[0] == (0, 0)
    assert ds[2] == (0, 2)
    assert ds[-1] == (2, 2)


def test_enumerate_datasets_cap():
    with pytest.raises(EnumerationCapError):
        enumerate_datasets(10, 8)


def test_dataset_space_product_law():
    cs = ConceptSpace(
        concept_names=("c0",),
        sample_names=("z0", "z1", "z2"),
        prior=Distribution([1.0]),
        data_law=np.array([[0.2, 0.3, 0.5]]),
    )
    space = DatasetSpace.build(cs, m=2)
    i = space.datasets.index((0, 2))
    assert abs(space.marginal.probs[i] - 0.10) < 1e-15
    assert abs(float(space.marginal.probs.sum()) - 1.0) < 1e-12


def test_bayes_consistency_on_random_instances():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(11)))
    for _ in range(5):
        inst = random_instance(rng, n_concepts=3, n_symbols=2, n_hypotheses=2, m=2)
        inst.dataset_space.check_bayes_consistency(inst.concepts)


def test_true_loss_table_shape_and_range():
    w = two_hypothesis_world()
    assert w.true_loss_table.shape == (1, 2)
    assert w.true_loss_table.min() >= 0.0
    assert w.true_loss_table.max() <= w.hypotheses.l_max


def test_instance_json_round_trip():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(4)))
    inst = random_instance(rng, n_concepts=2, n_symbols=3, n_hypotheses=2, m=1)
    blob = json.loads(json.dumps(problem_instance_to_json(inst)))
    back = problem_instance_from_json(blob)
    np.testing.assert_allclose(back.p_s, inst.p_s, atol=1e-15)
    np.testing.assert_allclose(back.true_loss_table, inst.true_loss_table, atol=1e-15)
    assert back.dataset_space.datasets == inst.dataset_space.datasets


def test_instance_json_pointer_errors():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(4)))
    inst = random_instance(rng, n_concepts=2, n_symbols=2, n_hypotheses=2, m=1)
    blob = problem_instance_to_json(inst)
    bad = json.loads(json.dumps(blob))
    del bad["m"]
    with pytest.raises(ConfigError) as err:
        problem_instance_from_json(bad)
    assert "/m" in str(err.value)
