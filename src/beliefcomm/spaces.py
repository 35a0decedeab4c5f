"""Finite alphabets, distributions, and the basic information quantities.

Everything downstream works over three coupled finite alphabets: concepts
(latent tasks), datasets (tuples of observed samples), and hypotheses
(models a learner can output). This module owns the immutable containers
for those alphabets plus total variation, KL divergence, and mutual
information, all in bits. It also holds the package's one log-sum-exp over
rows (_logsumexp_rows), which the closed-form solver, solve_dr's constant-row
test and the gibbs learner share, its one validator of probability rows
(_clean_rows), which every posterior and data law goes through, and its one
relative-entropy kernel (_rel_entr), which kl_divergence and the solvers'
rates go through. (The Blahut-Arimoto loop in rate_distortion keeps its own
max-shifted reductions: their bits differ.) The package needs numpy alone at
run time.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AlphabetMismatchError,
    ConfigError,
    EnumerationCapError,
    NormalizationError,
    SupportViolationError,
)

LOG2 = math.log(2.0)

# a vector this close to sum 1 is divided by its sum; one further off is refused
RENORM_LIMIT = 1e-9

DEFAULT_ENUMERATION_CAP = 10**6

_TINY = np.finfo(float).tiny


def _clean_probs(values, what: str) -> np.ndarray:
    p = np.asarray(values, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise NormalizationError(f"{what}: need a non-empty 1-d probability vector")
    # NaN and -inf fail p >= 0; an inf sum is an inf entry or an overflow
    total = float(p.sum()) if (p >= 0).all() else math.nan
    if math.isnan(total) or (total == math.inf and not np.isfinite(p).all()):
        raise NormalizationError(f"{what}: entries must be finite and >= 0")
    if abs(total - 1.0) >= RENORM_LIMIT:
        raise NormalizationError(
            f"{what}: sums to {total!r}, off by more than {RENORM_LIMIT}"
        )
    p = p / total
    p.setflags(write=False)
    return p


def _clean_rows(values, what: str) -> np.ndarray:
    """A matrix of probability rows, each checked as _clean_probs checks it.

    The whole matrix is checked at once; if any row fails, the rows are
    cleaned one by one, so the first bad row raises with its index appended
    to what ("posterior row 3"). Every row is divided by its sum, which keeps
    a row summing to exactly 1.0 bit for bit. Returns a new writable array.
    """
    r = np.array(values, dtype=float, order="C")
    if r.ndim == 2 and r.size:
        sums = r.sum(axis=1)
        # NaN and -inf fail r >= 0; +inf makes its row sum inf
        if (r >= 0).all() and (np.abs(sums - 1.0) < RENORM_LIMIT).all():
            r /= sums[:, None]
            return r
    return np.stack([_clean_probs(row, f"{what} {i}") for i, row in enumerate(r)])


def _clean_stack(values, what: str | None = None) -> np.ndarray:
    """Probability rows of stacked worlds, world b at leading index b, each
    world cleaned as it would be alone: with what, a stack of matrices
    cleaned as _clean_rows(world, what) cleans them; without, a stack of
    vectors, each cleaned as a Distribution is. The stack is checked at once,
    a bank of one included; if it fails, the worlds are cleaned one by one,
    so the first bad world raises its own error. Returns a new array.
    """
    r = np.asarray(values, dtype=float)
    try:
        return _clean_rows(r.reshape(-1, r.shape[-1]), what).reshape(r.shape)
    except NormalizationError:
        for world in r:
            if what is None:
                _clean_probs(world, "Distribution")
            else:
                _clean_rows(world, what)
        raise


def _wrap(cls, **fields):
    """A frozen dataclass instance holding fields already checked, built
    without running its checks again."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a), axis=1)) of a 2-d array, bit for bit as scipy computes it.

    This is the formula of scipy.special.logsumexp (scipy 1.17), after
    Blanchard, Higham & Higham 2021: the entries equal to the row max a_max,
    m of them, are taken out of the sum s of exp(a - a_max) over the rest, and
    the result is log1p(s / m) + log(m) + a_max, falling back to
    log(sum(exp(a))) where that is not finite (an all -inf row gives -inf).
    Spelled out here because scipy's array-API dispatch costs more than the
    arithmetic on the small matrices the solvers pass.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = a.max(axis=1, keepdims=True)
        top = a == a_max
        m = top.sum(axis=1, dtype=float)
        s = np.exp(np.where(top, -np.inf, a) - a_max).sum(axis=1)
        out = np.log1p(s / m) + np.log(m) + a_max[:, 0]
        bad = ~np.isfinite(out)
        if bad.any():
            out[bad] = np.log(np.exp(a[bad]).sum(axis=1))
    return out


def _rel_entr(x, y) -> np.ndarray:
    """Elementwise x log(x/y) of nonnegative arrays, as scipy.special.rel_entr.

    This is scipy 1.17's formula: x log1p((x - y)/y) where 0.5 < x/y < 2,
    x (log x - log y) where x/y under- or overflows, x log(x/y) elsewhere;
    0 where x == 0 and +inf where x > 0 and y == 0. A nan entry gives nan.
    numpy's log and log1p may differ from scipy's by a unit or two in the
    last place.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = x / y
        out = x * np.where((ratio > 0.5) & (ratio < 2.0),
                           np.log1p((x - y) / y), np.log(ratio))
        # x or y is 0, or the ratio is subnormal or overflows
        odd = ~(ratio >= _TINY) | (ratio == np.inf)
        if odd.any():
            edge = np.where((x == 0) & (y >= 0), 0.0,
                            x * (np.log(x) - np.log(y)))
            out = np.where(odd, edge, out)
    return out


@dataclass(frozen=True)
class Distribution:
    """A probability vector over an implicit finite alphabet."""

    probs: np.ndarray

    def __init__(self, probs):
        object.__setattr__(self, "probs", _clean_probs(probs, "Distribution"))

    def __len__(self) -> int:
        return self.probs.size

    @staticmethod
    def uniform(size: int) -> "Distribution":
        return Distribution(np.full(size, 1.0 / size))


def _as_probs(p) -> np.ndarray:
    return p.probs if isinstance(p, Distribution) else np.asarray(p, dtype=float)


def total_variation(p, q) -> float:
    """Total variation distance, half the L1 gap."""
    pa, qa = _as_probs(p), _as_probs(q)
    if pa.shape != qa.shape:
        raise AlphabetMismatchError(
            f"total_variation: alphabets of size {pa.shape} vs {qa.shape}"
        )
    return 0.5 * float(np.abs(pa - qa).sum())


def kl_divergence(p, q) -> float:
    """Relative entropy D(p || q) in bits.

    Raises SupportViolationError when p puts mass outside q's support, the
    infinite-divergence case; no +inf is ever returned.
    """
    pa, qa = _as_probs(p), _as_probs(q)
    if pa.shape != qa.shape:
        raise AlphabetMismatchError(
            f"kl_divergence: alphabets of size {pa.shape} vs {qa.shape}"
        )
    bad = (pa > 0) & (qa == 0)
    if bad.any():
        raise SupportViolationError(
            f"kl_divergence is infinite: mass at indices {np.flatnonzero(bad).tolist()} "
            "outside the support of the second argument"
        )
    return float(_rel_entr(pa, qa).sum()) / LOG2


def mutual_information(joint) -> float:
    """Mutual information of a joint probability matrix, in bits.

    Accepts any 2-d nonnegative matrix summing to one (0 log 0 = 0). Never
    negative: rounding dust below zero, as independent factors give, reads 0.
    """
    j = np.asarray(joint, dtype=float)
    if j.ndim != 2:
        raise AlphabetMismatchError("mutual_information: need a 2-d joint matrix")
    if (j < 0).any():
        raise NormalizationError("mutual_information: negative joint entries")
    total = j.sum()
    if abs(total - 1.0) >= RENORM_LIMIT:
        raise NormalizationError(f"mutual_information: joint sums to {total!r}")
    j = j / total
    row = j.sum(axis=1)
    col = j.sum(axis=0)
    outer = np.outer(row, col)
    mask = j > 0
    val = float(np.sum(j[mask] * (np.log(j[mask]) - np.log(outer[mask]))))
    return max(val / LOG2, 0.0)


@dataclass(frozen=True)
class ConceptSpace:
    """Concept alphabet with its prior and per-concept sampling law.

    data_law[c, z] is the chance that concept c emits sample symbol z; the
    sample alphabet is flat (already indexed 0..|Z|-1).
    """

    concept_names: tuple[str, ...]
    sample_names: tuple[str, ...]
    prior: Distribution
    data_law: np.ndarray

    def __post_init__(self):
        law = np.asarray(self.data_law, dtype=float)
        if law.shape != (len(self.concept_names), len(self.sample_names)):
            raise AlphabetMismatchError(
                f"data_law shape {law.shape} does not match "
                f"{len(self.concept_names)} concepts x {len(self.sample_names)} samples"
            )
        rows = _clean_rows(law, "data_law row")
        rows.setflags(write=False)
        object.__setattr__(self, "data_law", rows)
        if len(self.prior) != len(self.concept_names):
            raise AlphabetMismatchError("prior length does not match concept count")

    @property
    def n_concepts(self) -> int:
        return len(self.concept_names)

    @property
    def n_symbols(self) -> int:
        return len(self.sample_names)


def _check_loss(t: np.ndarray, l_max: float):
    """Refuse a non-finite l_max and a loss entry outside [0, l_max], over
    one loss tensor or a stack of them."""
    if not math.isfinite(l_max):
        raise NormalizationError(f"l_max must be finite, got {l_max!r}")
    # NaN and +-inf fail one side or the other
    if not ((t >= 0) & (t <= l_max + 1e-12)).all():
        raise NormalizationError(f"loss entries must lie in [0, l_max={l_max}]")


@dataclass(frozen=True)
class HypothesisSpace:
    """Hypothesis alphabet and the loss tensor loss[c, h, z] in [0, l_max]."""

    hypothesis_names: tuple[str, ...]
    loss: np.ndarray
    l_max: float = 1.0

    def __post_init__(self):
        t = np.asarray(self.loss, dtype=float).copy()
        if t.ndim != 3 or t.shape[1] != len(self.hypothesis_names):
            raise AlphabetMismatchError(
                f"loss tensor shape {t.shape} does not match hypothesis count "
                f"{len(self.hypothesis_names)}"
            )
        _check_loss(t, self.l_max)
        t.setflags(write=False)
        object.__setattr__(self, "loss", t)

    @property
    def n_hypotheses(self) -> int:
        return len(self.hypothesis_names)


@dataclass(frozen=True)
class ProblemInstance:
    """Concepts and hypotheses, checked for fit, with the datasets they induce.

    The dataset alphabet S = Z^m is derived from the concepts and m alone.
    datasets[s] is the s-th length-m sample tuple, in lexicographic order
    (first sample slowest), as a read-only (|Z|^m, m) index array;
    conditional[c, s] = P(dataset s | concept c), a product of data-law
    entries; marginal is P_S; posterior[s, c] = P(concept c | dataset s) by
    Bayes. Datasets with zero marginal mass keep the concept prior as their
    posterior row, which never matters because they carry no weight.

    The tables are derived by _derive, which derives a whole stack of
    worlds of one (|C|, |Z|, |H|) shape at once; one instance is a stack of
    one, and _bank builds a stack's instances as views into its tables.
    """

    concepts: ConceptSpace
    hypotheses: HypothesisSpace
    m: int
    datasets: np.ndarray = field(init=False, repr=False)
    conditional: np.ndarray = field(init=False, repr=False)
    marginal: Distribution = field(init=False, repr=False)
    posterior: np.ndarray = field(init=False, repr=False)
    true_loss_table: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        _check_sizes(self.concepts.n_symbols, self.m)
        if self.hypotheses.loss.shape[0] != self.concepts.n_concepts:
            raise AlphabetMismatchError("loss tensor concept axis mismatch")
        if self.hypotheses.loss.shape[2] != self.concepts.n_symbols:
            raise AlphabetMismatchError("loss tensor sample axis mismatch")
        idx, cond, p_s, post, tl = _derive(
            self.concepts.prior.probs[None], self.concepts.data_law[None],
            self.hypotheses.loss[None], self.m)
        self.__dict__.update(
            datasets=idx, conditional=cond[0],
            marginal=_wrap(Distribution, probs=p_s[0]), posterior=post[0],
            true_loss_table=tl[0])

    @property
    def n_datasets(self) -> int:
        return self.datasets.shape[0]

    @property
    def n_hypotheses(self) -> int:
        return self.hypotheses.n_hypotheses

    @property
    def p_s(self) -> np.ndarray:
        return self.marginal.probs


def _check_sizes(n_z: int, m: int):
    count = n_z**m
    if count > DEFAULT_ENUMERATION_CAP:
        raise EnumerationCapError(
            f"dataset alphabet: |Z|^m = {n_z}^{m} = {count} exceeds cap "
            f"{DEFAULT_ENUMERATION_CAP}"
        )


def _derive(prior, law, loss, m: int):
    """The dataset alphabet and the tables of a stack of checked worlds.

    prior (B, |C|), law (B, |C|, |Z|) and loss (B, |C|, |H|, |Z|) hold B
    worlds of one shape, world b at index b. Returns the read-only datasets
    (|Z|^m, m), which every world shares, and the read-only stacks of the
    conditionals, the marginals (cleaned as a Distribution is), the
    posteriors and the true-loss tables. Every formula is elementwise, a
    reduction along one world's rows, or one matmul or einsum per world over
    C-contiguous stacks, so each world gets the bits it gets alone. Raises
    for the first world whose Bayes consistency is off.
    """
    n_b, n_c, n_z = law.shape
    count = n_z**m
    # reshape(m, count), not (m, -1): at m = 0 there is one empty dataset
    idx = np.indices((n_z,) * m).reshape(m, count).T
    # log-free product; entries can be exactly zero
    cond = np.ones((n_b, n_c, count))
    for j in range(m):
        cond *= law[:, :, idx[:, j]]
    marg = np.matmul(prior[:, None, :], cond)[:, 0]
    post = np.divide(prior[:, None, :] * cond.transpose(0, 2, 1),
                     marg[:, :, None],
                     out=np.repeat(prior[:, None, :], count, axis=1),
                     where=marg[:, :, None] > 0)
    # true_loss_table[c, h] = E_{z ~ p_c} loss[c, h, z], the population risk
    # of the pure hypothesis h under concept c.
    tl = np.einsum("bcz,bchz->bch", law, loss)
    p_s = _clean_stack(marg)
    gap = np.abs(prior[:, :, None] * cond
                 - (p_s[:, :, None] * post).transpose(0, 2, 1)).max(axis=(1, 2))
    if (gap > 1e-12).any():
        raise NormalizationError(
            f"Bayes consistency off by {float(gap[gap > 1e-12][0])}")
    for a in (idx, cond, p_s, post, tl):
        a.setflags(write=False)
    return idx, cond, p_s, post, tl


@functools.cache
def _labels(prefix: str, n: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i}" for i in range(n))


def _bank(prior, law, loss, m: int) -> list[ProblemInstance]:
    """The instances of a stack of worlds of one shape, named c0.., z0..,
    h0.., with losses in [0, 1] (l_max 1): prior (B, |C|), law (B, |C|,
    |Z|), loss (B, |C|, |H|, |Z|).

    The checks of Distribution, ConceptSpace, HypothesisSpace and
    ProblemInstance run once over the stack, the tables are derived by
    _derive, and each world's arrays are read-only views into the stacks.
    If any world fails a check, the worlds are built one by one through the
    constructors, so the first bad world raises the error it raises alone.
    """
    loss = np.array(loss, dtype=float)
    n_b, n_c, n_h, n_z = loss.shape
    names = _labels("c", n_c), _labels("z", n_z), _labels("h", n_h)
    try:
        prior_p = _clean_stack(prior)
        rows = _clean_stack(law, "data_law row")
        _check_loss(loss, 1.0)
        _check_sizes(n_z, m)
        idx, cond, p_s, post, tl = _derive(prior_p, rows, loss, m)
    except (NormalizationError, EnumerationCapError):
        for b in range(n_b):
            ProblemInstance(
                ConceptSpace(names[0], names[1], Distribution(prior[b]), law[b]),
                HypothesisSpace(names[2], loss[b]), m)
        raise
    for a in (prior_p, rows, loss):
        a.setflags(write=False)
    return [
        _wrap(ProblemInstance,
              concepts=_wrap(ConceptSpace, concept_names=names[0],
                             sample_names=names[1],
                             prior=_wrap(Distribution, probs=prior_p[b]),
                             data_law=rows[b]),
              hypotheses=_wrap(HypothesisSpace, hypothesis_names=names[2],
                               loss=loss[b], l_max=1.0),
              m=m, datasets=idx, conditional=cond[b],
              marginal=_wrap(Distribution, probs=p_s[b]), posterior=post[b],
              true_loss_table=tl[b])
        for b in range(n_b)]


# ---------------------------------------------------------------------------
# JSON interchange


def _need(obj: dict, key: str, pointer: str):
    if key not in obj:
        raise ConfigError(f"{pointer}/{key}", "missing required key")
    return obj[key]


def _names(obj: dict, key: str, pointer: str) -> list[str]:
    names = _need(obj, key, pointer)
    if not isinstance(names, list):
        raise ConfigError(f"{pointer}/{key}", "need a list of names")
    return [str(x) for x in names]


def _number(value, pointer: str) -> float:
    # bool is an int subclass, but true is no number
    if isinstance(value, bool):
        raise ConfigError(pointer, f"expected a number, got {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(pointer, f"expected a number, got {value!r}") from None


def _table(obj: dict, key: str, pointer: str) -> np.ndarray:
    """obj[key], nested lists of numbers, as a float array. A JSON true or
    false anywhere in it is refused, where numpy would read 1 or 0."""
    value = _need(obj, key, pointer)
    stack = [value]
    while stack:
        x = stack.pop()
        if isinstance(x, list):
            stack.extend(x)
        elif isinstance(x, bool):
            raise ConfigError(f"{pointer}/{key}", f"expected numbers, got {x!r}")
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{pointer}/{key}", str(e)) from None


def problem_instance_from_json(obj: dict, pointer: str = "") -> ProblemInstance:
    """Build an instance from a plain dict (the on-disk JSON layout).

    Layout: concepts (list of {name, prior}), samples (list of names),
    data_law ([concept][sample]), hypotheses (list of names),
    loss ([concept][hypothesis][sample]), m, optional l_max.
    """
    if not isinstance(obj, dict):
        raise ConfigError(pointer or "/", "instance must be a JSON object")
    concepts = _need(obj, "concepts", pointer)
    if not isinstance(concepts, list) or not concepts:
        raise ConfigError(f"{pointer}/concepts", "need a non-empty list")
    names, prior = [], []
    for i, c in enumerate(concepts):
        if not isinstance(c, dict) or "name" not in c or "prior" not in c:
            raise ConfigError(f"{pointer}/concepts/{i}", "need {{name, prior}}")
        names.append(str(c["name"]))
        prior.append(_number(c["prior"], f"{pointer}/concepts/{i}/prior"))
    samples = _names(obj, "samples", pointer)
    law = _table(obj, "data_law", pointer)
    try:
        cs = ConceptSpace(
            concept_names=tuple(names),
            sample_names=tuple(samples),
            prior=Distribution(prior),
            data_law=law,
        )
    except (NormalizationError, AlphabetMismatchError, ValueError) as e:
        raise ConfigError(f"{pointer}/data_law", str(e)) from e
    m = _need(obj, "m", pointer)
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise ConfigError(f"{pointer}/m", "m must be a positive integer")
    hyp_names = _names(obj, "hypotheses", pointer)
    loss = _table(obj, "loss", pointer)
    l_max = _number(obj.get("l_max", 1.0), f"{pointer}/l_max")
    if not math.isfinite(l_max):
        raise ConfigError(f"{pointer}/l_max", f"must be finite, got {l_max!r}")
    try:
        hs = HypothesisSpace(
            hypothesis_names=tuple(hyp_names),
            loss=loss,
            l_max=l_max,
        )
    except (NormalizationError, AlphabetMismatchError, ValueError) as e:
        raise ConfigError(f"{pointer}/loss", str(e)) from e
    try:
        return ProblemInstance(cs, hs, m)
    except (NormalizationError, AlphabetMismatchError, EnumerationCapError) as e:
        raise ConfigError(pointer or "/", str(e)) from e


def problem_instance_to_json(instance: ProblemInstance) -> dict:
    """Inverse of problem_instance_from_json, for repro dumps."""
    cs = instance.concepts
    return {
        "concepts": [
            {"name": n, "prior": float(p)}
            for n, p in zip(cs.concept_names, cs.prior.probs)
        ],
        "samples": list(cs.sample_names),
        "data_law": cs.data_law.tolist(),
        "hypotheses": list(instance.hypotheses.hypothesis_names),
        "loss": instance.hypotheses.loss.tolist(),
        "m": instance.m,
        "l_max": instance.hypotheses.l_max,
    }


def load_problem_instance(path) -> ProblemInstance:
    with open(path) as f:
        try:
            obj = json.load(f)
        except json.JSONDecodeError as e:
            raise ConfigError("/", f"not valid JSON: {e}") from e
    return problem_instance_from_json(obj)
