"""Domain types and score-combination arithmetic.

The constructors of these types are the one place that decides what a
valid field is.  They check types and do not coerce: a number is a finite
int, float or numpy real scalar, never a bool or a string; an integer is an
int or numpy integer scalar >= a minimum, never a bool; a number list is a
list, tuple or 1-D array of numbers.  Other modules check what a caller
sets with the same two checks, :func:`_number` and :func:`_integer`.
Checked values are stored as floats, float tuples and ints, written to
``vars(self)`` since the types are frozen.  A bad data field raises
:class:`InvalidInputError`, a bad config field :class:`ConfigError`.
This module does not import numpy: numpy's integer and float scalar types
join the accepted ones the first time a check meets a type it does not
know after numpy is loaded, which is exact, since no numpy value exists
before.  Only :class:`UtilityMatrix` imports numpy.

The metric settings (:class:`MetricConfig`), the names of the corpus
objectives and the corpus check of corpus BLEU (:func:`check_corpus`)
live here too, so that a command checks them without loading the metrics.

A reranked score is the expected-utility (MBR) score of a candidate plus a
weighted sum of regularizer scores.  All regularizer scores are read
higher-is-better: log-probability style scores as-is, and uncertainty
scores, which a :class:`Candidate` stores raw, negated when
:func:`rmbr.mbr.regularizer_values` reads them, so a positive weight
always rewards quality/confidence.  No normalization is applied
anywhere; balancing the terms is entirely the job of the weights.
"""

from __future__ import annotations

import json
import math
import sys
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from .errors import ConfigError, InvalidInputError

#: Names accepted as RerankConfig.lambdas keys.
REGULARIZER_NAMES = ("lp", "lm", "bt", "qe", "mc_dropout", "entropy")

#: The conventional weight grid used when tuning regularizer weights.
DEFAULT_LAMBDA_GRID = (0.001, 0.01, 0.1, 1.0, 10.0)

BLEU_SMOOTHING_MODES = ("none", "epsilon-floor")

# Corpus metrics that tuning and the oracle can maximize.
OBJECTIVE_METRICS = ("bleu", "chrf")


# the exact types a number or an index may have: a bool is neither; numpy's
# scalar types are added by _typed once numpy is loaded
_INTEGER_TYPES = {int}
_REAL_TYPES = {int, float}


def _typed(kinds: set, types: set) -> bool:
    """Whether every type in ``kinds`` is one of ``types``.

    The first time this finds a type it does not know after numpy is
    loaded, numpy's integer and float scalar types join the accepted ones.
    """
    if kinds <= types:
        return True
    np = sys.modules.get("numpy")
    if np is None or np.float64 in _REAL_TYPES:
        return False
    _INTEGER_TYPES.update(np.dtype(c).type for c in np.typecodes["AllInteger"])
    _REAL_TYPES.update(_INTEGER_TYPES, (np.dtype(c).type for c in np.typecodes["Float"]))
    return kinds <= types


def _show(value) -> str:
    """``value`` as a JSON file writes it; repr stands in for what JSON cannot hold."""
    return json.dumps(value, default=repr, skipkeys=True)


def _items(values, what: str, types: set, noun: str) -> list | tuple:
    """A list, tuple or 1-D array whose items all have one of ``types``."""
    items = values
    np = sys.modules.get("numpy")  # no array exists before numpy is loaded
    if np is not None and isinstance(values, np.ndarray) and values.ndim == 1:
        items = values.tolist()
    if not isinstance(items, (list, tuple)) or not _typed(set(map(type, items)), types):
        raise InvalidInputError(f"{what} must be an array of {noun}, got {_show(values)}")
    return items


def _number(value, what: str, error=InvalidInputError, finite=True) -> float:
    """``value``, a number (finite if ``finite``), as a float; else ``error`` is raised."""
    if type(value) not in _REAL_TYPES and not _typed({type(value)}, _REAL_TYPES):
        raise error(f"{what} must be a number, got {_show(value)}")
    try:
        number = float(value)
    except OverflowError:
        raise error(f"int too large to convert to float: {what}") from None
    if finite and not math.isfinite(number):
        raise error(f"{what} must be finite")
    return number


def _integer(value, what: str, least: int, error=InvalidInputError, also: str = "") -> int:
    """``value``, an int or numpy integer (never a bool) >= ``least``, as an int; else ``error``."""
    if not _typed({type(value)}, _INTEGER_TYPES) or value < least:
        raise error(f"{what} must be an integer >= {least}{also}, got {value!r}")
    return int(value)


def _numbers(values, what: str) -> tuple[float, ...]:
    """A number list, as floats."""
    return tuple([_number(v, what) for v in _items(values, what, _REAL_TYPES, "numbers")])


@dataclass(frozen=True)
class Candidate:
    """One hypothesis from an n-best list.

    ``text`` must hold a non-whitespace character; ``tokens`` is a
    non-empty list, tuple or 1-D array of strings.  ``log_prob`` (<= 0) is
    the sentence log-probability under the generating model.
    ``external_scores`` maps names to quality scores computed by external
    models (keys "lm", "bt", "qe"); None means none.  ``mc_pass_scores``
    holds the per-pass perturbed negative log-probabilities from stochastic
    forward passes; ``token_entropies`` holds the per-token
    output-distribution entropies.  Both uncertainty fields are raw (higher
    = more uncertain, each entry >= 0); orientation is flipped when read as
    regularizers.
    """

    text: str
    tokens: tuple[str, ...]
    log_prob: float
    token_log_probs: tuple[float, ...] | None = None
    external_scores: Mapping[str, float] = field(default_factory=dict)
    mc_pass_scores: tuple[float, ...] | None = None
    token_entropies: tuple[float, ...] | None = None

    def __post_init__(self):
        if not isinstance(self.text, str) or not self.text.strip():
            raise InvalidInputError(
                f"candidate text must hold a non-whitespace character, got {self.text!r}"
            )
        scores = {} if self.external_scores is None else self.external_scores
        if not isinstance(scores, Mapping):
            raise InvalidInputError(f"external_scores must be an object, got {_show(scores)}")
        vars(self).update(
            tokens=tuple(_items(self.tokens, "candidate tokens", {str}, "strings")),
            log_prob=_number(self.log_prob, "log_prob"),
            external_scores={k: _number(v, f"external score {k!r}") for k, v in scores.items()},
        )
        for name in ("token_log_probs", "mc_pass_scores", "token_entropies"):
            if getattr(self, name) is not None:
                vars(self)[name] = _numbers(getattr(self, name), name)
        tlp, ent, n = self.token_log_probs, self.token_entropies, len(self.tokens)
        if not n:
            raise InvalidInputError("candidate has no tokens")
        if self.log_prob > 0.0:
            raise InvalidInputError(f"log_prob must be finite and <= 0, got {self.log_prob!r}")
        for name, values in (("token_log_probs", tlp), ("token_entropies", ent)):
            if values is not None and len(values) != n:
                raise InvalidInputError(f"{name} has {len(values)} entries for {n} tokens")
        if tlp and max(tlp) > 0.0:
            raise InvalidInputError("token_log_probs entries must be <= 0")
        if self.mc_pass_scores == ():
            raise InvalidInputError("mc_pass_scores is present but empty")
        for name, values in (("mc_pass_scores", self.mc_pass_scores), ("token_entropies", ent)):
            if values and min(values) < 0.0:
                raise InvalidInputError(f"{name} entries must be >= 0")


@dataclass(frozen=True)
class NBestList:
    """A source sentence with its candidate list in beam order.

    Candidates must be sorted by descending ``log_prob`` (ties keep input
    order); index 0 is the beam top-1.  ``source`` is a string or None.
    ``reference``, a string or None, is only needed for tuning and oracle
    analysis.  ``reference_token_log_probs`` optionally carries per-token
    log-probabilities (each <= 0) of the reference under the model (a
    force-decoded reference), used by token-probability analysis.
    """

    source: str | None
    candidates: tuple[Candidate, ...]
    reference: str | None = None
    reference_token_log_probs: tuple[float, ...] | None = None

    def __post_init__(self):
        for name in ("source", "reference"):
            value = getattr(self, name)
            if not isinstance(value, (str, type(None))):
                raise InvalidInputError(f"{name} must be a string or null, got {_show(value)}")
        candidates = _items(self.candidates, "candidates", {Candidate}, "Candidate objects")
        vars(self)["candidates"] = tuple(candidates)
        if not self.candidates:
            raise InvalidInputError("n-best list has no candidates")
        probs = [c.log_prob for c in self.candidates]
        if any(a < b for a, b in zip(probs, probs[1:])):
            raise InvalidInputError("candidates are not sorted by descending log_prob")
        if self.reference_token_log_probs is not None:
            ref_lp = _numbers(self.reference_token_log_probs, "reference_token_log_probs")
            if any(v > 0.0 for v in ref_lp):
                raise InvalidInputError("reference_token_log_probs entries must be <= 0")
            vars(self)["reference_token_log_probs"] = ref_lp

    @property
    def n(self) -> int:
        return len(self.candidates)


@dataclass(frozen=True)
class UtilityMatrix:
    """Pairwise utility values: entry (i, j) scores candidate i against
    candidate j acting as pseudo-reference, for j over the first l candidates.
    ``utility_name`` is a string.
    """

    values: np.ndarray
    utility_name: str

    def __post_init__(self):
        import numpy as np

        if not isinstance(self.utility_name, str):
            raise InvalidInputError(
                f"utility_name must be a string, got {_show(self.utility_name)}"
            )
        values = np.asarray(self.values)
        if values.dtype.kind not in "iuf":
            raise InvalidInputError(f"utility matrix must hold numbers, got {values.dtype}")
        values = values.astype(np.float64)  # a copy, frozen below
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise InvalidInputError(
                f"utility matrix must be 2-D and non-empty, got shape {values.shape}"
            )
        if values.shape[1] > values.shape[0]:
            raise InvalidInputError(f"utility matrix has l={values.shape[1]} > n={values.shape[0]}")
        if not np.all(np.isfinite(values)):
            raise InvalidInputError("utility matrix contains non-finite entries")
        values.flags.writeable = False
        vars(self)["values"] = values

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def l(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class CoarseToFine:
    """Two-stage settings: a cheap proxy utility shortlists ``keep``
    survivors before the target utility scores them."""

    proxy: object  # utility spec string or provider
    keep: int

    def __post_init__(self):
        vars(self)["keep"] = _integer(self.keep, "coarse-to-fine keep", 1, ConfigError)


@dataclass(frozen=True)
class RerankConfig:
    """Settings for one reranking run.

    ``utility`` is either a spec string ("bleu", "chrf", "matrix:PATH",
    "service:ADDR") or a ready utility provider object.  ``l`` is the
    truncation depth for the expected-utility sum, an integer >= 1 ("full"
    means l = n); a coarse-to-fine run reranks its survivors at full depth,
    so it takes no other ``l``.  ``lambdas`` maps each active regularizer
    name to its finite weight; its keys, in order, are the active
    regularizers and the order they are combined and reported in.
    """

    utility: object = "bleu"
    l: int | str = "full"
    lambdas: Mapping[str, float] = field(default_factory=dict)
    coarse_to_fine: CoarseToFine | None = None

    def __post_init__(self):
        if not isinstance(self.lambdas, Mapping):
            raise ConfigError(f"lambdas must be a mapping, got {self.lambdas!r}")
        for name in self.lambdas:
            if name not in REGULARIZER_NAMES:
                raise ConfigError(
                    f"unknown regularizer {name!r}; expected one of {REGULARIZER_NAMES}"
                )
        lambdas = self.lambdas.items()
        vars(self)["lambdas"] = {k: _number(v, f"lambda {k}", ConfigError) for k, v in lambdas}
        if not isinstance(self.l, str) or self.l != "full":
            vars(self)["l"] = _integer(self.l, "l", 1, ConfigError, " or 'full'")
        if not isinstance(self.coarse_to_fine, (CoarseToFine, type(None))):
            raise ConfigError(
                f"coarse_to_fine must be a CoarseToFine or None, got {self.coarse_to_fine!r}"
            )
        if self.coarse_to_fine is not None and self.l != "full":
            raise ConfigError("coarse-to-fine reranks at full depth; l must be 'full'")

    @property
    def regularizers(self) -> tuple[str, ...]:
        """The active regularizer names, in ``lambdas`` order."""
        return tuple(self.lambdas)

    def resolve_l(self, n: int) -> int:
        if self.l == "full":
            return n
        if self.l > n:
            raise InvalidInputError(f"l={self.l} exceeds list size n={n}")
        return self.l


@dataclass(frozen=True)
class RerankResult:
    """Per-candidate score breakdown and the final ranking.

    ``candidate_indices[i]`` is the original-list index of the i-th scored
    row; it is the identity for a direct rerank, and the survivor indices
    for a coarse-to-fine run (eliminated candidates carry no scores).
    ``ranking`` lists original-list indices by descending total score.
    """

    mbr_scores: tuple[float, ...]
    regularizer_scores: Mapping[str, tuple[float, ...]]
    total_scores: tuple[float, ...]
    ranking: tuple[int, ...]
    selected: int
    utility_calls: int
    candidate_indices: tuple[int, ...]

    def __post_init__(self):
        scores = self.regularizer_scores
        if not isinstance(scores, Mapping):
            raise InvalidInputError(f"regularizer_scores must be an object, got {_show(scores)}")
        vars(self).update(
            selected=_integer(self.selected, "selected", 0),
            utility_calls=_integer(self.utility_calls, "utility_calls", 0),
            mbr_scores=_numbers(self.mbr_scores, "mbr_scores"),
            regularizer_scores={k: _numbers(v, f"regularizer {k!r}") for k, v in scores.items()},
            total_scores=_numbers(self.total_scores, "total_scores"),
            **{
                name: tuple(map(int, _items(getattr(self, name), name, _INTEGER_TYPES, "integers")))
                for name in ("ranking", "candidate_indices")
            },
        )
        k = len(self.candidate_indices)
        if len(self.mbr_scores) != k or len(self.total_scores) != k:
            raise InvalidInputError("score arrays disagree with candidate_indices")
        for name, vals in self.regularizer_scores.items():
            if len(vals) != k:
                raise InvalidInputError(f"regularizer {name!r} has wrong length")
        if min(self.candidate_indices, default=0) < 0:
            raise InvalidInputError("candidate_indices must be >= 0")
        if sorted(self.ranking) != sorted(self.candidate_indices):
            raise InvalidInputError("ranking is not a permutation of candidate_indices")
        if self.ranking[:1] != (self.selected,):
            raise InvalidInputError("selected must equal ranking[0]")


@dataclass(frozen=True)
class MetricConfig:
    """Hyperparameters for the built-in lexical metrics."""

    bleu_max_order: int = 4
    bleu_smoothing: str = "epsilon-floor"
    bleu_epsilon: float = 0.1
    chrf_char_order: int = 6
    chrf_beta: float = 2.0

    def __post_init__(self):
        orders, reals = ("bleu_max_order", "chrf_char_order"), ("bleu_epsilon", "chrf_beta")
        vars(self).update({k: _integer(getattr(self, k), k, 1, ConfigError) for k in orders})
        vars(self).update({k: _number(getattr(self, k), k, ConfigError) for k in reals})
        if self.bleu_smoothing not in BLEU_SMOOTHING_MODES:
            raise ConfigError(
                f"bleu_smoothing must be one of {BLEU_SMOOTHING_MODES}, got {self.bleu_smoothing!r}"
            )
        if self.bleu_smoothing == "epsilon-floor" and not self.bleu_epsilon > 0.0:
            raise ConfigError(f"bleu_epsilon must be > 0, got {self.bleu_epsilon}")
        if not self.chrf_beta > 0.0:
            raise ConfigError(f"chrf_beta must be > 0, got {self.chrf_beta}")


def check_corpus(hyps: Sequence, refs: Sequence) -> None:
    """Check tokenized sentence pairs: as many of each side, some, and none empty."""
    if len(hyps) != len(refs):
        raise InvalidInputError(f"{len(hyps)} hypotheses but {len(refs)} references")
    if not hyps:
        raise InvalidInputError("empty corpus")
    for pos, (hyp, ref) in enumerate(zip(hyps, refs)):
        if not hyp or not ref:
            raise InvalidInputError(f"empty sentence at corpus position {pos}")


def combine_scores(
    mbr: Sequence[float],
    regs: Mapping[str, Sequence[float]],
    lambdas: Mapping[str, float],
) -> list[float]:
    """Combine MBR scores with weighted regularizer scores, element-wise.

    Returns ``mbr[i] + sum_j lambdas[j] * regs[j][i]``; no normalization.
    """
    n = len(mbr)
    for name, values in regs.items():
        if len(values) != n:
            raise InvalidInputError(
                f"regularizer {name!r} has {len(values)} scores for {n} candidates"
            )
        if name not in lambdas:
            raise ConfigError(f"no lambda weight for regularizer {name!r}")
    totals = [float(v) for v in mbr]
    for name, values in regs.items():
        lam = float(lambdas[name])
        for i, v in enumerate(values):
            totals[i] += lam * float(v)
    return totals


def rank_candidates(totals: Sequence[float]) -> tuple[list[int], int]:
    """Rank candidate indices by descending total score.

    Ties are broken by beam order: the lower original index wins.  Returns
    the full ranking and the selected (first) index.
    """
    if len(totals) == 0:
        raise InvalidInputError("cannot rank an empty score list")
    values = [float(v) for v in totals]
    if not all(math.isfinite(v) for v in values):
        raise InvalidInputError("total scores must be finite")
    ranking = sorted(range(len(values)), key=lambda i: (-values[i], i))
    return ranking, ranking[0]
