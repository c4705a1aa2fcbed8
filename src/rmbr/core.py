"""Domain types and score-combination arithmetic.

A reranked score is the expected-utility (MBR) score of a candidate plus a
weighted sum of regularizer scores.  All regularizer scores are stored
higher-is-better: log-probability style scores come in as-is, uncertainty
scores are negated at ingestion, so a positive weight always rewards
quality/confidence.  No normalization is applied anywhere; balancing the
terms is entirely the job of the weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, InvalidInputError

#: Names accepted in RerankConfig.regularizers / RerankConfig.lambdas.
REGULARIZER_NAMES = ("lp", "lm", "bt", "qe", "mc_dropout", "entropy")

#: The conventional weight grid used when tuning regularizer weights.
DEFAULT_LAMBDA_GRID = (0.001, 0.01, 0.1, 1.0, 10.0)


def _as_float_tuple(values) -> tuple[float, ...]:
    return tuple(float(v) for v in values)


@dataclass(frozen=True)
class Candidate:
    """One hypothesis from an n-best list.

    ``log_prob`` is the sentence log-probability under the generating model.
    ``external_scores`` holds per-candidate quality scores computed by
    external models (keys "lm", "bt", "qe").  ``mc_pass_scores`` holds the
    per-pass perturbed negative log-probabilities from stochastic forward
    passes; ``token_entropies`` holds the per-token output-distribution
    entropies.  Both uncertainty fields are raw (higher = more uncertain);
    orientation is flipped when they are read as regularizers.
    """

    text: str
    tokens: tuple[str, ...]
    log_prob: float
    token_log_probs: tuple[float, ...] | None = None
    external_scores: Mapping[str, float] = field(default_factory=dict)
    mc_pass_scores: tuple[float, ...] | None = None
    token_entropies: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        if not self.tokens:
            raise InvalidInputError("candidate has no tokens")
        if not math.isfinite(self.log_prob) or self.log_prob > 0.0:
            raise InvalidInputError(
                f"log_prob must be finite and <= 0, got {self.log_prob!r}"
            )
        if self.token_log_probs is not None:
            tlp = _as_float_tuple(self.token_log_probs)
            object.__setattr__(self, "token_log_probs", tlp)
            if len(tlp) != len(self.tokens):
                raise InvalidInputError(
                    f"token_log_probs has {len(tlp)} entries for {len(self.tokens)} tokens"
                )
            if any(v > 0.0 for v in tlp):
                raise InvalidInputError("token_log_probs entries must be <= 0")
        if self.mc_pass_scores is not None:
            object.__setattr__(
                self, "mc_pass_scores", _as_float_tuple(self.mc_pass_scores)
            )
            if not self.mc_pass_scores:
                raise InvalidInputError("mc_pass_scores is present but empty")
        if self.token_entropies is not None:
            ent = _as_float_tuple(self.token_entropies)
            object.__setattr__(self, "token_entropies", ent)
            if len(ent) != len(self.tokens):
                raise InvalidInputError(
                    f"token_entropies has {len(ent)} entries for {len(self.tokens)} tokens"
                )
            if any(v < 0.0 for v in ent):
                raise InvalidInputError("token_entropies entries must be >= 0")


@dataclass(frozen=True)
class NBestList:
    """A source sentence with its candidate list in beam order.

    Candidates must be sorted by descending ``log_prob`` (ties keep input
    order); index 0 is the beam top-1.  ``reference`` is only needed for
    tuning and oracle analysis.  ``reference_token_log_probs`` optionally
    carries per-token log-probabilities of the reference under the model
    (a force-decoded reference), used by token-probability analysis.
    """

    source: str
    candidates: tuple[Candidate, ...]
    reference: str | None = None
    reference_token_log_probs: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "candidates", tuple(self.candidates))
        if not self.candidates:
            raise InvalidInputError("n-best list has no candidates")
        probs = [c.log_prob for c in self.candidates]
        if any(a < b for a, b in zip(probs, probs[1:])):
            raise InvalidInputError(
                "candidates are not sorted by descending log_prob"
            )
        if self.reference_token_log_probs is not None:
            object.__setattr__(
                self,
                "reference_token_log_probs",
                _as_float_tuple(self.reference_token_log_probs),
            )

    @property
    def n(self) -> int:
        return len(self.candidates)


@dataclass(frozen=True)
class UtilityMatrix:
    """Pairwise utility values: entry (i, j) scores candidate i against
    candidate j acting as pseudo-reference, for j over the first l candidates.
    """

    values: np.ndarray
    utility_name: str

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise InvalidInputError(
                f"utility matrix must be 2-D and non-empty, got shape {values.shape}"
            )
        if values.shape[1] > values.shape[0]:
            raise InvalidInputError(
                f"utility matrix has l={values.shape[1]} > n={values.shape[0]}"
            )
        if not np.all(np.isfinite(values)):
            raise InvalidInputError("utility matrix contains non-finite entries")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

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
        if int(self.keep) < 1:
            raise ConfigError(f"coarse-to-fine keep must be >= 1, got {self.keep}")
        object.__setattr__(self, "keep", int(self.keep))


@dataclass(frozen=True)
class RerankConfig:
    """Settings for one reranking run.

    ``utility`` is either a spec string ("bleu", "chrf", "matrix:PATH",
    "service:ADDR") or a ready utility provider object.  ``l`` is the
    truncation depth for the expected-utility sum ("full" means l = n).
    ``lambdas`` maps each active regularizer name to its weight; the key
    set must equal ``regularizers``.
    """

    utility: object = "bleu"
    l: int | str = "full"
    lambdas: Mapping[str, float] = field(default_factory=dict)
    regularizers: tuple[str, ...] = ()
    coarse_to_fine: CoarseToFine | None = None

    def __post_init__(self):
        object.__setattr__(self, "regularizers", tuple(self.regularizers))
        object.__setattr__(
            self, "lambdas", {k: float(v) for k, v in dict(self.lambdas).items()}
        )
        for name in self.regularizers:
            if name not in REGULARIZER_NAMES:
                raise ConfigError(
                    f"unknown regularizer {name!r}; expected one of {REGULARIZER_NAMES}"
                )
        if set(self.lambdas) != set(self.regularizers):
            raise ConfigError(
                "lambdas and regularizers must name the same set: "
                f"lambdas={sorted(self.lambdas)} regularizers={sorted(self.regularizers)}"
            )
        if len(set(self.regularizers)) != len(self.regularizers):
            raise ConfigError("duplicate regularizer name")
        if self.l != "full":
            if int(self.l) < 1:
                raise ConfigError(f"l must be >= 1 or 'full', got {self.l!r}")
            object.__setattr__(self, "l", int(self.l))

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
        object.__setattr__(self, "mbr_scores", _as_float_tuple(self.mbr_scores))
        object.__setattr__(self, "total_scores", _as_float_tuple(self.total_scores))
        object.__setattr__(self, "ranking", tuple(int(i) for i in self.ranking))
        object.__setattr__(
            self, "candidate_indices", tuple(int(i) for i in self.candidate_indices)
        )
        object.__setattr__(
            self,
            "regularizer_scores",
            {k: _as_float_tuple(v) for k, v in dict(self.regularizer_scores).items()},
        )
        k = len(self.candidate_indices)
        if len(self.mbr_scores) != k or len(self.total_scores) != k:
            raise InvalidInputError("score arrays disagree with candidate_indices")
        for name, vals in self.regularizer_scores.items():
            if len(vals) != k:
                raise InvalidInputError(f"regularizer {name!r} has wrong length")
        if sorted(self.ranking) != sorted(self.candidate_indices):
            raise InvalidInputError("ranking is not a permutation of candidate_indices")
        if self.selected != self.ranking[0]:
            raise InvalidInputError("selected must equal ranking[0]")


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
