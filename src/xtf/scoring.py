"""Per-token scores measured with a frozen base model.

Three views of each label token: how much later positions attend to it
(reasoning importance), how confidently the base model already predicts it
(one minus that probability: knowledge novelty), and how close its
context-free embedding sits to the dataset centroid (task relevance).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .data import TokenizedExample, fmt_float, read_records, write_atomic
from .model import ForwardTrace, InputError, ModelParams, forward
from .numerics import fan_out, softmax_value

RI_AGGS = ("mean", "sum", "last_layer_mean")
DOMAIN_SOURCES = ("all_tokens", "unique_tokens")
DISTANCE_METRICS = ("euclidean", "cosine")
SCORE_KEYS = ("s_ri", "s_kn", "s_tr", "pcp")  # TokenScores field order
_SCORE_MAX = (float(np.finfo(np.float64).max), 1.0, 1.0, 1.0)  # s_ri sums attention weights under "sum" pooling


class ConsistencyError(ValueError):
    """Scores/domain/dataset artifacts that do not belong together."""


@dataclass
class TokenScores:
    """The three score arrays (plus raw predicted probability) for one sample."""

    id: str
    s_ri: np.ndarray
    s_kn: np.ndarray
    s_tr: np.ndarray
    pcp: np.ndarray

    def n_tokens(self) -> int:
        return len(self.s_ri)


@dataclass
class DomainVector:
    """Dataset embedding centroid and the per-token distance table."""

    centroid: np.ndarray
    token_distances: dict[int, float]
    d_min: float
    d_max: float
    source: str = "all_tokens"
    metric: str = "euclidean"


@dataclass
class ScoreResult:
    scores: list[TokenScores]
    domain: DomainVector
    errors: list[tuple[str, str]] = field(default_factory=list)


def _ri_from_trace(trace: ForwardTrace, l_input: int, n_out: int, agg: str) -> np.ndarray:
    """Pool attention received by each label token from strictly later queries.

    The final token has no later queries; it gets its (pooled) self-attention
    weight instead so causal masking alone never marks it unimportant.
    `agg` is one of RI_AGGS, which `score_dataset` checks up front.
    """
    att = trace.attention if agg != "last_layer_mean" else trace.attention[-1:]
    seq, f = att.shape[-1], trace.first
    s_ri = np.empty(n_out)
    for k in range(n_out):
        p = l_input + k
        received = att[:, :, p + 1 - f :, p] if p + 1 < seq else att[:, :, p - f, p]
        # np.add.reduce is what `sum` computes, and divided by the size what
        # `mean` computes, without their wrappers
        total = np.add.reduce(received, axis=None)
        s_ri[k] = total if agg == "sum" else total / received.size
    return s_ri


def _kn_from_trace(trace: ForwardTrace, example: TokenizedExample) -> tuple[np.ndarray, np.ndarray]:
    probs = softmax_value(trace.logits, axis=-1)
    rows = np.arange(example.l_input - 1, example.l_input - 1 + len(example.output_ids)) - trace.first
    pcp = probs[rows, example.output_ids]
    return pcp, 1.0 - pcp


def _distance(vec: np.ndarray, centroid: np.ndarray, metric: str) -> float:
    if metric == "euclidean":
        return float(np.linalg.norm(vec - centroid))
    if metric == "cosine":
        na, nb = np.linalg.norm(vec), np.linalg.norm(centroid)
        if na == 0.0 or nb == 0.0:
            return 1.0
        return float(1.0 - float(vec @ centroid) / (na * nb))
    raise ValueError(f"unknown distance metric {metric!r}")


def compute_domain_vector(
    params: ModelParams,
    dataset: list[TokenizedExample],
    source: str = "all_tokens",
    metric: str = "euclidean",
) -> DomainVector:
    """Centroid of context-free embeddings over the dataset, plus the raw
    distance from it for every distinct token id that appears anywhere.

    `source` picks the centroid population: every token occurrence in every
    sample's full text (default), or each distinct token once.
    """
    if not dataset:
        raise InputError("domain vector requires a non-empty dataset")
    table = params["tok_emb"].value
    counts = np.zeros(params.config.vocab_size, dtype=np.int64)
    for ex in dataset:
        for tid in ex.tokens:
            counts[tid] += 1
    present = np.nonzero(counts)[0]
    if source == "all_tokens":
        centroid = (counts[present].astype(np.float64) @ table[present]) / counts.sum()
    elif source == "unique_tokens":
        centroid = table[present].mean(axis=0)
    else:
        raise ValueError(f"unknown domain source {source!r}")
    distances = {int(t): _distance(table[t], centroid, metric) for t in present}
    values = list(distances.values())
    return DomainVector(centroid, distances, min(values), max(values), source, metric)


def score_tr(domain: DomainVector, example: TokenizedExample) -> np.ndarray:
    """1 - min-max-normalized distance, clamped to [0, 1]. A degenerate
    distance table (all equal) scores every token 1: nothing is filterable."""
    span = domain.d_max - domain.d_min
    s_tr = np.empty(len(example.output_ids))
    for k, tid in enumerate(example.output_ids):
        dist = domain.token_distances.get(int(tid))
        if dist is None:
            raise ConsistencyError(
                f"example {example.id!r}: token {tid} missing from the domain table "
                "(scores and domain built from different datasets?)"
            )
        if span == 0.0:
            s_tr[k] = 1.0
        else:
            s_tr[k] = min(1.0, max(0.0, 1.0 - (dist - domain.d_min) / span))
    return s_tr


def _validate_example(params: ModelParams, ex: TokenizedExample) -> str | None:
    cfg = params.config
    if ex.l_input < 1:
        return "empty input"
    if not ex.output_ids:
        return "empty label"
    if ex.l_input + len(ex.output_ids) > cfg.max_seq:
        return f"sequence length {ex.l_input + len(ex.output_ids)} exceeds max_seq {cfg.max_seq}"
    if any(t < 0 or t >= cfg.vocab_size for t in ex.tokens):
        return "token id outside the model vocabulary"
    return None


def _score_slice(
    examples: list[TokenizedExample], params: ModelParams, domain: DomainVector, ri_agg: str
) -> tuple[list[TokenScores], list[tuple[str, str]]]:
    """Scores of `examples`, one forward pass each from row l_input - 1 on,
    and the (id, message) of each example that could not be scored."""
    scores: list[TokenScores] = []
    errors: list[tuple[str, str]] = []
    for ex in examples:
        try:
            trace = forward(params, ex.tokens, ex.l_input - 1)
            s_ri = _ri_from_trace(trace, ex.l_input, len(ex.output_ids), ri_agg)
            pcp, s_kn = _kn_from_trace(trace, ex)
            s_tr = score_tr(domain, ex)
        except (InputError, ConsistencyError) as exc:
            errors.append((ex.id, str(exc)))
            continue
        scores.append(TokenScores(ex.id, s_ri, s_kn, s_tr, pcp))
    return scores, errors


def score_dataset(
    params: ModelParams,
    dataset: list[TokenizedExample],
    ri_agg: str = "mean",
    domain_source: str = "all_tokens",
    distance_metric: str = "euclidean",
) -> ScoreResult:
    """All three scores for every example, from one forward pass each whose
    last block runs only from row l_input - 1 on, where the scores read;
    they equal the full pass's up to rounding.

    Invalid examples are skipped (collected with ids) rather than aborting
    the run; the domain vector is built over the valid subset. The frozen
    params are never written to. The valid examples are scored in slices of
    about equal token counts through `numerics.fan_out` (README, "Fanning
    out"), bitwise one loop over them. An unknown `ri_agg` raises
    ValueError before any work.
    """
    if ri_agg not in RI_AGGS:
        raise ValueError(f"ri_agg must be one of {', '.join(RI_AGGS)}, got {ri_agg!r}")
    errors: list[tuple[str, str]] = []
    valid: list[TokenizedExample] = []
    for ex in dataset:
        problem = _validate_example(params, ex)
        if problem is None:
            valid.append(ex)
        else:
            errors.append((ex.id, problem))
    domain = compute_domain_vector(params, valid, domain_source, distance_metric)
    parts = fan_out(_score_slice, valid, [len(ex.tokens) for ex in valid], params, domain, ri_agg)
    scores = [s for part_scores, _ in parts for s in part_scores]
    errors += [e for _, part_errors in parts for e in part_errors]
    return ScoreResult(scores, domain, errors)


# ---------------------------------------------------------------------------
# Scores file: JSON lines, floats at 17 significant digits (exact round trip).
# ---------------------------------------------------------------------------


def _float_list(values: np.ndarray) -> str:
    return "[" + ", ".join(fmt_float(v) for v in values) + "]"


def save_scores(scores: list[TokenScores], path) -> None:
    lines = []
    for s in scores:
        lines.append(
            "{"
            + f'"id": {json.dumps(s.id)}, '
            + f'"pcp": {_float_list(s.pcp)}, '
            + f'"s_ri": {_float_list(s.s_ri)}, '
            + f'"s_kn": {_float_list(s.s_kn)}, '
            + f'"s_tr": {_float_list(s.s_tr)}'
            + "}"
        )
    write_atomic(path, "\n".join(lines) + "\n")


def load_scores(path) -> list[TokenScores]:
    """Read a scores file through `read_records`. Each line needs four
    equal-length lists of finite numbers, each in [0, 1] (s_ri in [0, inf));
    otherwise InputError."""
    out = []
    for where, obj in read_records(path, InputError):
        lists = [obj.get(key) for key in SCORE_KEYS]
        # an integer past the float range fails the bounds; NaN passes them unless it comes first
        if not all(
            isinstance(v, list) and len(v) == len(lists[0]) > 0 and set(map(type, v)) <= {int, float}
            and 0 <= min(v) and max(v) <= high
            for v, high in zip(lists, _SCORE_MAX)
        ):
            raise InputError(
                f"{where}: {', '.join(SCORE_KEYS)} of {obj['id']!r} are not equal-length, non-empty lists "
                "of scores in range"
            )
        rows = np.array(lists, dtype=np.float64)
        if not np.isfinite(rows).all():
            raise InputError(f"{where}: non-finite score for {obj['id']!r}")
        out.append(TokenScores(obj["id"], *rows))
    return out
