"""Per-token scores measured with a frozen base model.

Three views of each label token: how much later positions attend to it
(reasoning importance), how confidently the base model already predicts it
(one minus that probability: knowledge novelty), and how close its
context-free embedding sits to the dataset centroid (task relevance).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .data import TokenizedExample, fmt_float, packs, read_records, write_atomic
from .model import ForwardTrace, InputError, ModelParams, forward_tensors
from .numerics import fan_out, softmax_value

RI_AGGS = ("mean", "sum", "last_layer_mean")
DOMAIN_SOURCES = ("all_tokens", "unique_tokens")
DISTANCE_METRICS = ("euclidean", "cosine")
SCORE_KEYS = ("s_ri", "s_kn", "s_tr", "pcp")  # TokenScores field order
_FILE_KEYS = ("pcp", "s_ri", "s_kn", "s_tr")  # a scores line's order after "id"
_SCORE_MAX = (float(np.finfo(np.float64).max), 1.0, 1.0, 1.0)  # s_ri sums attention weights under "sum" pooling
# Rows of one scoring forward: a pass costs ~250 us a call plus ~6.5 us a row
# on one core, so ~8 examples of 15-110 tokens share the call. It records no
# tape: a pack holds ~3.8 MiB of activations at the default ModelConfig.
PACK_ROWS = 512


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
    tokens = itertools.chain.from_iterable(ex.input_ids + ex.output_ids for ex in dataset)
    counts = np.bincount(np.fromiter(tokens, np.intp), minlength=params.config.vocab_size)
    present = np.nonzero(counts)[0]
    if source == "all_tokens":
        centroid = (counts[present].astype(np.float64) @ table[present]) / counts.sum()
    elif source == "unique_tokens":
        centroid = table[present].mean(axis=0)
    else:
        raise ValueError(f"unknown domain source {source!r}")
    distances = {int(t): _distance(table[t], centroid, metric) for t in present}
    values = list(distances.values())
    return DomainVector(centroid, distances, min(values), max(values))


def score_tr(domain: DomainVector, example: TokenizedExample) -> np.ndarray:
    """1 - min-max-normalized distance, clamped to [0, 1]. A degenerate
    distance table (all equal) scores every token 1: nothing is filterable."""
    try:
        dist = np.fromiter(map(domain.token_distances.__getitem__, example.output_ids), float, len(example.output_ids))
    except KeyError as exc:
        raise ConsistencyError(
            f"example {example.id!r}: token {exc.args[0]} missing from the domain table "
            "(scores and domain built from different datasets?)"
        ) from None
    span = domain.d_max - domain.d_min
    if span == 0.0:
        return np.ones(dist.size)
    s_tr = 1.0 - (dist - domain.d_min) / span
    return np.minimum(np.maximum(s_tr, 0.0, out=s_tr), 1.0, out=s_tr)


def _validate_example(params: ModelParams, ex: TokenizedExample) -> str | None:
    cfg = params.config
    if ex.l_input < 1:
        return "empty input"
    if not ex.output_ids:
        return "empty label"
    if ex.l_input + len(ex.output_ids) > cfg.max_seq:
        return f"sequence length {ex.l_input + len(ex.output_ids)} exceeds max_seq {cfg.max_seq}"
    if min(min(ex.input_ids), min(ex.output_ids)) < 0 or max(max(ex.input_ids), max(ex.output_ids)) >= cfg.vocab_size:
        return "token id outside the model vocabulary"
    return None


def _score_packs(
    pack_list: list[list[TokenizedExample]], params: ModelParams, domain: DomainVector, ri_agg: str
) -> tuple[list[TokenScores], list[tuple[str, str]]]:
    """Scores of the examples of `pack_list`, from one untaped forward per
    pack whose last block runs only from each example's row l_input - 1 on,
    and the (id, message) of each example that could not be scored."""
    scores: list[TokenScores] = []
    errors: list[tuple[str, str]] = []
    for pack in pack_list:
        lengths = [len(ex.tokens) for ex in pack]
        counts = [len(ex.output_ids) + 1 for ex in pack]  # the rows from l_input - 1 to the end
        rows = np.concatenate([np.arange(end - n, end) for n, end in zip(counts, np.cumsum(lengths).tolist())])
        logits, attn_maps = forward_tensors(params, [t for ex in pack for t in ex.tokens], lengths, rows)
        for i, (ex, n, part) in enumerate(zip(pack, counts, np.split(logits.value, np.cumsum(counts[:-1])))):
            trace = ForwardTrace(part, np.stack([b[i][:, -n:] for b in attn_maps]), ex.l_input - 1)
            try:
                s_tr = score_tr(domain, ex)
            except ConsistencyError as exc:
                errors.append((ex.id, str(exc)))
                continue
            s_ri = _ri_from_trace(trace, ex.l_input, len(ex.output_ids), ri_agg)
            pcp, s_kn = _kn_from_trace(trace, ex)
            scores.append(TokenScores(ex.id, s_ri, s_kn, s_tr, pcp))
    return scores, errors


def score_dataset(
    params: ModelParams,
    dataset: list[TokenizedExample],
    ri_agg: str = "mean",
    domain_source: str = "all_tokens",
    distance_metric: str = "euclidean",
) -> ScoreResult:
    """All three scores for every example, from one untaped forward per pack
    of at most PACK_ROWS rows (`data.packs`) whose last block runs only from
    each example's row l_input - 1 on; they equal the full pass's up to
    rounding.

    Invalid examples are skipped (collected with ids) rather than aborting
    the run, and the domain vector is built over the valid subset; with no
    valid example, InputError names the first's reason. The frozen params
    are never written to. The packs are scored in slices of about equal
    rows through `numerics.fan_out` (README, "Fanning out"), bitwise one
    loop over them. An unknown `ri_agg` raises ValueError before any work.
    """
    if ri_agg not in RI_AGGS:
        raise ValueError(f"ri_agg must be one of {', '.join(RI_AGGS)}, got {ri_agg!r}")
    problems = [_validate_example(params, ex) for ex in dataset]
    valid = [ex for ex, problem in zip(dataset, problems) if problem is None]
    errors = [(ex.id, problem) for ex, problem in zip(dataset, problems) if problem is not None]
    if errors and not valid:
        raise InputError(f"no example to score: {len(errors)} skipped, the first, {errors[0][0]!r}: {errors[0][1]}")
    domain = compute_domain_vector(params, valid, domain_source, distance_metric)
    pack_list = packs(valid, PACK_ROWS)
    sizes = [sum(len(ex.tokens) for ex in pack) for pack in pack_list]
    parts = fan_out(_score_packs, pack_list, sizes, params, domain, ri_agg)
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
        fields = [f'"id": {json.dumps(s.id)}'] + [f'"{key}": {_float_list(getattr(s, key))}' for key in _FILE_KEYS]
        lines.append("{" + ", ".join(fields) + "}")
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
