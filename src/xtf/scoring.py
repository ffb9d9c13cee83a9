"""Per-token scores measured with a frozen base model.

Three views of each label token: how much later positions attend to it
(reasoning importance), how confidently the base model already predicts it
(one minus that probability: knowledge novelty), and how close its
context-free embedding sits to the dataset centroid (task relevance).
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .data import TokenizedExample, fmt_float, write_atomic
from .model import ForwardTrace, InputError, ModelParams, forward
from .numerics import available_cores, die_with_parent, one_blas_thread, softmax_value

RI_AGGS = ("mean", "sum", "last_layer_mean")
DOMAIN_SOURCES = ("all_tokens", "unique_tokens")
DISTANCE_METRICS = ("euclidean", "cosine")
SCORE_KEYS = ("s_ri", "s_kn", "s_tr", "pcp")  # TokenScores field order


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
    """
    if agg not in RI_AGGS:
        raise ValueError(f"unknown ri aggregation {agg!r}")
    att = trace.attention if agg != "last_layer_mean" else trace.attention[-1:]
    seq = att.shape[-1]
    s_ri = np.empty(n_out)
    for k in range(n_out):
        p = l_input + k
        received = att[:, :, p + 1 :, p] if p + 1 < seq else att[:, :, p, p]
        # np.add.reduce is what `sum` computes, and divided by the size what
        # `mean` computes, without their wrappers
        total = np.add.reduce(received, axis=None)
        s_ri[k] = total if agg == "sum" else total / received.size
    return s_ri


def _kn_from_trace(trace: ForwardTrace, example: TokenizedExample) -> tuple[np.ndarray, np.ndarray]:
    probs = softmax_value(trace.logits, axis=-1)
    rows = np.arange(example.l_input - 1, example.l_input - 1 + len(example.output_ids))
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
    params: ModelParams, examples: list[TokenizedExample], domain: DomainVector, ri_agg: str
) -> tuple[list[TokenScores], list[tuple[str, str]]]:
    """Scores of `examples`, one forward pass each, and the (id, message)
    of each example that could not be scored."""
    scores: list[TokenScores] = []
    errors: list[tuple[str, str]] = []
    for ex in examples:
        try:
            trace = forward(params, ex.tokens)
            s_ri = _ri_from_trace(trace, ex.l_input, len(ex.output_ids), ri_agg)
            pcp, s_kn = _kn_from_trace(trace, ex)
            s_tr = score_tr(domain, ex)
        except (InputError, ConsistencyError) as exc:
            errors.append((ex.id, str(exc)))
            continue
        scores.append(TokenScores(ex.id, s_ri, s_kn, s_tr, pcp))
    return scores, errors


def _token_slices(examples: list[TokenizedExample], parts: int) -> list[tuple[int, int]]:
    """Bounds of at most `parts` contiguous, non-empty slices of `examples`,
    cut after the example at which the running token count first reaches
    each multiple of 1/`parts` of the total."""
    total = sum(len(ex.tokens) for ex in examples)
    bounds, seen = [0], 0
    for i, ex in enumerate(examples[:-1]):
        seen += len(ex.tokens)
        if seen * parts >= total * len(bounds):
            bounds.append(i + 1)
    return list(zip(bounds, bounds[1:] + [len(examples)]))


_helper_state: tuple = ()  # set only in a scoring helper, by its initializer


def _start_helper(*state) -> None:
    """Initializer of a scoring helper. Its state (the params, the valid
    examples, the domain vector and the RI pooling) comes with the process
    (inherited under fork), so only slice bounds are sent to it."""
    global _helper_state
    _helper_state = state
    die_with_parent()


def _score_helper_slice(start: int, stop: int) -> tuple[list[TokenScores], list[tuple[str, str]]]:
    """`_score_slice` of examples[start:stop], run in a helper."""
    params, examples, domain, ri_agg = _helper_state
    with one_blas_thread():
        return _score_slice(params, examples[start:stop], domain, ri_agg)


def _score_split(
    params: ModelParams,
    examples: list[TokenizedExample],
    domain: DomainVector,
    ri_agg: str,
    slices: list[tuple[int, int]],
) -> list[tuple[list[TokenScores], list[tuple[str, str]]]]:
    """`_score_slice` of every slice, in order: one helper process each
    scores all but the last, which this process scores meanwhile. The
    helpers have exited when this returns or raises."""
    import multiprocessing  # here, not at module level: only a split needs them
    from concurrent.futures import ProcessPoolExecutor

    # Linux's default context forks: a helper starts in milliseconds with the
    # state in place, where a spawned one would spend ~0.3 s importing numpy
    # and this package before unpickling the params and the examples
    state = (params, examples, domain, ri_agg)
    with ProcessPoolExecutor(
        len(slices) - 1, multiprocessing.get_context(), initializer=_start_helper, initargs=state
    ) as pool:
        helpers = [pool.submit(_score_helper_slice, start, stop) for start, stop in slices[:-1]]
        try:
            own = _score_slice(params, examples[slices[-1][0] :], domain, ri_agg)
        finally:
            # a helper's error, on an earlier slice, wins over this process's
            # as it would in one loop; `with` then waits for the helpers to exit
            parts = [helper.result() for helper in helpers]
    return parts + [own]


def score_dataset(
    params: ModelParams,
    dataset: list[TokenizedExample],
    ri_agg: str = "mean",
    domain_source: str = "all_tokens",
    distance_metric: str = "euclidean",
) -> ScoreResult:
    """All three scores for every example, one forward pass per example.

    Invalid examples are skipped (collected with ids) rather than aborting
    the run; the domain vector is built over the valid subset. The frozen
    params are never written to.

    The valid examples are cut into contiguous slices of about equal token
    counts, one per core this process may run on; forked helpers score all
    but the last while this process scores the last, each with BLAS at one
    thread. The result is bitwise that of one loop over the examples, and
    no helper outlives the call. With one core or one valid example, no
    process starts.
    """
    errors: list[tuple[str, str]] = []
    valid: list[TokenizedExample] = []
    for ex in dataset:
        problem = _validate_example(params, ex)
        if problem is None:
            valid.append(ex)
        else:
            errors.append((ex.id, problem))
    domain = compute_domain_vector(params, valid, domain_source, distance_metric)
    slices = _token_slices(valid, available_cores())
    with one_blas_thread():
        if len(slices) == 1:
            parts = [_score_slice(params, valid, domain, ri_agg)]
        else:
            parts = _score_split(params, valid, domain, ri_agg, slices)
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
    """Read a scores file. Each line needs a string id and four equal-length
    lists of finite numbers, and no id may repeat; otherwise InputError."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                sid = obj["id"]
                arrays = [np.array(obj[key], dtype=np.float64) for key in SCORE_KEYS]
            except KeyError as exc:
                raise InputError(f"{path}:{lineno}: missing key {exc}") from None
            except (ValueError, TypeError) as exc:
                raise InputError(f"{path}:{lineno}: {exc}") from None
            if not isinstance(sid, str):
                raise InputError(f"{path}:{lineno}: id {sid!r} is not a string")
            if any(a.ndim != 1 or a.size != arrays[0].size for a in arrays) or arrays[0].size == 0:
                raise InputError(
                    f"{path}:{lineno}: {', '.join(SCORE_KEYS)} of {sid!r} are not equal-length, non-empty lists"
                )
            out.append(TokenScores(sid, *arrays))
    values = [getattr(s, key) for s in out for key in SCORE_KEYS]
    if values and not np.isfinite(np.concatenate(values)).all():
        bad = next(s.id for s in out if not all(np.isfinite(getattr(s, key)).all() for key in SCORE_KEYS))
        raise InputError(f"{path}: non-finite score for {bad!r}")
    counts = Counter(s.id for s in out)
    if len(counts) != len(out):
        dup = next(i for i, n in counts.items() if n > 1)
        raise InputError(f"{path}: id {dup!r} appears more than once")
    return out
