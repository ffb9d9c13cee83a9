"""Turn token scores into noise masks.

Three rules, one per attribute: a per-sentence lower quantile fence on the
attention scores, a fixed cutoff on novelty scores, and a dataset-global
multi-level Otsu partition of the relevance scores whose second-lowest-mean
class gets flagged. The noise set is the union, with per-token attribution
of which rules fired.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain, combinations
from typing import Iterable, NamedTuple

import numpy as np

from .data import write_atomic
from .model import InputError
from .scoring import TokenScores

ATTRIBUTES = ("RI", "KN", "TR")


@dataclass(frozen=True)
class FilterConfig:
    kn_cutoff: float = 0.05
    otsu_classes: int = 3
    otsu_bins: int = 256
    enabled: tuple[str, ...] = ATTRIBUTES
    # scopes are fixed by design: RI per sentence, KN per token, TR dataset-global

    def __post_init__(self):
        if not 0.0 < self.kn_cutoff < 1.0:
            raise ValueError(f"kn_cutoff must be in (0, 1), got {self.kn_cutoff}")
        if self.otsu_classes < 2:
            raise ValueError("otsu_classes must be >= 2")
        if self.otsu_bins < self.otsu_classes:
            raise ValueError("otsu_bins must be >= otsu_classes")
        for attr in self.enabled:
            if attr not in ATTRIBUTES:
                raise ValueError(f"unknown attribute {attr!r}")


@dataclass
class NoiseMask:
    """Per-label-token noise flags with the attributes that caused each one."""

    id: str
    noise: list[bool]
    sources: list[tuple[str, ...]]

    def n_flagged(self) -> int:
        return sum(self.noise)


@dataclass
class FilterStats:
    otsu_thresholds: tuple[float, ...] | None = None
    otsu_between_var: float = 0.0
    otsu_class_means: list[float] = field(default_factory=list)
    per_attribute_counts: dict[str, int] = field(default_factory=dict)
    total_tokens: int = 0
    flagged_tokens: int = 0
    overlap: dict[str, dict[str, float]] = field(default_factory=dict)


def quantile(values, q: float) -> float:
    """Linear interpolation between order statistics, q in [0, 100]."""
    arr = np.sort(np.asarray(values, dtype=np.float64))
    if arr.size == 0:
        raise ValueError("quantile of empty array")
    pos = (arr.size - 1) * (q / 100.0)
    lo = int(np.floor(pos))
    hi = min(lo + 1, arr.size - 1)
    frac = pos - lo
    return float(arr[lo] + (arr[hi] - arr[lo]) * frac)


def filter_ri(s_ri) -> set[int]:
    """Indices strictly below the per-sentence lower fence Q1 - (Q3 - Q1)."""
    arr = np.asarray(s_ri, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("filter_ri needs a non-empty score array")
    q1 = quantile(arr, 25.0)
    q3 = quantile(arr, 75.0)
    tau = q1 - (q3 - q1)
    return {k for k in range(arr.size) if arr[k] < tau}


def filter_kn(s_kn, cutoff: float = 0.05) -> set[int]:
    """Indices with novelty strictly below the cutoff (token already known)."""
    if not 0.0 < cutoff < 1.0:
        raise ValueError(f"cutoff must be in (0, 1), got {cutoff}")
    arr = np.asarray(s_kn, dtype=np.float64)
    return {k for k in range(arr.size) if arr[k] < cutoff}


class OtsuResult(NamedTuple):
    thresholds: tuple[float, ...] | None  # None: degenerate, no partition exists
    between_var: float


def multi_otsu(values, k: int = 3, bins: int = 256) -> OtsuResult:
    """Exhaustive multi-level Otsu over an equal-width histogram.

    Maximizes the between-class variance over all strictly increasing
    (k-1)-tuples of bin boundaries; ties resolve to the lexicographically
    smallest tuple; empty classes contribute zero. All-identical input has
    no usable partition and returns the None sentinel.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("multi_otsu needs a non-empty value pool")
    if k < 2:
        raise ValueError("need at least 2 classes")
    vmin, vmax = float(arr.min()), float(arr.max())
    if vmin == vmax:
        return OtsuResult(None, 0.0)
    counts, edges = np.histogram(arr, bins=bins, range=(vmin, vmax))
    centers = (edges[:-1] + edges[1:]) / 2.0
    p = counts / counts.sum()
    # prefix[i] = sum over bins < i, accumulated in bin order
    w_prefix = np.concatenate(([0.0], np.cumsum(p)))
    m_prefix = np.concatenate(([0.0], np.cumsum(p * centers)))
    mu_total = m_prefix[-1]

    def class_var(lo, hi):
        """w (mu - mu_total)^2 of the class of bins [lo, hi), 0 if empty;
        `lo` and `hi` may be index arrays."""
        w = w_prefix[hi] - w_prefix[lo]
        with np.errstate(divide="ignore", invalid="ignore"):
            diff = (m_prefix[hi] - m_prefix[lo]) / w - mu_total
        return np.where(w > 0.0, w * diff * diff, 0.0)

    def last_cut_vars(lead: tuple[int, ...]) -> np.ndarray:
        """Between-class variance of `lead` plus each possible last cut,
        summed class by class from the lowest."""
        sigma, lo = 0.0, 0
        for c in lead:
            sigma = sigma + class_var(lo, c + 1)
            lo = c + 1
        hi = np.arange(lo + 1, bins)
        return sigma + class_var(lo, hi) + class_var(hi, bins)

    # The leading k-2 cuts run in lexicographic order and the last cut is a
    # vector, so the concatenation is in lexicographic order. Take its first
    # tuple within a relative roundoff band of the maximum: partitions equal
    # as set partitions (cuts through empty bins) differ only by roundoff.
    leads = list(combinations(range(bins - 2), k - 2))
    per_lead = [last_cut_vars(lead) for lead in leads]
    sigmas = np.concatenate(per_lead)
    best_sigma = sigmas.max()
    tol = 1e-12 * max(1.0, best_sigma)
    idx = int(np.argmax(sigmas >= best_sigma - tol))
    rest = idx
    for lead, row in zip(leads, per_lead):
        if rest < row.size:
            break
        rest -= row.size
    cuts = lead + ((lead[-1] + 1 if lead else 0) + rest,)
    return OtsuResult(tuple(float(edges[c + 1]) for c in cuts), sigmas[idx])


def otsu_classify(values, thresholds) -> np.ndarray:
    """Class index per value: the count of thresholds <= value."""
    return np.searchsorted(np.asarray(thresholds), np.asarray(values, dtype=np.float64), side="right")


def filter_tr(
    per_example: list[tuple[str, np.ndarray]],
    k: int = 3,
    bins: int = 256,
) -> tuple[dict[str, set[int]], OtsuResult, list[float]]:
    """Dataset-global relevance filter.

    Pools every relevance score, partitions the pool with multi-level Otsu,
    orders the non-empty classes by mean, and flags the tokens in the class
    with the second smallest mean. Degenerate pools flag nothing.
    """
    ids = [ex_id for ex_id, _ in per_example]
    arrays = [np.asarray(arr, dtype=np.float64) for _, arr in per_example]
    flagged: dict[str, set[int]] = {ex_id: set() for ex_id in ids}
    if not arrays:
        return flagged, OtsuResult(None, 0.0), []
    pool = np.concatenate(arrays)
    result = multi_otsu(pool, k=k, bins=bins)
    if result.thresholds is None:
        return flagged, result, []
    classes = otsu_classify(pool, result.thresholds)
    class_means = []
    for c in range(k):
        members = pool[classes == c]
        class_means.append(float(members.mean()) if members.size else float("nan"))
    nonempty = [c for c in range(k) if not np.isnan(class_means[c])]
    if len(nonempty) < 2:
        return flagged, result, class_means
    target = sorted(nonempty, key=lambda c: class_means[c])[1]
    offset = 0
    for ex_id, arr in zip(ids, arrays):
        cls = classes[offset : offset + arr.size]
        flagged[ex_id] = {int(i) for i in np.nonzero(cls == target)[0]}
        offset += arr.size
    return flagged, result, class_means


def union_mask(ri_set: set[int], kn_set: set[int], tr_set: set[int], n_tokens: int, example_id: str) -> NoiseMask:
    """Union of the three index sets with lossless per-token attribution."""
    for s in (ri_set, kn_set, tr_set):
        if s and (min(s) < 0 or max(s) >= n_tokens):
            raise ValueError(f"example {example_id!r}: filter index out of range")
    noise = []
    sources = []
    for kidx in range(n_tokens):
        attrs = tuple(
            a for a, s in zip(ATTRIBUTES, (ri_set, kn_set, tr_set)) if kidx in s
        )
        sources.append(attrs)
        noise.append(bool(attrs))
    return NoiseMask(example_id, noise, sources)


def apply_filters(scores: list[TokenScores], config: FilterConfig) -> tuple[list[NoiseMask], FilterStats]:
    """Run the enabled per-attribute rules over a scored dataset."""
    stats = FilterStats(per_attribute_counts={a: 0 for a in ATTRIBUTES})
    if "TR" in config.enabled:
        tr_sets, otsu_result, class_means = filter_tr(
            [(s.id, s.s_tr) for s in scores], k=config.otsu_classes, bins=config.otsu_bins
        )
        stats.otsu_thresholds = otsu_result.thresholds
        stats.otsu_between_var = otsu_result.between_var
        stats.otsu_class_means = class_means
    else:
        tr_sets = {s.id: set() for s in scores}

    masks: list[NoiseMask] = []
    for s in scores:
        ri_set = filter_ri(s.s_ri) if "RI" in config.enabled else set()
        kn_set = filter_kn(s.s_kn, config.kn_cutoff) if "KN" in config.enabled else set()
        mask = union_mask(ri_set, kn_set, tr_sets[s.id], s.n_tokens(), s.id)
        masks.append(mask)
        stats.per_attribute_counts["RI"] += len(ri_set)
        stats.per_attribute_counts["KN"] += len(kn_set)
        stats.per_attribute_counts["TR"] += len(tr_sets[s.id])
        stats.total_tokens += s.n_tokens()
        stats.flagged_tokens += mask.n_flagged()
    stats.overlap = complementarity_report(masks)["overlap"]
    return masks, stats


def complementarity_report(masks: list[NoiseMask]) -> dict:
    """Marginal filter rates and the ordered pairwise overlap matrix.

    marginal[A] is the fraction of all label tokens attribute A flags;
    overlap[A][B] is the fraction of A's tokens that B also flags.
    """
    total = 0
    flagged_by = {a: 0 for a in ATTRIBUTES}
    pair = {a: {b: 0 for b in ATTRIBUTES} for a in ATTRIBUTES}
    for mask in masks:
        total += len(mask.noise)
        for attrs in mask.sources:
            for a in attrs:
                flagged_by[a] += 1
                for b in attrs:
                    pair[a][b] += 1
    marginal = {a: (flagged_by[a] / total if total else 0.0) for a in ATTRIBUTES}
    overlap = {
        a: {
            b: (pair[a][b] / flagged_by[a] if flagged_by[a] else 0.0)
            for b in ATTRIBUTES
            if b != a
        }
        for a in ATTRIBUTES
    }
    return {"total_tokens": total, "marginal": marginal, "overlap": overlap}


class UnsupportedOperation(RuntimeError):
    """The data cannot support the requested report."""


def filter_quality(masks, examples) -> dict:
    """Precision/recall of noise masks against ground-truth flags.

    Empty predictions score precision 1 by convention. Per-attribute rows
    treat "flagged with attribute A among its sources" as that attribute's
    prediction.
    """
    by_id = {ex.id: ex for ex in examples}
    if not any(ex.noise is not None for ex in by_id.values()):
        raise UnsupportedOperation("dataset carries no ground-truth noise flags")

    def prf(tp: int, fp: int, fn: int) -> dict:
        precision = 1.0 if tp + fp == 0 else tp / (tp + fp)
        recall = 0.0 if tp + fn == 0 else tp / (tp + fn)
        return {"tp": tp, "fp": fp, "fn": fn, "precision": precision, "recall": recall}

    counts = {key: {"tp": 0, "fp": 0, "fn": 0} for key in ("overall", *ATTRIBUTES)}
    for mask in masks:
        ex = by_id.get(mask.id)
        if ex is None or ex.noise is None:
            continue
        for truth, flagged, sources in zip(ex.noise, mask.noise, mask.sources):
            for key, hit in (("overall", flagged), *((a, a in sources) for a in ATTRIBUTES)):
                if hit or truth:
                    counts[key]["tp" if hit and truth else "fp" if hit else "fn"] += 1
    return {key: prf(**c) for key, c in counts.items()}


def histogram_rows(values, bins: int = 64) -> list[tuple[float, float, int]]:
    """(bin_left, bin_right, count) rows for score-distribution exports."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return []
    vmin, vmax = float(arr.min()), float(arr.max())
    if vmin == vmax:
        vmax = vmin + 1.0
    counts, edges = np.histogram(arr, bins=bins, range=(vmin, vmax))
    return [(float(edges[i]), float(edges[i + 1]), int(counts[i])) for i in range(bins)]


# ---------------------------------------------------------------------------
# Mask / stats files
# ---------------------------------------------------------------------------


def save_masks(masks: Iterable[NoiseMask], path) -> None:
    lines = [
        json.dumps({"id": m.id, "noise": m.noise, "sources": [list(s) for s in m.sources]})
        for m in masks
    ]
    write_atomic(path, "\n".join(lines) + "\n")


def load_masks(path) -> list[NoiseMask]:
    """Read a masks file. Each line needs a string id, a list of boolean
    `noise` flags and a `sources` list, of the same length, of lists of
    attribute names, and no id may repeat; otherwise InputError."""
    masks = []
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                mid, noise, sources = obj["id"], obj["noise"], obj["sources"]
            except KeyError as exc:
                raise InputError(f"{path}:{lineno}: missing key {exc}") from None
            except (ValueError, TypeError) as exc:
                raise InputError(f"{path}:{lineno}: {exc}") from None
            if not isinstance(mid, str):
                raise InputError(f"{path}:{lineno}: id {mid!r} is not a string")
            if mid in seen:
                raise InputError(f"{path}:{lineno}: id {mid!r} appears more than once")
            if not isinstance(noise, list) or not all(type(f) is bool for f in noise):
                raise InputError(f"{path}:{lineno}: noise of {mid!r} is not a list of booleans")
            if not isinstance(sources, list) or not (
                all(isinstance(s, list) for s in sources) and all(a in ATTRIBUTES for a in chain.from_iterable(sources))
            ):
                raise InputError(f"{path}:{lineno}: sources of {mid!r} is not a list of lists of {', '.join(ATTRIBUTES)}")
            if len(sources) != len(noise):
                raise InputError(
                    f"{path}:{lineno}: {mid!r} has {len(noise)} noise flags but {len(sources)} sources"
                )
            seen.add(mid)
            masks.append(NoiseMask(mid, noise, [tuple(s) for s in sources]))
    return masks


def save_stats(stats: FilterStats, path) -> None:
    payload = {
        "otsu_thresholds": list(stats.otsu_thresholds) if stats.otsu_thresholds else None,
        "otsu_between_var": stats.otsu_between_var,
        "otsu_class_means": stats.otsu_class_means,
        "per_attribute_counts": stats.per_attribute_counts,
        "total_tokens": stats.total_tokens,
        "flagged_tokens": stats.flagged_tokens,
        "overlap": stats.overlap,
    }
    write_atomic(path, json.dumps(payload, indent=2) + "\n")
