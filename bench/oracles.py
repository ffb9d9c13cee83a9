"""Independent referees for the benchmark's output checks.

Each oracle recomputes a result of the program by a route of its own (plain
hashing, numpy quantiles, a vectorised variance grid, array ops on a raw
forward pass, a plain greedy loop), and each `check_*` function raises
`CheckFailure` with a one-line reason when the program's output disagrees.
Nothing here compares against a stored copy of earlier output.
"""

from __future__ import annotations

import hashlib

import numpy as np


class CheckFailure(AssertionError):
    """A program output disagrees with its oracle or breaks a property."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailure(message)


# ---------------------------------------------------------------------------
# Deterministic split: rank of sha256(id), then exact counts.
# ---------------------------------------------------------------------------


def rebuild_split(ids: list[str], counts: tuple[int, int, int]) -> tuple[list[str], list[str], list[str]]:
    """(train, val, test) ids, ordered by the sha256 hex digest of each id
    (ties by the id itself)."""
    require(sum(counts) == len(ids), f"split counts {counts} do not cover {len(ids)} ids")
    ranked = sorted(ids, key=lambda i: (hashlib.sha256(i.encode("utf-8")).hexdigest(), i))
    a, b = counts[0], counts[0] + counts[1]
    return ranked[:a], ranked[a:b], ranked[b:]


# ---------------------------------------------------------------------------
# RI rule: per-sentence lower fence Q1 - (Q3 - Q1), flags strictly below.
# ---------------------------------------------------------------------------


def ri_fence_flags(s_ri: np.ndarray) -> np.ndarray:
    q1, q3 = np.quantile(np.asarray(s_ri, dtype=np.float64), [0.25, 0.75])
    return np.asarray(s_ri) < q1 - (q3 - q1)


def check_ri_flags(s_ri: np.ndarray, sources, example_id: str) -> None:
    expected = ri_fence_flags(s_ri)
    got = np.array(["RI" in s for s in sources], dtype=bool)
    require(
        got.shape == expected.shape and bool(np.all(got == expected)),
        f"{example_id}: RI flags differ from the np.quantile fence",
    )


def check_kn_flags(s_kn: np.ndarray, sources, cutoff: float, example_id: str) -> None:
    expected = np.asarray(s_kn) < cutoff
    got = np.array(["KN" in s for s in sources], dtype=bool)
    require(
        got.shape == expected.shape and bool(np.all(got == expected)),
        f"{example_id}: KN flags differ from s_kn < {cutoff}",
    )


# ---------------------------------------------------------------------------
# Multi-level Otsu (k = 2 or 3): between-class variance over every cut tuple.
# ---------------------------------------------------------------------------


def otsu_histogram(values: np.ndarray, bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Bin probabilities and edges of the equal-width histogram on [min, max]."""
    arr = np.asarray(values, dtype=np.float64)
    counts, edges = np.histogram(arr, bins=bins, range=(float(arr.min()), float(arr.max())))
    return counts / counts.sum(), edges


def otsu_variance_grid(values: np.ndarray, k: int, bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Between-class variance for every strictly increasing cut tuple.

    A cut c ends a class after bin c. Returns the variance array (1-D over c
    for k = 2, 2-D over (c1, c2) with -inf where c1 >= c2 for k = 3) and the
    histogram edges."""
    p, edges = otsu_histogram(values, bins)
    centers = (edges[:-1] + edges[1:]) / 2.0
    w = np.concatenate([[0.0], np.cumsum(p)])
    m = np.concatenate([[0.0], np.cumsum(p * centers)])
    mu = m[-1]

    def term(lo, hi):
        wc = w[hi] - w[lo]
        with np.errstate(invalid="ignore", divide="ignore"):
            diff = (m[hi] - m[lo]) / wc - mu
        return np.where(wc > 0.0, wc * diff * diff, 0.0)

    cuts = np.arange(bins - 1)
    if k == 2:
        return term(0, cuts + 1) + term(cuts + 1, bins), edges
    if k == 3:
        c1 = cuts[:, None]
        c2 = cuts[None, :]
        grid = term(0, c1 + 1) + term(c1 + 1, c2 + 1) + term(c2 + 1, bins)
        return np.where(c1 < c2, grid, -np.inf), edges
    raise ValueError("the Otsu oracle covers k = 2 and k = 3")


def check_otsu(values: np.ndarray, thresholds, k: int, bins: int, rel_tol: float = 1e-12) -> float:
    """The thresholds must sit on histogram edges and reach the largest
    between-class variance of any cut tuple. Returns that maximum."""
    require(thresholds is not None and len(thresholds) == k - 1, "Otsu thresholds missing")
    grid, edges = otsu_variance_grid(values, k, bins)
    cuts = []
    for t in thresholds:
        hit = np.flatnonzero(edges[1:-1] == t)
        require(hit.size == 1, f"Otsu threshold {t!r} is not an interior histogram edge")
        cuts.append(int(hit[0]))
    require(cuts == sorted(set(cuts)), "Otsu thresholds are not strictly increasing")
    best = float(np.max(grid))
    reached = float(grid[tuple(cuts)])
    require(
        reached >= best - rel_tol * max(1.0, abs(best)),
        f"Otsu cuts reach variance {reached!r}, below the oracle maximum {best!r}",
    )
    return best


def tr_flags(pool: np.ndarray, thresholds, k: int) -> np.ndarray:
    """Flag the class with the second-lowest mean among the non-empty classes."""
    edges = np.asarray(thresholds, dtype=np.float64)
    classes = (pool[:, None] >= edges[None, :]).sum(axis=1)
    means = {c: float(pool[classes == c].mean()) for c in range(k) if np.any(classes == c)}
    if len(means) < 2:
        return np.zeros(pool.size, dtype=bool)
    target = sorted(means, key=means.get)[1]
    return classes == target


# ---------------------------------------------------------------------------
# Scores recomputed from one untaped forward pass, by array ops.
# ---------------------------------------------------------------------------


def recompute_ri_pcp(attention: np.ndarray, logits: np.ndarray, l_input: int, label_ids) -> tuple[np.ndarray, np.ndarray]:
    """s_ri (mean attention received from strictly later queries; the last
    token uses its own self-attention) and teacher-forced pcp.

    attention is (layers, heads, seq, seq); logits is (seq, vocab)."""
    label_ids = np.asarray(label_ids, dtype=np.intp)
    n_out = label_ids.size
    seq = attention.shape[-1]
    cols = l_input + np.arange(n_out)
    later = np.arange(seq)[:, None] > cols[None, :]  # (seq, n_out): query q after key p
    recv = attention[:, :, :, cols]  # (L, H, seq, n_out)
    n_later = later.sum(axis=0)
    s_ri = np.where(later, recv, 0.0).sum(axis=(0, 1, 2))
    s_ri = s_ri / np.maximum(n_later * attention.shape[0] * attention.shape[1], 1)
    own = attention[:, :, cols, cols].mean(axis=(0, 1))
    s_ri = np.where(n_later > 0, s_ri, own)

    rows = l_input - 1 + np.arange(n_out)
    z = logits[rows] - logits[rows].max(axis=1, keepdims=True)
    probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    pcp = probs[np.arange(n_out), label_ids]
    return s_ri, pcp


def check_close(got: np.ndarray, expected: np.ndarray, tol: float, what: str) -> None:
    got = np.asarray(got, dtype=np.float64)
    require(got.shape == expected.shape, f"{what}: shape {got.shape} != {expected.shape}")
    err = float(np.max(np.abs(got - expected))) if got.size else 0.0
    require(err <= tol, f"{what}: deviates from the recomputation by {err:.3e} > {tol:g}")


# ---------------------------------------------------------------------------
# Greedy exact match by a plain full-forward loop, without early exit.
# ---------------------------------------------------------------------------


def greedy_continuation(logits_fn, prefix, eos_id: int, max_new: int, max_seq: int) -> list[int]:
    """Greedy tokens after `prefix` from full forward passes, up to and
    including EOS, at most `max_new` of them and never past `max_seq`.
    `logits_fn(tokens)` returns the (seq, vocab) logits of one forward pass."""
    seq = list(prefix)
    produced: list[int] = []
    while len(produced) < max_new and len(seq) < max_seq:
        nxt = int(np.argmax(logits_fn(seq)[-1]))
        produced.append(nxt)
        if nxt == eos_id:
            break
        seq.append(nxt)
    return produced


def greedy_exact_match(logits_fn, examples, eos_id: int, max_seq: int) -> float:
    """Share of examples whose greedy continuation is exactly the label
    (trailing EOS stripped) followed by EOS, without early exit."""
    correct = 0
    for ex in examples:
        target = list(ex.output_ids)
        if target and target[-1] == eos_id:
            target = target[:-1]
        want = target + [eos_id]
        correct += int(greedy_continuation(logits_fn, ex.input_ids, eos_id, len(want), max_seq) == want)
    return correct / len(examples)
