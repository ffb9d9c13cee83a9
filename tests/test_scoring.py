import dataclasses
import multiprocessing
import os
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import TINY, _children, fork_only, randomize_params
from xtf import numerics as nm, scoring
from xtf.data import TokenizedExample, gen_synth, packs, tokenize
from xtf.model import InputError, ModelConfig, init, forward, forward_tensors
from xtf.numerics import ContractError, balanced_cuts, one_blas_thread, softmax_value
from xtf.training import TrainConfig, prepare_base
from xtf.scoring import (
    DISTANCE_METRICS,
    DOMAIN_SOURCES,
    PACK_ROWS,
    RI_AGGS,
    SCORE_KEYS,
    ConsistencyError,
    DomainVector,
    _kn_from_trace,
    _ri_from_trace,
    compute_domain_vector,
    load_scores,
    save_scores,
    score_dataset,
    score_tr,
)


def _example(inp, out, ex_id="x"):
    return TokenizedExample(ex_id, list(inp), list(out))


def test_score_ri_single_label_token(tiny_params):
    ex = _example([1, 2, 3], [4])
    trace = forward(tiny_params, ex.tokens)
    s_ri = _ri_from_trace(trace, ex.l_input, 1, "mean")
    assert s_ri.shape == (1,)
    expected = trace.attention[:, :, 3, 3].mean()
    assert s_ri[0] == pytest.approx(expected, abs=1e-15)
    assert 0.0 < s_ri[0] <= 1.0


def test_score_ri_matches_loop_oracle(tiny_params):
    # 2 layers, 2 heads, 5-token sequence: average by explicit loops
    ex = _example([1, 2], [3, 4, 5])
    trace = forward(tiny_params, ex.tokens)
    s_ri = _ri_from_trace(trace, ex.l_input, 3, "mean")
    n_layers, n_heads, s, _ = trace.attention.shape
    for k in range(3):
        p = 2 + k
        vals = []
        for layer in range(n_layers):
            for head in range(n_heads):
                if p + 1 < s:
                    for q in range(p + 1, s):
                        vals.append(trace.attention[layer, head, q, p])
                else:
                    vals.append(trace.attention[layer, head, p, p])
        assert s_ri[k] == pytest.approx(np.mean(vals), abs=1e-12)


def test_score_ri_range_and_aggs(tiny_params):
    ex = _example([1, 2, 3], [4, 5, 6, 7])
    trace = forward(tiny_params, ex.tokens)
    for agg in ("mean", "last_layer_mean"):
        s_ri = _ri_from_trace(trace, ex.l_input, 4, agg)
        assert np.all(s_ri >= 0.0) and np.all(s_ri <= 1.0)
    assert np.all(_ri_from_trace(trace, ex.l_input, 4, "sum") >= 0.0)
    with pytest.raises(ValueError, match="ri_agg"):  # checked once, up front
        score_dataset(tiny_params, [ex], ri_agg="median")


def _ri_by_mean(attention, l_input, n_out, agg):
    att = attention if agg != "last_layer_mean" else attention[-1:]
    seq = att.shape[-1]
    out = []
    for p in range(l_input, l_input + n_out):
        received = att[:, :, p + 1 :, p] if p + 1 < seq else att[:, :, p, p]
        out.append(received.sum() if agg == "sum" else received.mean())
    return np.array(out)


def test_ri_pooling_is_bitwise_the_mean_formula():
    # a trace of query rows `first` on holds the same values in the same
    # order as the full one, so it pools bitwise alike
    rng = np.random.default_rng(12)
    for _ in range(120):
        n_layers, n_heads, seq = int(rng.integers(1, 4)), int(rng.integers(1, 5)), int(rng.integers(2, 120))
        attention = softmax_value(rng.normal(scale=3.0, size=(n_layers, n_heads, seq, seq)))
        l_input = int(rng.integers(1, seq))
        for first in {0, l_input - 1, int(rng.integers(0, l_input + 1))}:
            trace = SimpleNamespace(attention=attention[:, :, first:], first=first)
            for agg in RI_AGGS:
                got = _ri_from_trace(trace, l_input, seq - l_input, agg)
                want = _ri_by_mean(attention, l_input, seq - l_input, agg)
                assert got.tobytes() == want.tobytes(), (seq, first, agg)


def test_score_kn_uniform_logits():
    # zeroed embeddings with tied output give exactly uniform predictions
    params = init(TINY)
    params["tok_emb"].value[...] = 0.0
    ex = _example([1, 2], [3, 4])
    pcp, s_kn = _kn_from_trace(forward(params, ex.tokens), ex)
    np.testing.assert_allclose(pcp, 1.0 / TINY.vocab_size, atol=1e-12)
    np.testing.assert_allclose(s_kn, 1.0 - 1.0 / TINY.vocab_size, atol=1e-12)


def test_score_kn_definitional_identity(tiny_generic_params):
    ex = _example([1, 2, 3], [4, 5, 6, 7])
    pcp, s_kn = _kn_from_trace(forward(tiny_generic_params, ex.tokens), ex)
    assert np.all(s_kn + pcp == 1.0)
    assert np.all((pcp >= 0.0) & (pcp <= 1.0))


def test_score_kn_matches_manual_softmax(tiny_generic_params):
    ex = _example([1, 2, 3], [4, 5])
    trace = forward(tiny_generic_params, ex.tokens)
    pcp, _ = _kn_from_trace(trace, ex)
    for k, tok in enumerate(ex.output_ids):
        row = softmax_value(trace.logits[ex.l_input + k - 1])
        assert pcp[k] == pytest.approx(row[tok], abs=1e-15)


def test_forward_from_a_row_holds_those_rows_of_the_full_pass(tiny_generic_params):
    tokens = [1, 2, 3, 4, 5, 6, 7]
    full = forward(tiny_generic_params, tokens)
    assert full.first == 0
    for first in range(1, len(tokens)):
        trace = forward(tiny_generic_params, tokens, first)
        n = len(tokens) - first
        assert trace.first == first and trace.logits.shape == (n, TINY.vocab_size)
        assert trace.attention.shape == (TINY.n_layers, TINY.n_heads, n, len(tokens))
        # the layers before the last run every row, as the full pass does
        assert trace.attention[:-1].tobytes() == full.attention[:-1, :, first:].tobytes()
        np.testing.assert_allclose(trace.attention[-1], full.attention[-1, :, first:], rtol=0, atol=1e-12)
        np.testing.assert_allclose(trace.logits, full.logits[first:], rtol=0, atol=1e-12)
    for first in (-1, len(tokens), len(tokens) + 3):
        with pytest.raises(ContractError, match="first"):
            forward(tiny_generic_params, tokens, first)


def _edge_examples(config, rng):
    """An input of one token (the full pass itself), a single label token, a
    sequence of exactly max_seq tokens, and a label that is most of one."""
    ids = lambda n: rng.integers(0, config.vocab_size, n).tolist()
    return [
        _example(ids(1), ids(4), "one-token-input"),
        _example(ids(5), ids(1), "one-label-token"),
        _example(ids(4), ids(config.max_seq - 4), "max-seq"),
        _example(ids(2), ids(config.max_seq - 5), "mostly-label"),
    ]


@pytest.fixture(scope="module")
def trained_corpus():
    config = ModelConfig(d_model=16, d_ff=32, seed=3)
    params = prepare_base(config, TrainConfig(batch_size=16), 4, 4, task_size=60, background_size=10)
    dataset = [tokenize(r) for r in gen_synth("addition", 40, 0.5, 5)]
    return params, dataset + _edge_examples(config, np.random.default_rng(6))


@pytest.mark.parametrize("agg", RI_AGGS)
@pytest.mark.parametrize("trained", [False, True], ids=["random", "trained"])
def test_label_row_scores_equal_the_full_pass(agg, trained, trained_corpus):
    """Scoring packs examples into one forward whose last block runs from
    each example's row l_input - 1 on; its s_ri, s_kn and pcp match pooling
    over a full forward pass, and the per-example label-row pass, within
    1e-12 absolute, the bench oracle's tolerance. A one-example pack with
    l_input 1 is the full pass, bitwise."""
    if trained:
        params, dataset = trained_corpus
    else:
        params = randomize_params(init(TINY), seed=21)
        dataset = _random_dataset(22, n=40) + _edge_examples(TINY, np.random.default_rng(23))
    domain = compute_domain_vector(params, dataset)
    scores, errors = scoring._score_packs(packs(dataset, PACK_ROWS), params, domain, agg)
    assert errors == [] and len(scores) == len(dataset)
    assert len(packs(dataset, PACK_ROWS)) == (3 if trained else 1)
    for ex, got in zip(dataset, scores):
        n_out, rows = len(ex.output_ids), ex.l_input - 1 + np.arange(len(ex.output_ids))
        full, label_rows = forward(params, ex.tokens), forward(params, ex.tokens, ex.l_input - 1)
        pcp_full = softmax_value(full.logits, axis=-1)[rows, ex.output_ids]
        pcp_rows = softmax_value(label_rows.logits, axis=-1)[rows - label_rows.first, ex.output_ids]
        wants = {
            "full": (_ri_by_mean(full.attention, ex.l_input, n_out, agg), pcp_full),
            "label-row": (_ri_from_trace(label_rows, ex.l_input, n_out, agg), pcp_rows),
        }
        for name, (s_ri, pcp) in wants.items():
            for key, value in zip(("s_ri", "pcp", "s_kn"), (s_ri, pcp, 1.0 - pcp)):
                np.testing.assert_allclose(
                    getattr(got, key), value, rtol=0, atol=1e-12, err_msg=f"{ex.id} {key} against the {name} pass"
                )
        if ex.l_input == 1:
            (alone,), _ = scoring._score_packs([[ex]], params, domain, agg)
            s_ri, pcp = wants["full"]
            for key, value in zip(("s_ri", "pcp", "s_kn"), (s_ri, pcp, 1.0 - pcp)):
                assert getattr(alone, key).tobytes() == value.tobytes(), (ex.id, key)


def test_domain_vector_single_token_dataset(tiny_params):
    dataset = [_example([3], [3], "a"), _example([3, 3], [3], "b")]
    domain = compute_domain_vector(tiny_params, dataset)
    np.testing.assert_allclose(domain.centroid, tiny_params["tok_emb"].value[3], atol=1e-15)
    assert domain.token_distances == {3: 0.0}
    assert domain.d_min == domain.d_max == 0.0


def test_domain_vector_two_token_symmetry(tiny_params):
    dataset = [_example([1], [2], "a"), _example([2], [1], "b")]
    domain = compute_domain_vector(tiny_params, dataset)
    e1 = tiny_params["tok_emb"].value[1]
    e2 = tiny_params["tok_emb"].value[2]
    np.testing.assert_allclose(domain.centroid, (e1 + e2) / 2, atol=1e-15)
    half_gap = np.linalg.norm(e1 - e2) / 2
    assert domain.token_distances[1] == pytest.approx(half_gap, abs=1e-12)
    assert domain.token_distances[2] == pytest.approx(half_gap, abs=1e-12)


def test_domain_vector_matches_two_pass_oracle(tiny_params):
    rng = np.random.default_rng(5)
    dataset = []
    for i in range(20):
        n_in = int(rng.integers(1, 5))
        n_out = int(rng.integers(1, 5))
        dataset.append(
            _example(
                rng.integers(0, TINY.vocab_size, n_in).tolist(),
                rng.integers(0, TINY.vocab_size, n_out).tolist(),
                f"r{i}",
            )
        )
    domain = compute_domain_vector(tiny_params, dataset)
    total = np.zeros(TINY.d_model)
    count = 0
    for ex in dataset:
        for tok in ex.tokens:
            total += tiny_params["tok_emb"].value[tok]
            count += 1
    np.testing.assert_allclose(domain.centroid, total / count, atol=1e-12)


def test_domain_vector_unique_source(tiny_params):
    dataset = [_example([1, 1, 1, 1], [2], "a")]
    domain = compute_domain_vector(tiny_params, dataset, source="unique_tokens")
    e1 = tiny_params["tok_emb"].value[1]
    e2 = tiny_params["tok_emb"].value[2]
    np.testing.assert_allclose(domain.centroid, (e1 + e2) / 2, atol=1e-15)


def test_domain_vector_empty_dataset_rejected(tiny_params):
    from xtf.model import InputError

    with pytest.raises(InputError):
        compute_domain_vector(tiny_params, [])


def test_score_tr_minmax_endpoints():
    domain = DomainVector(np.zeros(2), {0: 1.0, 1: 5.0, 2: 3.0}, 1.0, 5.0)
    s_tr = score_tr(domain, _example([0], [1, 0, 2]))
    assert s_tr[0] == 0.0  # farthest
    assert s_tr[1] == 1.0  # nearest
    assert 0.0 < s_tr[2] < 1.0


def test_score_tr_degenerate_all_equal():
    domain = DomainVector(np.zeros(2), {0: 2.0, 1: 2.0}, 2.0, 2.0)
    s_tr = score_tr(domain, _example([0], [0, 1, 1]))
    np.testing.assert_array_equal(s_tr, np.ones(3))


def test_score_tr_hand_computed_three_tokens(tiny_params):
    # hand-set embeddings: tokens at 0, 3, 4 on one axis
    params = init(TINY)
    params["tok_emb"].value[...] = 0.0
    params["tok_emb"].value[0, 0] = 0.0
    params["tok_emb"].value[1, 0] = 3.0
    params["tok_emb"].value[2, 0] = 4.0
    dataset = [_example([0], [1, 2], "a")]
    domain = compute_domain_vector(params, dataset)
    # centroid x = (0 + 3 + 4) / 3 = 7/3; distances: 7/3, 2/3, 5/3
    assert domain.d_min == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert domain.d_max == pytest.approx(7.0 / 3.0, abs=1e-12)
    s_tr = score_tr(domain, dataset[0])
    span = 7.0 / 3.0 - 2.0 / 3.0
    np.testing.assert_allclose(
        s_tr,
        [1.0 - (2.0 / 3.0 - 2.0 / 3.0) / span, 1.0 - (5.0 / 3.0 - 2.0 / 3.0) / span],
        atol=1e-12,
    )


def test_score_tr_missing_token_raises():
    domain = DomainVector(np.zeros(2), {0: 1.0}, 1.0, 1.0)
    with pytest.raises(ConsistencyError):
        score_tr(domain, _example([0], [5]))


@pytest.mark.parametrize("metric", DISTANCE_METRICS)
def test_domain_counts_and_s_tr_are_bitwise_the_per_token_loops(metric):
    # the bincount and the one lookup-and-clip replace loops over every token
    params = randomize_params(init(TINY), seed=41)
    dataset = _random_dataset(42, n=60)
    domain = compute_domain_vector(params, dataset, metric=metric)
    counts = np.zeros(TINY.vocab_size, dtype=np.int64)
    for ex in dataset:
        for tid in ex.tokens:
            counts[tid] += 1
    present = np.nonzero(counts)[0]
    table = params["tok_emb"].value
    assert domain.centroid.tobytes() == ((counts[present].astype(np.float64) @ table[present]) / counts.sum()).tobytes()
    span = domain.d_max - domain.d_min
    for ex in dataset:
        want = [min(1.0, max(0.0, 1.0 - (domain.token_distances[t] - domain.d_min) / span)) for t in ex.output_ids]
        assert score_tr(domain, ex).tobytes() == np.array(want).tobytes(), ex.id
    with pytest.raises(ConsistencyError, match=r"^example 'gap': token 3 missing from the domain table \(scores"):
        score_tr(DomainVector(np.zeros(2), {1: 0.5, 2: 1.5}, 0.5, 1.5), _example([1], [2, 3, 4, 1], "gap"))
    for bad in (_example([1, -1], [2]), _example([1], [TINY.vocab_size])):
        assert scoring._validate_example(params, bad) == "token id outside the model vocabulary"


def test_cosine_metric(tiny_params):
    params = init(TINY)
    params["tok_emb"].value[...] = 0.0
    params["tok_emb"].value[1, 0] = 2.0
    params["tok_emb"].value[2, 1] = 1.0
    dataset = [_example([1], [2], "a")]
    domain = compute_domain_vector(params, dataset, metric="cosine")
    # centroid c = (1, 0.5): cos(e1, c) = 1/sqrt(1.25), cos(e2, c) = 0.5/sqrt(1.25)
    norm_c = np.sqrt(1.25)
    assert domain.token_distances[1] == pytest.approx(1.0 - 1.0 / norm_c, abs=1e-12)
    assert domain.token_distances[2] == pytest.approx(1.0 - 0.5 / norm_c, abs=1e-12)


def test_score_dataset_lengths_and_determinism(tiny_params):
    rng = np.random.default_rng(8)
    dataset = [
        _example(
            rng.integers(0, TINY.vocab_size, 3).tolist(),
            rng.integers(0, TINY.vocab_size, int(rng.integers(1, 5))).tolist(),
            f"d{i}",
        )
        for i in range(6)
    ]
    r1 = score_dataset(tiny_params, dataset)
    r2 = score_dataset(tiny_params, dataset)
    assert not r1.errors
    for ex, s1, s2 in zip(dataset, r1.scores, r2.scores):
        n = len(ex.output_ids)
        assert len(s1.s_ri) == len(s1.s_kn) == len(s1.s_tr) == len(s1.pcp) == n
        assert s1.s_ri.tobytes() == s2.s_ri.tobytes()
        assert s1.s_kn.tobytes() == s2.s_kn.tobytes()
        assert s1.s_tr.tobytes() == s2.s_tr.tobytes()
    for s in r1.scores:
        assert np.all((s.pcp >= 0) & (s.pcp <= 1))
        assert np.all((s.s_tr >= 0) & (s.s_tr <= 1))
        assert np.all(s.s_ri >= 0)


def test_score_dataset_read_only(tiny_params):
    before = tiny_params.fingerprint()
    dataset = [_example([1, 2], [3, 4], "a")]
    score_dataset(tiny_params, dataset)
    assert tiny_params.fingerprint() == before


def test_score_dataset_skips_bad_examples(tiny_params):
    dataset = [
        _example([1, 2], [3], "good"),
        _example([1] * (TINY.max_seq + 2), [1], "too-long"),
        _example([1], [4, 5], "good2"),
    ]
    result = score_dataset(tiny_params, dataset)
    assert [s.id for s in result.scores] == ["good", "good2"]
    assert result.errors and result.errors[0][0] == "too-long"


def test_scores_file_round_trip(tmp_path, tiny_params):
    dataset = [_example([1, 2], [3, 4, 5], "a"), _example([2], [6], "b")]
    result = score_dataset(tiny_params, dataset)
    path = tmp_path / "scores.jsonl"
    save_scores(result.scores, path)
    loaded = load_scores(path)
    assert len(loaded) == 2
    for orig, back in zip(result.scores, loaded):
        assert orig.id == back.id
        np.testing.assert_array_equal(orig.s_ri, back.s_ri)
        np.testing.assert_array_equal(orig.s_kn, back.s_kn)
        np.testing.assert_array_equal(orig.s_tr, back.s_tr)
        np.testing.assert_array_equal(orig.pcp, back.pcp)


def _scores_lines(tiny_params, tmp_path):
    dataset = [_example([1, 2], [3, 4, 5], "a"), _example([2], [6], "b")]
    path = tmp_path / "scores.jsonl"
    save_scores(score_dataset(tiny_params, dataset).scores, path)
    return path, path.read_text().splitlines()


@pytest.mark.parametrize(
    "mangle",
    [
        lambda objs: objs[0].pop("s_kn"),
        lambda objs: objs.append(dict(objs[0])),  # repeated id
        lambda objs: objs[1]["pcp"].append(0.5),  # unequal lengths
        lambda objs: [objs[1].__setitem__(key, []) for key in ("s_ri", "s_kn", "s_tr", "pcp")],
        lambda objs: objs[0]["s_tr"].__setitem__(1, float("nan")),
        lambda objs: objs[1].__setitem__("s_ri", "high"),
        lambda objs: objs[1].__setitem__("id", 7),
        lambda objs: objs[0]["s_tr"].__setitem__(0, 1e308),  # Otsu's histogram would overflow
        lambda objs: objs[0]["pcp"].__setitem__(0, -0.5),
        lambda objs: objs[0]["s_ri"].__setitem__(0, -1.0),
        lambda objs: objs[0]["s_kn"].__setitem__(0, "0.5"),
        lambda objs: objs[0]["s_kn"].__setitem__(0, True),
        lambda objs: objs[1]["s_kn"].__setitem__(0, 10**400),  # beyond the float range
    ],
    ids=[
        "missing-key", "repeated-id", "unequal-lengths", "empty", "non-finite", "not-a-list", "non-string-id",
        "tr-above-1", "pcp-below-0", "ri-below-0", "a-string", "a-bool", "a-huge-int",
    ],
)
def test_load_scores_rejects_malformed_files(tmp_path, tiny_params, mangle):
    import json

    path, lines = _scores_lines(tiny_params, tmp_path)
    objs = [json.loads(line) for line in lines]
    mangle(objs)
    path.write_text("".join(json.dumps(o) + "\n" for o in objs))
    with pytest.raises(InputError):
        load_scores(path)


# ---------------------------------------------------------------------------
# Packed scoring split across processes: bitwise one loop over the packs, and
# no process left
# ---------------------------------------------------------------------------


def test_packs_are_ordered_non_empty_and_at_most_pack_rows_unless_one_example_is_longer():
    lengths = np.random.default_rng(40).choice([1, 2, 7, 60, 128, 300, 511, 512, 513, 700], size=400).tolist()
    dataset = [_example([1] * (n - 1), [2], f"p{i}") for i, n in enumerate(lengths)]
    cut = packs(dataset, PACK_ROWS)
    assert [ex for pack in cut for ex in pack] == dataset
    rows = [sum(len(ex.tokens) for ex in pack) for pack in cut]
    assert all(pack and (n <= PACK_ROWS or len(pack) == 1) for pack, n in zip(cut, rows))
    # consecutive fit: each pack starts with an example that did not fit in the one before
    assert all(n + len(pack[0].tokens) > PACK_ROWS for n, pack in zip(rows, cut[1:]))
    assert max(rows) > PACK_ROWS and max(map(len, cut)) > 2
    assert packs([], PACK_ROWS) == []


def _serial_scores(params, dataset, ri_agg="mean", domain_source="all_tokens", distance_metric="euclidean"):
    """`score_dataset` as one loop over its packs, in this process: each
    example's label rows and attention blocks picked out of one forward per
    pack."""
    errors, valid = [], []
    for ex in dataset:
        problem = scoring._validate_example(params, ex)
        if problem is None:
            valid.append(ex)
        else:
            errors.append((ex.id, problem))
    domain = compute_domain_vector(params, valid, domain_source, distance_metric)
    scores = []
    with one_blas_thread():
        for pack in packs(valid, PACK_ROWS):
            lengths = [len(ex.tokens) for ex in pack]
            owner = np.repeat(np.arange(len(pack)), lengths)
            position = np.concatenate([np.arange(n) for n in lengths])
            label = position >= np.repeat([ex.l_input - 1 for ex in pack], lengths)
            logits, blocks = forward_tensors(
                params, [t for ex in pack for t in ex.tokens], lengths, np.flatnonzero(label)
            )
            for i, ex in enumerate(pack):
                first = ex.l_input - 1
                attention = np.stack([layer[i][:, first - lengths[i] :] for layer in blocks])
                trace = scoring.ForwardTrace(logits.value[owner[label] == i], attention, first)
                try:
                    s_tr = scoring.score_tr(domain, ex)
                except ConsistencyError as exc:
                    errors.append((ex.id, str(exc)))
                    continue
                s_ri = _ri_from_trace(trace, ex.l_input, len(ex.output_ids), ri_agg)
                pcp, s_kn = _kn_from_trace(trace, ex)
                scores.append(scoring.TokenScores(ex.id, s_ri, s_kn, s_tr, pcp))
    return scoring.ScoreResult(scores, domain, errors)


def _assert_same_result(got, want):
    assert [s.id for s in got.scores] == [s.id for s in want.scores]
    for a, b in zip(got.scores, want.scores):
        for key in SCORE_KEYS:
            assert getattr(a, key).tobytes() == getattr(b, key).tobytes(), (a.id, key)
    assert got.errors == want.errors
    assert got.domain.centroid.tobytes() == want.domain.centroid.tobytes()
    assert (got.domain.token_distances, got.domain.d_min, got.domain.d_max) == (
        want.domain.token_distances, want.domain.d_min, want.domain.d_max
    )


def _random_dataset(seed, n=24):
    rng = np.random.default_rng(seed)
    return [
        _example(
            rng.integers(0, TINY.vocab_size, int(rng.integers(1, 8))).tolist(),
            rng.integers(0, TINY.vocab_size, int(rng.integers(1, 6))).tolist(),
            f"r{i}",
        )
        for i in range(n)
    ]


def _pack_sizes(dataset):
    return [sum(len(ex.tokens) for ex in pack) for pack in packs(dataset, PACK_ROWS)]


@pytest.fixture
def three_cores(monkeypatch):
    """Three cores to split over, whatever this machine has: two helpers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)


def test_token_slices_balance_tokens_and_are_never_empty(monkeypatch):
    # the packs score_dataset hands itself and its helpers, seen in one
    # process: a helper runs in place when read and a slice is scored as nothing
    params = init(dataclasses.replace(TINY, max_seq=PACK_ROWS))
    slices = []

    class InlineFork:
        def __init__(self, fn, *args):
            self._fn, self._args = fn, args

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return None

        def recv(self):
            return self._fn(None, *self._args)

    def record(pack_list, params, domain, ri_agg):
        slices.append([len(pack) for pack in pack_list])
        return [], []

    monkeypatch.setattr(nm, "Fork", InlineFork)
    monkeypatch.setattr(scoring, "_score_packs", record)

    def slice_sizes(lengths, cores):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
        slices.clear()
        score_dataset(params, [_example([1] * (n - 1), [2], f"r{i}") for i, n in enumerate(lengths)])
        return slices.copy()

    alone = (300,) * 6  # no two share a pack
    assert slice_sizes(alone, 1) == [[1] * 6]
    assert slice_sizes(alone, 2) == [[1] * 3] * 2
    assert slice_sizes(alone, 3) == [[1] * 2] * 3
    assert slice_sizes((64,) * 16, 2) == [[8], [8]]  # eight fill a pack
    uneven = (500, 50, 50, 50, 50)  # packs of 500 and 200 rows
    assert slice_sizes(uneven, 2) == [[1], [4]]
    # two packs make two slices, however many cores
    assert slice_sizes(uneven, 3) == [[1], [4]]
    assert slice_sizes(alone[:1], 4) == [[1]]


@pytest.mark.parametrize("distance_metric", DISTANCE_METRICS)
@pytest.mark.parametrize("domain_source", DOMAIN_SOURCES)
@pytest.mark.parametrize("ri_agg", RI_AGGS)
def test_split_scoring_is_bitwise_the_serial_loop(ri_agg, domain_source, distance_metric, three_cores):
    params = randomize_params(init(TINY), seed=5)
    dataset = _random_dataset(3, n=300)
    kwargs = dict(ri_agg=ri_agg, domain_source=domain_source, distance_metric=distance_metric)
    assert len(balanced_cuts(_pack_sizes(dataset), 3)) == 2  # three slices
    _assert_same_result(score_dataset(params, dataset, **kwargs), _serial_scores(params, dataset, **kwargs))
    assert multiprocessing.active_children() == [] and _children() == []


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_packed_scoring_is_bitwise_the_serial_pack_loop_on_any_core_count(cores, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
    params = randomize_params(init(TINY), seed=11)
    dataset = _random_dataset(12, n=300)
    assert len(_pack_sizes(dataset)) >= 4
    _assert_same_result(score_dataset(params, dataset), _serial_scores(params, dataset))
    assert multiprocessing.active_children() == [] and _children() == []


@fork_only
def test_split_scoring_keeps_the_errors_and_their_order(three_cores, monkeypatch):
    # invalid examples interleaved (caught before the split), and examples
    # in every slice that fail while scored (caught in the slice)
    params = randomize_params(init(TINY), seed=6)
    dataset = _random_dataset(4, n=300)
    dataset[2] = _example([1] * TINY.max_seq, [3], "too-long")
    dataset[90] = _example([1, 2], [TINY.vocab_size], "out-of-vocab")
    dataset[170] = _example([], [4], "empty-input")
    dataset[250] = _example([3], [], "empty-label")
    failing = {"r1", "r140", "r280"}
    plain_score_tr = scoring.score_tr

    def failing_score_tr(domain, example):
        if example.id in failing:
            raise ConsistencyError(f"{example.id} fails")
        return plain_score_tr(domain, example)

    monkeypatch.setattr(scoring, "score_tr", failing_score_tr)
    pack_list = packs([ex for ex in dataset if scoring._validate_example(params, ex) is None], PACK_ROWS)
    bounds = [0, *balanced_cuts(_pack_sizes([ex for pack in pack_list for ex in pack]), 3), len(pack_list)]
    assert len(bounds) == 4 and all(
        any(ex.id in failing for pack in pack_list[start:stop] for ex in pack) for start, stop in zip(bounds, bounds[1:])
    )
    got = score_dataset(params, dataset)
    want = _serial_scores(params, dataset)
    assert [i for i, _ in want.errors] == ["too-long", "out-of-vocab", "empty-input", "empty-label", "r1", "r140", "r280"]
    _assert_same_result(got, want)


def test_one_valid_example_starts_no_process(three_cores, no_fork):
    params = randomize_params(init(TINY), seed=7)
    dataset = [_example([1] * TINY.max_seq, [3], "too-long"), _example([1, 2], [3, 4], "only"), _example([2], [], "e")]
    _assert_same_result(score_dataset(params, dataset), _serial_scores(params, dataset))


def test_one_core_starts_no_process(monkeypatch, no_fork):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    params = randomize_params(init(TINY), seed=8)
    dataset = _random_dataset(5)
    _assert_same_result(score_dataset(params, dataset), _serial_scores(params, dataset))


def test_an_unknown_ri_agg_raises_before_any_work(two_cores, no_fork, monkeypatch):
    monkeypatch.setattr(scoring, "compute_domain_vector", None)  # never reached
    with pytest.raises(ValueError, match="ri_agg must be one of mean, sum, last_layer_mean, got 'max'"):
        score_dataset(randomize_params(init(TINY), seed=8), _random_dataset(5), ri_agg="max")


@fork_only
@pytest.mark.parametrize("side", ["helper", "parent", "both"])
def test_split_scoring_reraises_an_error_and_leaves_no_process(side, three_cores, monkeypatch):
    # this process scores the first slice, so its error wins over a helper's
    parent_pid = os.getpid()
    plain_forward_tensors = scoring.forward_tensors

    def failing_forward_tensors(params, tokens, lengths, rows):
        in_helper = os.getpid() != parent_pid
        if side == "both" or in_helper == (side == "helper"):
            raise RuntimeError("in the helper" if in_helper else "in the parent")
        return plain_forward_tensors(params, tokens, lengths, rows)

    monkeypatch.setattr(scoring, "forward_tensors", failing_forward_tensors)
    params = randomize_params(init(TINY), seed=9)
    dataset = _random_dataset(6, n=300)
    assert len(balanced_cuts(_pack_sizes(dataset), 3)) == 2  # two helpers
    with pytest.raises(RuntimeError, match="in the helper" if side == "helper" else "in the parent"):
        score_dataset(params, dataset)
    assert multiprocessing.active_children() == [] and _children() == []


@fork_only
def test_a_helper_that_dies_makes_scoring_raise(three_cores, monkeypatch):
    parent_pid = os.getpid()
    plain_forward_tensors = scoring.forward_tensors

    def dying_forward_tensors(params, tokens, lengths, rows):
        if os.getpid() != parent_pid:
            os._exit(3)
        return plain_forward_tensors(params, tokens, lengths, rows)

    monkeypatch.setattr(scoring, "forward_tensors", dying_forward_tensors)
    dataset = _random_dataset(7, n=300)
    assert len(balanced_cuts(_pack_sizes(dataset), 3)) == 2  # two helpers
    with pytest.raises(ChildProcessError, match="code 3"):
        score_dataset(randomize_params(init(TINY), seed=10), dataset)
    assert multiprocessing.active_children() == [] and _children() == []


def test_scoring_one_full_pack_peaks_under_5_mib():
    # scoring keeps no tape, so one pack's activations bound what it holds;
    # tracemalloc sees numpy's buffers, so a bigger PACK_ROWS fails here
    params = init(ModelConfig())
    rng = np.random.default_rng(50)
    ids = lambda n: rng.integers(0, params.config.vocab_size, n).tolist()
    dataset = [_example(ids(int(n) - 6), ids(6), f"m{i}") for i, n in enumerate(rng.integers(15, 111, size=40))]
    pack = packs(dataset, PACK_ROWS)[0]
    assert sum(len(ex.tokens) for ex in pack) > PACK_ROWS - 110
    domain = compute_domain_vector(params, pack)
    scoring._score_packs([pack], params, domain, "mean")  # fills the causal-mask cache first
    tracemalloc.start()
    try:
        scoring._score_packs([pack], params, domain, "mean")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20, f"{peak / 2**20:.2f} MiB"
