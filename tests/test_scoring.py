import dataclasses
import multiprocessing
import os
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import TINY, _children, fork_only, randomize_params
from xtf import scoring
from xtf.data import TokenizedExample, gen_synth, tokenize
from xtf.model import InputError, ModelConfig, init, forward
from xtf.numerics import ContractError, balanced_cuts, one_blas_thread, softmax_value
from xtf.training import TrainConfig, prepare_base
from xtf.scoring import (
    DISTANCE_METRICS,
    DOMAIN_SOURCES,
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
    """Scoring runs the last block from row l_input - 1 on; its s_ri, s_kn
    and pcp match pooling over a full forward pass within 1e-12 absolute,
    the bench oracle's tolerance, and bitwise when l_input is 1."""
    if trained:
        params, dataset = trained_corpus
    else:
        params = randomize_params(init(TINY), seed=21)
        dataset = _random_dataset(22, n=40) + _edge_examples(TINY, np.random.default_rng(23))
    domain = compute_domain_vector(params, dataset)
    scores, errors = scoring._score_slice(params, dataset, domain, agg)
    assert errors == [] and len(scores) == len(dataset)
    for ex, got in zip(dataset, scores):
        trace, n_out = forward(params, ex.tokens), len(ex.output_ids)
        pcp = softmax_value(trace.logits, axis=-1)[ex.l_input - 1 + np.arange(n_out), ex.output_ids]
        want = (_ri_by_mean(trace.attention, ex.l_input, n_out, agg), pcp, 1.0 - pcp)
        for key, value in zip(("s_ri", "pcp", "s_kn"), want):
            if ex.l_input == 1:
                assert getattr(got, key).tobytes() == value.tobytes(), (ex.id, key)
            np.testing.assert_allclose(getattr(got, key), value, rtol=0, atol=1e-12, err_msg=f"{ex.id} {key}")


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
# Scoring split across processes: bitwise the one loop, and no process left
# ---------------------------------------------------------------------------


def _serial_scores(params, dataset, ri_agg="mean", domain_source="all_tokens", distance_metric="euclidean"):
    """`score_dataset` as one loop over the examples, in this process."""
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
        for ex in valid:
            try:
                trace = forward(params, ex.tokens, ex.l_input - 1)
                s_ri = _ri_from_trace(trace, ex.l_input, len(ex.output_ids), ri_agg)
                pcp, s_kn = _kn_from_trace(trace, ex)
                s_tr = scoring.score_tr(domain, ex)
            except (InputError, ConsistencyError) as exc:
                errors.append((ex.id, str(exc)))
                continue
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


@pytest.fixture
def three_cores(monkeypatch):
    """Three cores to split over, whatever this machine has: two helpers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)


def test_token_slices_balance_tokens_and_are_never_empty(monkeypatch):
    # the slices score_dataset hands its helpers and itself, seen in one
    # process: a helper runs in place and a slice is scored as nothing
    params = init(dataclasses.replace(TINY, max_seq=64))
    slices = []

    class InlineFork:
        def __init__(self, fn, *args):
            self._result = fn(None, *args)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return None

        def recv(self):
            return self._result

    def record(params, examples, domain, ri_agg):
        slices.append(len(examples))
        return [], []

    monkeypatch.setattr(scoring, "Fork", InlineFork)
    monkeypatch.setattr(scoring, "_score_slice", record)

    def slice_sizes(lengths, cores):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
        slices.clear()
        score_dataset(params, [_example([1] * (n - 1), [2], f"r{i}") for i, n in enumerate(lengths)])
        return slices.copy()

    even = (10, 10, 10, 10, 10, 10)
    assert slice_sizes(even, 1) == [6]
    assert slice_sizes(even, 2) == [3, 3]
    assert slice_sizes(even, 3) == [2, 2, 2]
    uneven = (50, 5, 5, 5, 5)
    assert slice_sizes(uneven, 2) == [1, 4]
    # the first example holds more than two thirds of the tokens, so both
    # cuts fall after it and two slices remain
    assert slice_sizes(uneven, 3) == [1, 4]
    assert slice_sizes(even[:1], 4) == [1]


@pytest.mark.parametrize("distance_metric", DISTANCE_METRICS)
@pytest.mark.parametrize("domain_source", DOMAIN_SOURCES)
@pytest.mark.parametrize("ri_agg", RI_AGGS)
def test_split_scoring_is_bitwise_the_serial_loop(ri_agg, domain_source, distance_metric, three_cores):
    params = randomize_params(init(TINY), seed=5)
    dataset = _random_dataset(3)
    kwargs = dict(ri_agg=ri_agg, domain_source=domain_source, distance_metric=distance_metric)
    assert len(balanced_cuts([len(ex.tokens) for ex in dataset], 3)) == 2  # three slices
    _assert_same_result(score_dataset(params, dataset, **kwargs), _serial_scores(params, dataset, **kwargs))
    assert multiprocessing.active_children() == [] and _children() == []


@fork_only
def test_split_scoring_keeps_the_errors_and_their_order(three_cores, monkeypatch):
    # invalid examples interleaved (caught before the split), and examples
    # in every slice that fail while scored (caught in the slice)
    params = randomize_params(init(TINY), seed=6)
    dataset = _random_dataset(4, n=30)
    dataset[2] = _example([1] * TINY.max_seq, [3], "too-long")
    dataset[9] = _example([1, 2], [TINY.vocab_size], "out-of-vocab")
    dataset[17] = _example([], [4], "empty-input")
    dataset[25] = _example([3], [], "empty-label")
    failing = {"r1", "r14", "r28"}
    plain_score_tr = scoring.score_tr

    def failing_score_tr(domain, example):
        if example.id in failing:
            raise ConsistencyError(f"{example.id} fails")
        return plain_score_tr(domain, example)

    monkeypatch.setattr(scoring, "score_tr", failing_score_tr)
    valid = [ex for ex in dataset if scoring._validate_example(params, ex) is None]
    bounds = [0, *balanced_cuts([len(ex.tokens) for ex in valid], 3), len(valid)]
    assert len(bounds) == 4 and all(
        any(ex.id in failing for ex in valid[start:stop]) for start, stop in zip(bounds, bounds[1:])
    )
    got = score_dataset(params, dataset)
    want = _serial_scores(params, dataset)
    assert [i for i, _ in want.errors] == ["too-long", "out-of-vocab", "empty-input", "empty-label", "r1", "r14", "r28"]
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
    # a helper's error, on an earlier slice, wins over this process's
    parent_pid = os.getpid()
    plain_forward = scoring.forward

    def failing_forward(params, tokens, first):
        in_helper = os.getpid() != parent_pid
        if side == "both" or in_helper == (side == "helper"):
            raise RuntimeError("in the helper" if in_helper else "in the parent")
        return plain_forward(params, tokens, first)

    monkeypatch.setattr(scoring, "forward", failing_forward)
    params = randomize_params(init(TINY), seed=9)
    with pytest.raises(RuntimeError, match="in the parent" if side == "parent" else "in the helper"):
        score_dataset(params, _random_dataset(6))
    assert multiprocessing.active_children() == [] and _children() == []


@fork_only
def test_a_helper_that_dies_makes_scoring_raise(three_cores, monkeypatch):
    parent_pid = os.getpid()
    plain_forward = scoring.forward

    def dying_forward(params, tokens, first):
        if os.getpid() != parent_pid:
            os._exit(3)
        return plain_forward(params, tokens, first)

    monkeypatch.setattr(scoring, "forward", dying_forward)
    with pytest.raises(ChildProcessError, match="code 3"):
        score_dataset(randomize_params(init(TINY), seed=10), _random_dataset(7))
    assert multiprocessing.active_children() == [] and _children() == []
