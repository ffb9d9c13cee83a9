"""Each benchmark oracle agrees with the program on a correct output and
fires on a corrupted one. Run with: PYTHONPATH=src python -m pytest bench"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
for p in (HERE.parent / "src", HERE):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

import oracles  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from oracles import CheckFailure  # noqa: E402
from xtf import data, filtering, model, scoring, training  # noqa: E402

SMALL = model.ModelConfig(d_model=16, n_layers=2, n_heads=2, d_ff=32, max_seq=40, seed=3)


def random_params(seed: int) -> model.ModelParams:
    params = model.init(SMALL)
    rng = np.random.default_rng(seed)
    for t in params.values():
        t.value[...] = rng.normal(0.0, 0.5, t.value.shape)
    return params


def addition_examples(n: int, seed: int):
    return [data.tokenize(r) for r in data.gen_synth("addition", n, 0.25, seed)]


def test_split_oracle_matches_split_records():
    records = data.gen_synth("addition", 30, 0.25, 0)
    program = data.split_records(records, counts=(20, 5, 5))
    rebuilt = oracles.rebuild_split([r.id for r in records], (20, 5, 5))
    assert [[r.id for r in part] for part in program] == list(rebuilt)
    with pytest.raises(CheckFailure):
        oracles.rebuild_split([r.id for r in records], (20, 5, 4))


def toggle_first(sources, attr):
    first = sources[0]
    flipped = tuple(a for a in first if a != attr) if attr in first else first + (attr,)
    return [flipped] + sources[1:]


def test_ri_and_kn_flag_oracles_match_filters_and_fire_on_a_flip():
    rng = np.random.default_rng(1)
    for n in (1, 2, 5, 9, 17):
        s_ri, s_kn = rng.random(n) ** 3, rng.random(n)
        ri, kn = filtering.filter_ri(s_ri), filtering.filter_kn(s_kn, 0.3)
        sources = [tuple(a for a, hit in (("RI", k in ri), ("KN", k in kn)) if hit) for k in range(n)]
        oracles.check_ri_flags(s_ri, sources, "ex")
        oracles.check_kn_flags(s_kn, sources, 0.3, "ex")
        with pytest.raises(CheckFailure):
            oracles.check_ri_flags(s_ri, toggle_first(sources, "RI"), "ex")
        with pytest.raises(CheckFailure):
            oracles.check_kn_flags(s_kn, toggle_first(sources, "KN"), 0.3, "ex")


@pytest.mark.parametrize("k", [2, 3])
def test_otsu_oracle_accepts_program_cuts_and_fires_on_worse_cuts(k):
    rng = np.random.default_rng(k)
    values = np.concatenate([rng.normal(0.1, 0.03, 300), rng.normal(0.5, 0.05, 200), rng.normal(0.9, 0.02, 100)])
    bins = 32
    result = filtering.multi_otsu(values, k=k, bins=bins)
    best = oracles.check_otsu(values, result.thresholds, k, bins)
    assert abs(best - result.between_var) <= 1e-12 * max(1.0, best)
    _, edges = oracles.otsu_histogram(values, bins)
    worse = tuple(float(e) for e in edges[1:k])  # the lowest cuts split off almost nothing
    with pytest.raises(CheckFailure):
        oracles.check_otsu(values, worse, k, bins)
    with pytest.raises(CheckFailure):
        oracles.check_otsu(values, tuple(t + 1e-9 for t in result.thresholds), k, bins)


def test_tr_flag_oracle_matches_filter_tr():
    rng = np.random.default_rng(4)
    per_example = [(f"e{i}", rng.random(int(rng.integers(1, 9)))) for i in range(40)]
    flagged, result, _ = filtering.filter_tr(per_example, k=3, bins=64)
    pool = np.concatenate([a for _, a in per_example])
    expected = oracles.tr_flags(pool, result.thresholds, 3)
    got = np.concatenate([[k in flagged[i] for k in range(a.size)] for i, a in per_example])
    assert np.array_equal(expected, got)
    assert expected.any()


def test_ri_pcp_recomputation_matches_score_dataset_and_fires_on_a_perturbation():
    params = random_params(5)
    examples = addition_examples(6, 2)
    result = scoring.score_dataset(params, examples)
    assert result.errors == []
    for ex, s in zip(examples, result.scores):
        trace = model.forward(params, ex.tokens)
        s_ri, pcp = oracles.recompute_ri_pcp(trace.attention, trace.logits, ex.l_input, ex.output_ids)
        oracles.check_close(s.s_ri, s_ri, 1e-12, "s_ri")
        oracles.check_close(s.pcp, pcp, 1e-12, "pcp")
        bad = s.s_ri.copy()
        bad[-1] += 1e-9
        with pytest.raises(CheckFailure):
            oracles.check_close(bad, s_ri, 1e-12, "s_ri")


def test_greedy_oracle_counts_exact_matches():
    vocab, eos = 8, 7

    def logits_fn(tokens):  # next token is last + 1; after 6 comes EOS
        out = np.zeros((len(tokens), vocab))
        out[-1, min(tokens[-1] + 1, eos)] = 1.0
        return out

    ex = lambda inp, out: data.TokenizedExample("x", inp, out)
    examples = [
        ex([4], [5, 6, eos]),  # exact
        ex([5], [6]),  # exact, label without EOS
        ex([1], [2, 4, eos]),  # wrong second token
        ex([3], [4, eos]),  # model continues with 5 instead of EOS
        ex([5], [6, eos, eos]),  # model stops early
    ]
    assert oracles.greedy_exact_match(logits_fn, examples, eos, max_seq=20) == 2 / 5
    assert oracles.greedy_exact_match(logits_fn, examples[:1], eos, max_seq=3) == 0.0
    assert oracles.greedy_continuation(logits_fn, [3], eos, 10, 20) == [4, 5, 6, eos]
    assert oracles.greedy_continuation(logits_fn, [3], eos, 2, 20) == [4, 5]
    assert oracles.greedy_continuation(logits_fn, [3], eos, 10, 3) == [4, 5]


def test_greedy_oracle_agrees_with_evaluate_and_the_check_fires():
    params = random_params(6)
    examples = [data.strip_noise(e) for e in addition_examples(5, 3)]
    got = training.evaluate(params, examples)
    greedy = oracles.greedy_exact_match(
        lambda t: model.forward(params, t).logits, examples, data.EOS_ID, params.config.max_seq
    )
    assert got == greedy
    with pytest.raises(CheckFailure):
        oracles.require(got + 1 / len(examples) == greedy, "evaluate differs from the greedy loop")


def test_twin_arm_report_checks_fire_on_each_corruption(tmp_path):
    wl = workloads.TwinArm(0, tmp_path)
    wl.setup()
    split = wl._train_split()
    truth = sum(sum(ex.noise) for ex in split)
    labels = sum(len(ex.output_ids) for ex in split)
    good = {
        "filtered_fraction": 0.15,
        "filter_quality": {"overall": {"tp": truth - 3, "fn": 3, "precision": 0.7}},
        "total_label_tokens": labels,
        "normal_acc": 1 / 60,
        "xtf_acc": 7 / 60,
        "score_errors": [],
    }
    wl.check_first(good)
    corruptions = [
        ("filtered_fraction", 0.9),
        ("filter_quality", {"overall": {"tp": truth, "fn": 3, "precision": 0.7}}),
        ("filter_quality", {"overall": {"tp": truth - 3, "fn": 3, "precision": 0.01}}),
        ("total_label_tokens", labels + 1),
        ("normal_acc", 0.5 / 60),
        ("xtf_acc", 61 / 60),
        ("score_errors", [("x", "bad")]),
    ]
    for key, value in corruptions:
        with pytest.raises(CheckFailure):
            wl.check_first({**good, key: value})


def test_tracer_wraps_module_attributes_and_restores_them():
    params = random_params(7)
    examples = [data.strip_noise(e) for e in addition_examples(3, 4)]
    original_forward, original_gradients = model.forward, model.nm.GradientTape.gradients
    tr = tracer.Tracer()
    tr.install()
    try:
        with tr.span("bench.op"):
            training.evaluate(params, examples)
            training.masked_loss(params, examples[0])
    finally:
        tr.uninstall()
    assert model.forward is original_forward
    assert model.nm.GradientTape.gradients is original_gradients
    metrics = tracer.derive(tr.spans)
    assert metrics["model.decode_tokens"] >= len(examples)
    assert metrics["model.decode_positions_per_token"] >= min(e.l_input for e in examples)
    assert metrics["training.masked_loss_calls"] == 1
    assert metrics["numerics.tape_gradients_calls"] == 1
    assert metrics["model.forward_calls"] == metrics["model.decode_tokens"] + 1
    assert 0.0 < metrics["trace.stage_coverage"] <= 1.0
