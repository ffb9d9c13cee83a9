import ctypes
import dataclasses
import multiprocessing
import os
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import TINY, _children, fork_only, randomize_params
from reference_ops import greedy_evaluate, log_softmax_value
from xtf import numerics as nm
from xtf import training
from xtf.data import EOS_ID, TokenizedExample, gen_synth, packs, split_records, strip_noise, subseed, tokenize
from xtf.filtering import FilterConfig, NoiseMask
from xtf.model import InputError, ModelConfig, ModelParams, OptState, forward, forward_tensors, init, optimizer_step
from xtf.numerics import ContractError
from xtf.training import (
    TrainConfig,
    _epoch_pass,
    evaluate,
    masked_loss,
    packed_loss,
    prepare_base,
    run_experiment,
    train,
)


def _example(inp, out, ex_id="x"):
    return TokenizedExample(ex_id, list(inp), list(out))


def _mask(ex, flagged):
    return NoiseMask(ex.id, [k in flagged for k in range(len(ex.output_ids))], [
        ("KN",) if k in flagged else () for k in range(len(ex.output_ids))
    ])


def _per_position_oracle(params, ex, kept):
    """Loss as a sum of manual per-position log-softmax terms."""
    trace = forward(params, ex.tokens)
    logp = log_softmax_value(trace.logits, axis=-1)
    return -sum(logp[ex.l_input + k - 1, ex.output_ids[k]] for k in kept)


def test_masked_loss_empty_mask_equals_full_nll(tiny_generic_params):
    ex = _example([1, 2], [3, 4, 5])
    loss, _ = masked_loss(tiny_generic_params, ex, None)
    oracle = _per_position_oracle(tiny_generic_params, ex, range(3))
    assert loss == pytest.approx(oracle, abs=1e-12)


def test_masked_loss_all_masked_zero(tiny_generic_params):
    ex = _example([1, 2], [3, 4])
    mask = _mask(ex, {0, 1})
    loss, grads = masked_loss(tiny_generic_params, ex, mask)
    assert loss == 0.0
    assert all(np.all(g == 0.0) for g in grads.values())


def test_masked_loss_middle_masked_matches_oracle(tiny_generic_params):
    ex = _example([1, 2], [3, 4, 5])
    mask = _mask(ex, {1})
    loss, _ = masked_loss(tiny_generic_params, ex, mask)
    oracle = _per_position_oracle(tiny_generic_params, ex, [0, 2])
    assert loss == pytest.approx(oracle, abs=1e-12)


def test_masked_loss_gradient_exactness(tiny_generic_params):
    # gradients equal the sum of single-position gradients over kept tokens
    ex = _example([1, 2, 3], [4, 5, 6, 7])
    mask = _mask(ex, {2})
    _, grads = masked_loss(tiny_generic_params, ex, mask)
    acc = {n: np.zeros_like(g) for n, g in grads.items()}
    for k in (0, 1, 3):
        only_k = _mask(ex, set(range(4)) - {k})
        _, gk = masked_loss(tiny_generic_params, ex, only_k)
        for name in acc:
            acc[name] += gk[name]
    for name in acc:
        assert np.max(np.abs(grads[name] - acc[name])) <= 1e-12


def test_masked_loss_teacher_forcing_invariance(tiny_generic_params):
    # forward logits are bitwise identical with and without a mask
    ex = _example([1, 2], [3, 4, 5])
    a = forward(tiny_generic_params, ex.tokens).logits
    masked_loss(tiny_generic_params, ex, _mask(ex, {0, 2}))
    b = forward(tiny_generic_params, ex.tokens).logits
    assert a.tobytes() == b.tobytes()


def test_masked_loss_monotone_mask_growth(tiny_generic_params):
    ex = _example([1, 2], [3, 4, 5])
    base_loss, _ = masked_loss(tiny_generic_params, ex, None)
    for k in range(3):
        smaller, _ = masked_loss(tiny_generic_params, ex, _mask(ex, {k}))
        removed = base_loss - smaller
        term = _per_position_oracle(tiny_generic_params, ex, [k])
        assert removed == pytest.approx(term, abs=1e-12)
        assert removed >= 0.0


def test_masked_loss_rejects_length_mismatch(tiny_generic_params):
    ex = _example([1, 2], [3, 4])
    with pytest.raises(ContractError):
        masked_loss(tiny_generic_params, ex, NoiseMask(ex.id, [False], [()]))


# vocab_size reaches EOS_ID (98): with TINY's 10 ids no verdict can be right
MEM = ModelConfig(vocab_size=99, d_model=16, n_layers=2, n_heads=2, d_ff=32, max_seq=12, seed=3)


def _labelled(rng, n, prefix):
    """`n` examples of 1-4 input ids and labels (EOS included) that fit in
    MEM.max_seq; the first fills it exactly, every fourth has an EOS mid-label."""
    out = []
    for i in range(n):
        n_in = int(rng.integers(1, 5))
        n_label = MEM.max_seq - n_in if i == 0 else int(rng.integers(1, MEM.max_seq - n_in + 1))
        label = rng.integers(0, EOS_ID, n_label - 1).tolist()
        if i % 4 == 0 and len(label) > 1:
            label[len(label) // 2] = EOS_ID
        out.append(_example(rng.integers(0, EOS_ID, n_in).tolist(), label + [EOS_ID], f"{prefix}{i}"))
    return out


@pytest.fixture(scope="module")
def memorizing():
    """Snapshots of a MEM model fitting the 16 `seen` examples, after 5, 10,
    20 and 40 epochs, and 8 `unseen` ones of the same kind."""
    rng = np.random.default_rng(0)
    seen, unseen = _labelled(rng, 16, "s"), _labelled(rng, 8, "u")
    params, opt_state, order_rng = init(MEM), OptState(), np.random.default_rng(1)
    config = TrainConfig(learning_rate=1e-2, batch_size=4)
    snapshots = []
    for epoch in range(1, 41):
        _epoch_pass(params, seen, None, config, order_rng, opt_state)
        if epoch in (5, 10, 20, 40):
            snapshots.append(params.copy())
    return snapshots, seen, unseen


def _verdicts(evaluate_fn, params, examples):
    return [evaluate_fn(params, [ex]) for ex in examples]


def test_evaluate_verdicts_are_greedy_decodings_while_memorizing(memorizing):
    snapshots, seen, unseen = memorizing
    accuracies = []
    for params in snapshots:
        got = _verdicts(evaluate, params, seen + unseen)
        assert got == _verdicts(greedy_evaluate, params, seen + unseen)
        accuracies.append(sum(got) / len(got))
    assert any(0.0 < acc < 1.0 for acc in accuracies), accuracies
    assert accuracies[-1] > accuracies[0]


def _greedy_tokens(params, prefix, n):
    """Up to `n` greedy tokens after `prefix`, through the first EOS."""
    seq = list(prefix)
    while len(seq) < len(prefix) + n and (len(seq) == len(prefix) or seq[-1] != EOS_ID):
        seq.append(int(np.argmax(forward(params, seq).logits[-1])))
    return seq[len(prefix) :]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_evaluate_verdicts_are_greedy_decodings_on_random_models(seed):
    # labels echo the model's own greedy tokens, so every label row's argmax
    # decides a verdict; the echo's end, one token early, or a changed token
    params = randomize_params(init(dataclasses.replace(MEM, seed=seed)), seed=seed, scale=1.0)
    rng = np.random.default_rng(seed)
    examples = []
    for i in range(30):
        inp = rng.integers(0, MEM.vocab_size, int(rng.integers(1, 6))).tolist()
        echo = _greedy_tokens(params, inp, MEM.max_seq - len(inp) - 1)
        examples += [_example(inp, echo, f"e{i}"), _example(inp, echo[:-1], f"p{i}")]
        changed = list(echo)
        changed[int(rng.integers(len(changed)))] = int(rng.integers(MEM.vocab_size))
        examples.append(_example(inp, changed, f"c{i}"))
    got = _verdicts(evaluate, params, examples)
    assert got == _verdicts(greedy_evaluate, params, examples)
    assert 1.0 in got


def test_evaluate_edge_cases_are_greedy_decodings(memorizing):
    snapshots, seen, _ = memorizing
    params = snapshots[-1]
    full = seen[0]  # input + label fill max_seq, so input + target is max_seq - 1
    mid_eos = next(ex for ex in seen if EOS_ID in ex.output_ids[:-1])
    one_input = next(ex for ex in seen if ex.l_input == 1)
    bad = MEM.vocab_size
    cases = [
        (full, 1.0),
        (_example([1] + full.input_ids, full.output_ids), 0.0),  # input + target is max_seq
        (_example(full.input_ids, full.output_ids[:2] + [bad] + full.output_ids[3:]), 0.0),
        (_example(full.input_ids, full.output_ids[:1] + [-1] + full.output_ids[2:]), 0.0),
        (_example(full.tokens[:-1], [EOS_ID]), 1.0),  # empty label at l_input = max_seq - 1
        (_example(full.tokens[:-1], []), 1.0),
        (_example(full.input_ids, []), 0.0),
        (mid_eos, 1.0),
        (one_input, 1.0),  # the pass from row 0 is the full pass
    ]
    for ex, want in cases:
        assert evaluate(params, [ex]) == greedy_evaluate(params, [ex]) == want, ex
    for ex in (_example([bad] + full.input_ids[1:], full.output_ids), _example([bad], [bad, EOS_ID])):
        for evaluate_fn in (evaluate, greedy_evaluate):
            with pytest.raises(InputError):
                evaluate_fn(params, [ex])
    for evaluate_fn in (evaluate, greedy_evaluate):
        with pytest.raises(ValueError, match="non-empty"):
            evaluate_fn(params, [])
        with pytest.raises(ValueError):  # no input, which `tokenize` never makes
            evaluate_fn(params, [_example([], [3])])


def test_evaluate_runs_one_pass_over_input_and_target_per_example_that_fits(monkeypatch):
    params = randomize_params(init(MEM), seed=4)
    examples = [
        _example([1, 2], [3, 4, EOS_ID], "eos"),
        _example([1, 2], [3, 4], "no-eos"),
        _example([5], [6] * (MEM.max_seq - 2) + [EOS_ID], "max_seq - 1"),
        _example([5, 5], [6] * (MEM.max_seq - 2) + [EOS_ID], "max_seq"),
        _example([7] * MEM.max_seq, [8], "longer"),
        _example([9], [EOS_ID, EOS_ID], "mid-eos"),
    ]
    calls = []

    def recording_forward(*args, **kwargs):
        calls.append((args, kwargs))
        return forward(*args, **kwargs)

    monkeypatch.setattr(training, "forward", recording_forward)
    evaluate(params, examples)
    # positional, as the benchmark's tracer reads the tokens from args[1]
    passes = [([1, 2, 3, 4], 1), ([1, 2, 3, 4], 1), ([5] + [6] * (MEM.max_seq - 2), 0), ([9, EOS_ID], 0)]
    assert calls == [((params, tokens, first), {}) for tokens, first in passes]


def test_evaluate_memorized_and_order_invariance(memorizing):
    snapshots, seen, unseen = memorizing
    params = snapshots[-1]
    eval_set = seen[::2] + unseen
    acc = evaluate(params, eval_set)
    assert 0.0 < acc < 1.0
    assert evaluate(params, list(reversed(eval_set))) == acc


def test_evaluate_random_model_near_zero():
    params = init(ModelConfig(vocab_size=96, seed=11))
    rng = np.random.default_rng(1)
    eval_set = [
        _example(rng.integers(0, 96, 4).tolist(), rng.integers(0, 96, 5).tolist(), f"e{i}")
        for i in range(25)
    ]
    assert evaluate(params, eval_set) <= 0.05


def test_evaluate_strips_trailing_eos(tiny_generic_params):
    # a label with EOS and the same label without it score identically
    ex_with = _example([1, 2], [3, 4, EOS_ID])
    ex_without = _example([1, 2], [3, 4])
    assert evaluate(tiny_generic_params, [ex_with]) == evaluate(tiny_generic_params, [ex_without])


PACK = ModelConfig(vocab_size=10, d_model=6, n_layers=2, n_heads=2, d_ff=8, max_seq=40, seed=4)


def _close(a, b, rel=1e-12):
    """max |a - b| within `rel` of the largest entry of b."""
    a, b = np.asarray(a), np.asarray(b)
    return np.max(np.abs(a - b)) <= rel * np.max(np.abs(b))


def _random_run(rng, max_seq, with_masks):
    """1-8 sequences of mixed lengths (2..max_seq) that fit in max_seq rows."""
    n = int(rng.integers(1, 9))
    lengths = rng.integers(2, max_seq // n + 1, n)
    run, masks = [], []
    for i, length in enumerate(lengths):
        n_in = int(rng.integers(1, length))
        ex = _example(
            rng.integers(0, PACK.vocab_size, n_in).tolist(),
            rng.integers(0, PACK.vocab_size, length - n_in).tolist(),
            f"r{i}",
        )
        run.append(ex)
        flagged = {k for k in range(len(ex.output_ids)) if rng.random() < 0.4} if with_masks else set()
        masks.append(_mask(ex, flagged) if with_masks else None)
    return run, masks


@pytest.mark.parametrize("with_masks", [False, True])
def test_packed_loss_equals_sum_of_single_sequence_losses(with_masks):
    rng = np.random.default_rng(17 + with_masks)
    params = randomize_params(init(PACK), seed=5)
    names = list(params.tensors)
    for _ in range(12):
        run, masks = _random_run(rng, PACK.max_seq, with_masks)
        loss, grad = packed_loss(params, run, masks)
        singles = [masked_loss(params, ex, m) for ex, m in zip(run, masks)]
        assert loss == pytest.approx(sum(l for l, _ in singles), rel=1e-12, abs=0.0)
        for name, g in zip(names, ModelParams(PACK, grad).values()):
            assert _close(g.value, sum(gs[name] for _, gs in singles)), name

        tokens = [t for ex in run for t in ex.tokens]
        logits, _ = forward_tensors(params, tokens, [len(ex.tokens) for ex in run])
        start = 0
        for ex in run:
            single = forward(params, ex.tokens).logits
            assert _close(logits.value[start : start + len(ex.tokens)], single)
            start += len(ex.tokens)


def _full_rows_packed_loss(params, run, masks):
    """`packed_loss` with every row through the last block: the full
    forward pass, then `sequence_nll` at the kept rows, on one tape."""
    tokens, rows, cols = [], [], []
    for ex, mask in zip(run, masks):
        r, c = training._kept_targets(ex, mask)
        rows.append(r + len(tokens))
        cols.append(c)
        tokens += ex.tokens
    with nm.GradientTape() as tape:
        logits, _ = forward_tensors(params, tokens, [len(ex.tokens) for ex in run], rows=None)
        loss = nm.sequence_nll(logits, np.concatenate(rows), np.concatenate(cols))
    return float(loss.value), tape.gradients(loss, params.values())


def test_packed_loss_equals_the_full_rows_forward():
    # the last block at the kept rows alone adds in another order, so the
    # loss and every gradient agree within 1e-12 relative, not bitwise
    rng = np.random.default_rng(23)
    params = randomize_params(init(PACK), seed=8)
    run = [_example(rng.integers(0, PACK.vocab_size, 4).tolist(), rng.integers(0, PACK.vocab_size, 5).tolist(), f"e{i}")
           for i in range(3)]
    a, b, c = run
    every = set(range(5))
    cases = [
        [_mask(a, {1}), _mask(b, every), _mask(c, {0, 3})],  # a fully masked example in the middle
        [_mask(a, every), _mask(b, every), _mask(c, {2})],  # only the last example keeps rows
        [_mask(a, every), _mask(b, every - {3}), _mask(c, every)],  # a single kept row
    ]
    for examples, masks in [(run, m) for m in cases] + [_random_run(rng, PACK.max_seq, True) for _ in range(12)]:
        loss, grad = packed_loss(params, examples, masks)
        want, want_grads = _full_rows_packed_loss(params, examples, masks)
        assert loss == pytest.approx(want, rel=1e-12, abs=0.0)
        for name, g, w in zip(params.tensors, ModelParams(PACK, grad).values(), want_grads):
            assert _close(g.value, w), name

    # rows must strictly increase inside the stream, or the logits would be wrong
    tokens = [t for ex in run for t in ex.tokens]
    for rows in ([3, 2], [2, 2, 5], [-1, 4], [0, len(tokens)], [[1, 2]]):
        with pytest.raises(ContractError, match="rows must strictly increase"):
            forward_tensors(params, tokens, [9, 9, 9], rows)


def test_packed_loss_keeps_the_token_checks():
    params = init(PACK)
    half = _example([1] * 10, [2] * 11)  # 21 rows: two overflow max_seq 40
    with pytest.raises(InputError):
        packed_loss(params, [half, half], [None, None])
    with pytest.raises(InputError):
        packed_loss(params, [_example([1, 2], [3]), _example([1, PACK.vocab_size], [3])], [None, None])
    with pytest.raises(InputError):
        forward_tensors(params, [1, 2, 3, 4], [2, 1])  # lengths must cover the tokens
    with pytest.raises(InputError):
        forward_tensors(params, [1, 2, 3, 4], [4, 0])


def test_epoch_pass_step_is_mean_of_per_sample_gradients():
    # one SGD step at lr 1 moves each weight by minus the per-sample mean
    # gradient, whatever runs the batch was cut into
    rng = np.random.default_rng(2)
    params = randomize_params(init(PACK), seed=6)
    batch = []
    for i in range(11):
        n_in, n_out = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        batch.append(_example(rng.integers(0, 10, n_in).tolist(), rng.integers(0, 10, n_out).tolist(), f"b{i}"))
    masks = {ex.id: _mask(ex, {0}) for ex in batch[::3]}
    runs = packs(batch, PACK.max_seq)
    assert [ex for run in runs for ex in run] == batch
    assert len(runs) > 1 and all(sum(len(ex.tokens) for ex in run) <= PACK.max_seq for run in runs)

    cfg = TrainConfig(learning_rate=1.0, epochs=1, batch_size=len(batch), optimizer="sgd")
    stepped = params.copy()
    _epoch_pass(stepped, batch, masks, cfg, np.random.default_rng(0), OptState())
    singles = [masked_loss(params, ex, masks.get(ex.id))[1] for ex in batch]
    for name in params.tensors:
        mean = sum(g[name] for g in singles) / len(batch)
        assert _close(params[name].value - stepped[name].value, mean, rel=1e-11), name


def test_train_config_rejects_an_unknown_optimizer():
    # before any worker starts or any pass runs, and naming the allowed modes
    with pytest.raises(ValueError, match="optimizer must be one of sgd, adam, got 'adamw'"):
        TrainConfig(optimizer="adamw")
    assert [TrainConfig(optimizer=mode).optimizer for mode in ("sgd", "adam")] == ["sgd", "adam"]


def _tiny_corpus(n=24, seed=0):
    rng = np.random.default_rng(seed)
    examples = []
    for i in range(n):
        inp = rng.integers(1, TINY.vocab_size, 3).tolist()
        out = rng.integers(1, TINY.vocab_size, 3).tolist()
        examples.append(_example(inp, out, f"c{i:03d}"))
    return examples


def test_train_deterministic_bitwise():
    corpus = _tiny_corpus()
    cfg = TrainConfig(learning_rate=1e-2, epochs=2, batch_size=8, optimizer="adam", seed=5)
    r1 = train(init(TINY), corpus, None, cfg, val_set=corpus[:4])
    r2 = train(init(TINY), corpus, None, cfg, val_set=corpus[:4])
    assert r1.params.fingerprint() == r2.params.fingerprint()
    assert r1.log == r2.log


def test_train_empty_masks_match_unmasked_trajectory():
    corpus = _tiny_corpus()
    masks = {ex.id: _mask(ex, set()) for ex in corpus}
    cfg = TrainConfig(learning_rate=1e-2, epochs=2, batch_size=8, optimizer="adam", seed=5)
    r1 = train(init(TINY), corpus, None, cfg, val_set=corpus[:4])
    r2 = train(init(TINY), corpus, masks, cfg, val_set=corpus[:4])
    assert r1.params.fingerprint() == r2.params.fingerprint()


def test_train_drops_fully_masked_samples():
    corpus = _tiny_corpus(12)
    masks = {ex.id: _mask(ex, set()) for ex in corpus}
    masks[corpus[0].id] = _mask(corpus[0], {0, 1, 2})
    cfg = TrainConfig(learning_rate=1e-2, epochs=1, batch_size=4, optimizer="adam", seed=5)
    result = train(init(TINY), corpus, masks, cfg, val_set=corpus[:4])
    assert result.log[0]["dropped_fully_masked"] == 1
    # a mask that flags every token of a longer or shorter label is no mask of this sample
    for flags in ([], [True] * (len(corpus[0].output_ids) + 1)):
        masks[corpus[0].id] = NoiseMask(corpus[0].id, flags, [()] * len(flags))
        with pytest.raises(ContractError):
            train(init(TINY), corpus, masks, cfg, val_set=corpus[:4])


def test_train_selects_best_validation_epoch():
    corpus = _tiny_corpus(20)
    cfg = TrainConfig(learning_rate=1e-2, epochs=4, batch_size=8, optimizer="adam", seed=2)
    result = train(init(TINY), corpus, None, cfg, val_set=corpus[:6])
    logged = [e["val_acc"] for e in result.log if "val_acc" in e]
    assert result.best_val_acc == max(logged)
    # ties go to the earlier epoch
    first_best = 1 + logged.index(result.best_val_acc)
    assert result.best_epoch == first_best


def test_a_diverging_fine_tune_logs_the_error_and_returns_the_best_checkpoint():
    # the first update at this rate overflows the next batch's logits, which
    # `sequence_nll` rejects before any loss is computed
    examples = [tokenize(r) for r in gen_synth("addition", 60, 0.25, 0)]
    params = init(ModelConfig(seed=9))
    result = train(params, examples, None, TrainConfig(learning_rate=1e300, epochs=3, seed=0))
    assert result.log == [{"epoch": 1, "error": "sequence_nll input contains non-finite values"}]
    assert (result.best_epoch, result.best_val_acc) == (0, -1.0)
    assert result.params.fingerprint() == params.fingerprint()


def test_train_copy_task_reaches_high_accuracy():
    # end-to-end harness sanity: the sanity task is learnable fast at the
    # default training config
    records = gen_synth("copy", 200, 0.0, 42)
    examples = {r.id: tokenize(r) for r in records}
    tr, va, _ = split_records(records, counts=(160, 20, 20))
    train_ex = [examples[r.id] for r in tr]
    val_ex = [examples[r.id] for r in va]
    result = train(init(ModelConfig()), train_ex, None, TrainConfig(seed=0), val_set=val_ex)
    assert result.best_val_acc >= 0.9
    assert result.best_epoch <= 30


def test_run_experiment_empty_masks_tie():
    # with filtering disabled-equivalent scores (nothing flagged), both arms
    # follow identical trajectories, so the accuracies match exactly
    records = gen_synth("addition", 60, 0.0, 3)
    examples = [tokenize(r) for r in records]
    cfg = TrainConfig(learning_rate=3e-3, epochs=1, batch_size=8, optimizer="adam", seed=1)
    report = run_experiment(
        examples,
        # nothing can pass these rules on a noiseless corpus scored by a raw
        # init model: pcp ~ 1/vocab and flat attention
        FilterConfig(enabled=("KN",)),
        cfg,
        model_config=ModelConfig(seed=9),
        base_epochs=0,
        split_counts=(40, 10, 10),
    )
    assert report["per_attribute_counts"]["KN"] == 0
    assert report["xtf_acc"] == report["normal_acc"]


def test_run_experiment_reports_required_fields():
    records = gen_synth("addition", 60, 0.25, 4)
    examples = [tokenize(r) for r in records]
    cfg = TrainConfig(learning_rate=3e-3, epochs=1, batch_size=8, optimizer="adam", seed=1)
    report = run_experiment(
        examples,
        FilterConfig(),
        cfg,
        model_config=ModelConfig(seed=9),
        base_epochs=1,
        split_counts=(40, 10, 10),
    )
    for key in ("normal_acc", "xtf_acc", "filtered_fraction", "per_attribute_counts", "seed"):
        assert key in report
    assert 0.0 <= report["filtered_fraction"] <= 1.0
    assert "filter_quality" in report  # synthetic corpus carries ground truth
    assert _children() == []


COPY_TRAIN = TrainConfig(learning_rate=1e-2, epochs=3, batch_size=8, optimizer="adam", seed=1)
COPY_MODEL = ModelConfig(d_model=32, n_layers=1, n_heads=2, d_ff=64, seed=9)


def _copy_experiment(records, split_counts=(100, 10, 10), train_config=COPY_TRAIN):
    return run_experiment(
        [tokenize(r) for r in records],
        FilterConfig(enabled=("KN",)),
        train_config,
        model_config=COPY_MODEL,
        base_epochs=0,
        split_counts=split_counts,
    )


def test_run_experiment_unmasked_arm_equals_sequential_train():
    # the forked arm is the same arithmetic as training it in this process
    records = gen_synth("copy", 120, 0.0, 3)
    report = _copy_experiment(records)
    examples = {r.id: tokenize(r) for r in records}
    tr, va, te = ([examples[r.id] for r in part] for part in split_records(records, counts=(100, 10, 10)))
    normal = train(init(COPY_MODEL), tr, None, COPY_TRAIN, val_set=va)
    assert report["normal_acc"] == evaluate(normal.params, te)
    assert report["normal_val_acc"] == normal.best_val_acc
    assert 0.0 < report["normal_acc"] < 1.0 and 0.0 < report["normal_val_acc"]  # not a trivial tie


@fork_only
def test_run_experiment_raises_the_worker_error(monkeypatch):
    # the masked arm's 1000 epochs would take ~40 s; the unmasked arm's error
    # ends it at its next epoch instead
    plain_train = training._train

    def failing_unmasked_train(params, dataset, masks, *args, **kwargs):
        if masks is None:
            raise RuntimeError("unmasked arm failed")
        return plain_train(params, dataset, masks, *args, **kwargs)

    monkeypatch.setattr(training, "_train", failing_unmasked_train)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="unmasked arm failed"):
        _copy_experiment(gen_synth("copy", 120, 0.0, 3), train_config=dataclasses.replace(COPY_TRAIN, epochs=1000))
    assert time.monotonic() - start < 10.0
    assert multiprocessing.active_children() == [] and _children() == []


@fork_only
def test_run_experiment_raises_the_parent_error_at_once(monkeypatch):
    # the unmasked arm's 1000 epochs would take ~40 s; the masked arm's error
    # kills the worker at once instead
    plain_train = training._train

    def failing_masked_train(params, dataset, masks, *args, **kwargs):
        if masks is not None:
            raise RuntimeError("masked arm failed")
        return plain_train(params, dataset, masks, *args, **kwargs)

    monkeypatch.setattr(training, "_train", failing_masked_train)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="masked arm failed"):
        _copy_experiment(gen_synth("copy", 120, 0.0, 3), train_config=dataclasses.replace(COPY_TRAIN, epochs=1000))
    assert time.monotonic() - start < 10.0
    assert multiprocessing.active_children() == [] and _children() == []


def test_run_experiment_raises_the_parent_error():
    # an empty test split makes evaluate raise in both processes
    with pytest.raises(ValueError, match="non-empty"):
        _copy_experiment(gen_synth("copy", 120, 0.0, 3), split_counts=(110, 10, 0))
    assert multiprocessing.active_children() == [] and _children() == []


_SRC_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join([str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH", "")]))

_KILL_DURING_EXPERIMENT = """
import multiprocessing, os, signal, time
from xtf import numerics as nm
from xtf import training
from xtf.data import gen_synth, tokenize
from xtf.filtering import FilterConfig
from xtf.model import ModelConfig

def killed_score_dataset(*args, **kwargs):
    time.sleep(0.5)  # time for the worker to set its parent-death signal
    print(*[p.pid for p in multiprocessing.active_children()], flush=True)
    os.kill(os.getpid(), signal.SIGKILL)

training.score_dataset = killed_score_dataset
training.run_experiment(
    [tokenize(r) for r in gen_synth("copy", 120, 0.0, 3)],
    FilterConfig(enabled=("KN",)),
    training.TrainConfig(epochs=500, seed=1),
    model_config=ModelConfig(d_model=16, n_layers=1, n_heads=2, d_ff=24, seed=9),
    base_epochs=0,
    split_counts=(100, 10, 10),
)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="the worker's parent-death signal is Linux-only")
def test_run_experiment_worker_dies_with_a_killed_parent(tmp_path):
    out = tmp_path / "out.txt"
    # a file, not a pipe: a surviving worker would hold a pipe open
    with open(out, "w") as fh:
        code = subprocess.run([sys.executable, "-c", _KILL_DURING_EXPERIMENT], stdout=fh, stderr=fh, env=_SRC_ENV, timeout=120).returncode
    assert code == -signal.SIGKILL, out.read_text()
    (pid,) = [int(p) for p in out.read_text().split()]

    def alive():
        try:
            state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[-1].split()[0]
        except FileNotFoundError:
            return False
        return state != "Z"  # an orphan's zombie waits for whoever adopted it

    deadline = time.monotonic() + 10.0
    while alive() and time.monotonic() < deadline:
        time.sleep(0.05)
    if alive():
        os.kill(pid, signal.SIGKILL)
        pytest.fail("the worker outlived its parent")


SHARE_MODEL = ModelConfig(d_model=16, n_layers=1, n_heads=2, d_ff=24, seed=3)


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"), reason="no glibc mallopt to keep the heap with")
def test_training_rounds_on_a_steady_heap_fault_in_no_pages():
    # with glibc's default thresholds every round frees its tape temporaries
    # and faults them back in: ~1000 minor faults over these 20 rounds, ~1 kept
    nm.steady_heap()
    config = TrainConfig()
    params = init(ModelConfig())
    examples = [tokenize(r) for r in gen_synth("addition", 40, 0.3, 5)]
    run = packs(examples, params.config.max_seq)[0]
    assert sum(len(ex.tokens) for ex in run) > 100
    state = OptState()

    def rounds(n):
        for _ in range(n):
            _, grad = packed_loss(params, run, [None] * len(run))
            optimizer_step(params, grad, state, config.learning_rate, config.optimizer)

    rounds(3)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    rounds(20)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100


_BASE_WITHOUT_STEADY_HEAP = f"""
from xtf import numerics, training
from xtf.model import ModelConfig
numerics.steady_heap = lambda: None
cfg = training.TrainConfig(learning_rate=3e-3, epochs=2, batch_size=16, seed=2)
base = training.prepare_base({SHARE_MODEL!r}, cfg, 2, 2, task_size=40, background_size=16)
print(base.fingerprint().hex())
"""


def test_prepare_base_is_bitwise_the_same_without_the_steady_heap():
    # a fresh interpreter: the heap setting cannot be undone in this one
    proc = subprocess.run([sys.executable, "-c", _BASE_WITHOUT_STEADY_HEAP], capture_output=True, text=True, env=_SRC_ENV, timeout=120)
    assert proc.returncode == 0, proc.stderr
    cfg = TrainConfig(learning_rate=3e-3, epochs=2, batch_size=16, seed=2)
    base = prepare_base(SHARE_MODEL, cfg, 2, 2, task_size=40, background_size=16)
    assert proc.stdout == base.fingerprint().hex() + "\n"


def _base_corpus(seed, n_task=40, n_background=16):
    corpus = gen_synth("addition", n_task, 0.97, seed) + gen_synth("symbol_noise", n_background, 0.0, seed + 1)
    return [tokenize(r) for r in corpus]


@pytest.mark.parametrize("max_seq, batch_size", [(128, 6), (48, 8)])
@pytest.mark.parametrize("seed", [0, 1])
def test_base_with_the_worker_share_is_bitwise_the_single_process_base(
    seed, max_seq, batch_size, monkeypatch, shared_batches
):
    # (128, 6) cuts most batches into one run, which the worker never gets;
    # (48, 8) cuts them into 3-4 runs, so the worker sums two runs at times
    model_config = ModelConfig(d_model=16, n_layers=1, n_heads=2, d_ff=24, max_seq=max_seq, seed=seed + 3)
    cfg = TrainConfig(learning_rate=3e-3, epochs=1, batch_size=batch_size, optimizer="adam", seed=seed)
    examples = _base_corpus(seed)
    order = np.random.default_rng(subseed(seed, "warmup")).permutation(len(examples))  # warmup_base's first epoch
    batches = [[examples[i] for i in order[j : j + batch_size]] for j in range(0, len(order), batch_size)]
    run_counts = {len(packs(batch, max_seq)) for batch in batches}
    assert {1, 2} <= run_counts if max_seq == 128 else max(run_counts) >= 4
    bases = {}
    for cores in (1, 2):
        monkeypatch.setattr(nm, "available_cores", lambda cores=cores: cores)
        bases[cores] = (
            training.warmup_base(init(model_config), examples, cfg, 2),
            prepare_base(model_config, cfg, 1, seed, task_size=20, background_size=10),
        )
        assert bool(shared_batches) == (cores == 2)
    for alone, shared in zip(bases[1], bases[2]):
        assert shared.fingerprint() == alone.fingerprint()
        assert shared.flat.base is None  # a copy, not a view of the shared buffer
    assert _children() == []


def test_prefix_share_balances_rows(monkeypatch):
    # how many of a batch's runs `_ShareWorker.gradient_sum` sends its worker,
    # seen in one process: no worker starts and no gradient is computed
    sent = []
    worker = SimpleNamespace(send=lambda runs: sent.append(len(runs)), collect=lambda: ([], []))
    monkeypatch.setattr(training, "packed_loss", lambda params, run, masks: (0.0, []))
    monkeypatch.setattr(training, "_gradient_sum", lambda params, runs: sent.append(0))

    def share(rows):
        sent.clear()
        training._ShareWorker.gradient_sum(worker, None, [([_example([1] * (n - 1), [2])], None) for n in rows])
        return sent

    assert share([100]) == [0]
    assert share([126, 120, 60]) == [1]
    assert share([40, 46, 46, 23]) == [2]
    assert share([10, 10, 100]) == [2]


@fork_only
@pytest.mark.parametrize("sides", [("worker",), ("parent",), ("worker", "parent")])
def test_a_non_finite_run_names_the_same_run_with_the_worker_share(sides, monkeypatch, shared_batches):
    # the last run of the worker's share, the first of the parent's or both
    # diverge; the first one in run order is named
    cfg = TrainConfig(learning_rate=3e-3, epochs=1, batch_size=16, optimizer="adam", seed=1)
    examples = _base_corpus(1, n_task=60, n_background=30)
    order = np.random.default_rng(subseed(cfg.seed, "warmup")).permutation(len(examples))
    runs = packs([examples[i] for i in order[32:48]], SHARE_MODEL.max_seq)  # the third batch
    (k,) = nm.balanced_cuts([sum(len(ex.tokens) for ex in run) for run in runs], 2)
    bad = [runs[k - 1 if side == "worker" else k][0].id for side in sides]
    plain_packed_loss = training.packed_loss

    def diverging_packed_loss(params, run, masks):
        loss, grads = plain_packed_loss(params, run, masks)
        return (np.inf if any(ex.id in bad for ex in run) else loss), grads

    monkeypatch.setattr(training, "packed_loss", diverging_packed_loss)
    monkeypatch.setattr(nm, "available_cores", lambda: 1)
    with pytest.raises(training.TrainingError, match=bad[0]) as alone:
        training.warmup_base(init(SHARE_MODEL), examples, cfg, 1)
    monkeypatch.setattr(nm, "available_cores", lambda: 2)
    with pytest.raises(training.TrainingError) as shared:
        training.warmup_base(init(SHARE_MODEL), examples, cfg, 1)
    assert shared_batches
    assert str(shared.value) == str(alone.value)
    assert _children() == []


@fork_only
@pytest.mark.parametrize("side", ["worker", "parent"])
def test_run_experiment_raises_a_base_phase_error_at_once(side, monkeypatch, two_cores):
    # 40 base epochs take well over 10 s; an error on either side in the first
    # batch ends the experiment within seconds and leaves no process behind
    parent_pid = os.getpid()
    plain_packed_loss = training.packed_loss

    def failing_packed_loss(params, examples, masks):
        if (os.getpid() == parent_pid) == (side == "parent"):
            raise RuntimeError(f"base run failed in the {side}")
        return plain_packed_loss(params, examples, masks)

    monkeypatch.setattr(training, "packed_loss", failing_packed_loss)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match=f"base run failed in the {side}"):
        run_experiment(
            [tokenize(r) for r in gen_synth("addition", 60, 0.25, 4)],
            FilterConfig(),
            TrainConfig(epochs=1, batch_size=16, seed=1),
            model_config=ModelConfig(seed=9),
            base_epochs=40,
            split_counts=(40, 10, 10),
        )
    assert time.monotonic() - start < 10.0
    assert _children() == []


_SESSION_EXPERIMENT = """
from xtf import numerics as nm
from xtf import training
from xtf.data import gen_synth, tokenize
from xtf.filtering import FilterConfig
from xtf.model import ModelConfig

training.run_experiment(
    [tokenize(r) for r in gen_synth("addition", 60, 0.25, 4)],
    FilterConfig(),
    training.TrainConfig(epochs=1, batch_size=16, seed=1),
    model_config=ModelConfig(d_model=16, n_layers=1, n_heads=2, d_ff=24, seed=9),
    base_epochs=1,
    split_counts=(40, 10, 10),
)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_run_experiment_leaves_no_process_of_its_session(tmp_path):
    with open(tmp_path / "out.txt", "w") as fh:
        proc = subprocess.Popen(
            [sys.executable, "-c", _SESSION_EXPERIMENT], stdout=fh, stderr=fh, env=_SRC_ENV, start_new_session=True
        )
        assert proc.wait(timeout=120) == 0, (tmp_path / "out.txt").read_text()

    def session_members():
        members = []
        for stat in Path("/proc").glob("[0-9]*/stat"):
            try:
                fields = stat.read_text().rsplit(")", 1)[-1].split()
            except OSError:
                continue
            if int(fields[3]) == proc.pid:  # the session id; the leader's pid under start_new_session
                members.append(stat.parent.name)
        return members

    deadline = time.monotonic() + 5.0
    while session_members() and time.monotonic() < deadline:
        time.sleep(0.05)
    left = session_members()
    for pid in left:
        os.kill(int(pid), signal.SIGKILL)
    assert left == []


def test_prepare_base_deterministic():
    cfg = TrainConfig(learning_rate=3e-3, epochs=1, batch_size=8, optimizer="adam", seed=7)
    a = prepare_base(ModelConfig(seed=2), cfg, 1, 7, task_size=20, background_size=10)
    b = prepare_base(ModelConfig(seed=2), cfg, 1, 7, task_size=20, background_size=10)
    assert a.fingerprint() == b.fingerprint()


@pytest.fixture
def shared_batches(monkeypatch):
    """One entry per batch whose runs `train` shares with its worker."""
    batches = []
    plain_collect = training._ShareWorker.collect

    def counting_collect(self):
        batches.append(None)
        return plain_collect(self)

    monkeypatch.setattr(training._ShareWorker, "collect", counting_collect)
    return batches


def _masked_corpus(seed, n=48):
    """Addition examples with their ground-truth masks; every seventh mask
    covers its whole label, so `train` drops that sample."""
    examples = [tokenize(r) for r in gen_synth("addition", n, 0.3, seed)]
    masks = {ex.id: NoiseMask(ex.id, list(ex.noise), [("GT",) if f else () for f in ex.noise]) for ex in examples}
    for ex in examples[::7]:
        masks[ex.id] = NoiseMask(ex.id, [True] * len(ex.output_ids), [("GT",)] * len(ex.output_ids))
    return examples, masks


def _same_result(a, b):
    assert a.params.fingerprint() == b.params.fingerprint()
    assert (a.log, a.best_epoch, a.best_val_acc) == (b.log, b.best_epoch, b.best_val_acc)


@pytest.mark.parametrize("seed, max_seq, batch_size", [(0, 48, 8), (1, 64, 16), (2, 128, 12)])
def test_train_with_the_share_worker_is_bitwise_the_single_process_loop(
    seed, max_seq, batch_size, two_cores, shared_batches
):
    # batches of 1-6 runs: the worker sums one to three runs while this
    # process holds one to three runs' gradients
    model_config = ModelConfig(d_model=16, n_layers=1, n_heads=2, d_ff=24, max_seq=max_seq, seed=seed + 3)
    cfg = TrainConfig(learning_rate=3e-2, epochs=3, batch_size=batch_size, optimizer="adam", seed=seed)
    examples, masks = _masked_corpus(seed)
    val_set = [strip_noise(ex) for ex in examples[:8]]
    alone = training._train(init(model_config), examples[8:], masks, cfg, val_set)
    shared = train(init(model_config), examples[8:], masks, cfg, val_set=val_set)
    assert shared_batches
    _same_result(shared, alone)
    assert alone.log[0]["dropped_fully_masked"] == 5  # examples 14, 21, 28, 35 and 42
    usable = training._usable(examples[8:], masks)
    kept = sum(training._kept_targets(ex, masks[ex.id])[0].size for ex in usable)
    labels = sum(len(ex.output_ids) for ex in usable)
    for entry in alone.log:
        assert (entry["tokens"], entry["kept_tokens"], entry["masked_tokens"]) == (
            sum(len(ex.tokens) for ex in usable), kept, labels - kept
        )
    assert 0 < kept < labels
    assert multiprocessing.active_children() == [] and _children() == []


def test_a_diverging_fine_tune_logs_the_same_error_with_the_share_worker(two_cores, shared_batches):
    # the second batch's first run is the worker's, which raises on the
    # overflowed logits; this process reports that error, as the loop does
    examples = [tokenize(r) for r in gen_synth("addition", 60, 0.25, 0)]
    params = init(ModelConfig(seed=9))
    cfg = TrainConfig(learning_rate=1e300, epochs=3, batch_size=16, seed=0)
    alone = training._train(params, examples[6:], None, cfg, examples[:6])
    shared = train(params, examples[6:], None, cfg, val_set=examples[:6])
    assert shared_batches
    _same_result(shared, alone)
    assert shared.log == [{"epoch": 1, "error": "sequence_nll input contains non-finite values"}]
    assert multiprocessing.active_children() == [] and _children() == []


@fork_only
@pytest.mark.parametrize("sides", [("worker",), ("parent",), ("worker", "parent")])
def test_train_raises_an_error_of_either_process_and_leaves_no_process(sides, two_cores, monkeypatch):
    # with both failing, the worker's error wins: its runs come first
    parent_pid = os.getpid()
    plain_packed_loss = training.packed_loss

    def failing_packed_loss(params, examples, masks):
        side = "parent" if os.getpid() == parent_pid else "worker"
        if side in sides:
            raise RuntimeError(f"run failed in the {side}")
        return plain_packed_loss(params, examples, masks)

    monkeypatch.setattr(training, "packed_loss", failing_packed_loss)
    examples = [tokenize(r) for r in gen_synth("addition", 40, 0.25, 1)]
    with pytest.raises(RuntimeError, match=f"run failed in the {sides[0]}"):
        train(init(SHARE_MODEL), examples, None, TrainConfig(epochs=2, batch_size=16, seed=1))
    assert multiprocessing.active_children() == [] and _children() == []


@pytest.mark.parametrize("cores, batch_size", [({0}, 16), ({0, 1}, 4)])
def test_train_starts_no_process_on_one_core_or_when_no_batch_spans_two_runs(cores, batch_size, monkeypatch, no_fork):
    # four addition samples never fill SHARE_MODEL's 128 rows
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores, raising=False)
    steadied = []
    monkeypatch.setattr(nm, "steady_heap", lambda: steadied.append(True))
    examples = [tokenize(r) for r in gen_synth("addition", 40, 0.25, 2)]
    assert sum(sorted(len(ex.tokens) for ex in examples)[-4:]) <= SHARE_MODEL.max_seq
    cfg = TrainConfig(learning_rate=3e-3, epochs=2, batch_size=batch_size, seed=2)
    alone = training._train(init(SHARE_MODEL), examples[4:], None, cfg, examples[:4])
    _same_result(train(init(SHARE_MODEL), examples[4:], None, cfg, val_set=examples[:4]), alone)
    # the base's own corpus, whose four longest samples fit in one run too
    base = prepare_base(SHARE_MODEL, cfg, 1, 2, task_size=20, background_size=10)
    assert base.fingerprint() != init(SHARE_MODEL).fingerprint()
    assert len(steadied) == 2  # `train` and `prepare_base` keep the heap steady without a worker too
