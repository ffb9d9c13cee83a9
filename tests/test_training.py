import dataclasses
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import TINY, _children, randomize_params
from reference_ops import log_softmax_value
from xtf import numerics as nm
from xtf import training
from xtf.data import EOS_ID, TokenizedExample, gen_synth, split_records, strip_noise, subseed, tokenize
from xtf.filtering import FilterConfig, NoiseMask
from xtf.model import InputError, ModelConfig, OptState, forward, forward_tensors, init
from xtf.numerics import ContractError
from xtf.training import (
    TrainConfig,
    _epoch_pass,
    _runs,
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


def test_evaluate_memorized_and_order_invariance(tiny_params):
    # a model cannot memorize in zero steps, so instead check the contract
    # with a random model: accuracy is order invariant and in [0, 1]
    rng = np.random.default_rng(0)
    eval_set = [
        _example([1, 2], rng.integers(0, TINY.vocab_size, 3).tolist(), f"e{i}")
        for i in range(10)
    ]
    acc1 = evaluate(tiny_params, eval_set)
    acc2 = evaluate(tiny_params, list(reversed(eval_set)))
    assert acc1 == acc2
    assert 0.0 <= acc1 <= 1.0


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
    names = params.names()
    for _ in range(12):
        run, masks = _random_run(rng, PACK.max_seq, with_masks)
        loss, grads = packed_loss(params, run, masks)
        singles = [masked_loss(params, ex, m) for ex, m in zip(run, masks)]
        assert loss == pytest.approx(sum(l for l, _ in singles), rel=1e-12, abs=0.0)
        for name, g in zip(names, grads):
            assert _close(g, sum(gs[name] for _, gs in singles)), name

        tokens = [t for ex in run for t in ex.tokens]
        logits, _, _ = forward_tensors(params, tokens, [len(ex.tokens) for ex in run])
        start = 0
        for ex in run:
            single = forward(params, ex.tokens).logits
            assert _close(logits.value[start : start + len(ex.tokens)], single)
            start += len(ex.tokens)


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
    runs = _runs(batch, PACK.max_seq)
    assert [ex for run in runs for ex in run] == batch
    assert len(runs) > 1 and all(sum(len(ex.tokens) for ex in run) <= PACK.max_seq for run in runs)

    cfg = TrainConfig(learning_rate=1.0, epochs=1, batch_size=len(batch), optimizer="sgd")
    stepped = params.copy()
    _epoch_pass(stepped, batch, masks, cfg, np.random.default_rng(0), OptState())
    singles = [masked_loss(params, ex, masks.get(ex.id))[1] for ex in batch]
    for name in params.names():
        mean = sum(g[name] for g in singles) / len(batch)
        assert _close(params[name].value - stepped[name].value, mean, rel=1e-11), name


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
    # the worker's arm is the same arithmetic as training it in this process
    records = gen_synth("copy", 120, 0.0, 3)
    report = _copy_experiment(records)
    examples = {r.id: tokenize(r) for r in records}
    tr, va, te = ([examples[r.id] for r in part] for part in split_records(records, counts=(100, 10, 10)))
    normal = train(init(COPY_MODEL), tr, None, COPY_TRAIN, val_set=va)
    assert report["normal_acc"] == evaluate(normal.params, te)
    assert report["normal_val_acc"] == normal.best_val_acc
    assert 0.0 < report["normal_acc"] < 1.0 and 0.0 < report["normal_val_acc"]  # not a trivial tie


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="the patch reaches the worker by fork")
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


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="the patch reaches the worker by fork")
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


def _base_corpus(seed, n_task=40, n_background=16):
    corpus = gen_synth("addition", n_task, 0.97, seed) + gen_synth("symbol_noise", n_background, 0.0, seed + 1)
    return [tokenize(r) for r in corpus]


@pytest.mark.parametrize("max_seq, batch_size", [(128, 6), (48, 8)])
@pytest.mark.parametrize("seed", [0, 1])
def test_base_with_the_worker_share_is_bitwise_the_single_process_base(seed, max_seq, batch_size):
    # (128, 6) cuts most batches into one run, which the worker never gets;
    # (48, 8) cuts them into 3-4 runs, so the worker sums two runs at times
    model_config = ModelConfig(d_model=16, n_layers=1, n_heads=2, d_ff=24, max_seq=max_seq, seed=seed + 3)
    cfg = TrainConfig(learning_rate=3e-3, epochs=1, batch_size=batch_size, optimizer="adam", seed=seed)
    examples = _base_corpus(seed)
    order = np.random.default_rng(subseed(seed, "warmup")).permutation(len(examples))  # warmup_base's first epoch
    batches = [[examples[i] for i in order[j : j + batch_size]] for j in range(0, len(order), batch_size)]
    run_counts = {len(_runs(batch, max_seq)) for batch in batches}
    assert {1, 2} <= run_counts if max_seq == 128 else max(run_counts) >= 4
    with nm.one_blas_thread():
        alone = training.warmup_base(init(model_config), examples, cfg, 2)
        with training._ShareWorker(model_config) as worker:
            shared = training.warmup_base(init(model_config), examples, cfg, 2, worker)
        assert shared.fingerprint() == alone.fingerprint()
        kwargs = dict(task_size=20, background_size=10)
        alone = prepare_base(model_config, cfg, 1, seed, **kwargs)
        with training._ShareWorker(model_config) as worker:
            shared = prepare_base(model_config, cfg, 1, seed, **kwargs, worker=worker)
        assert shared.fingerprint() == alone.fingerprint()
    assert _children() == []


def test_prefix_share_balances_rows():
    assert training._prefix_share([100]) == 0
    assert training._prefix_share([126, 120, 60]) == 1
    assert training._prefix_share([40, 46, 46, 23]) == 2
    assert training._prefix_share([10, 10, 100]) == 2


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="the patch reaches the worker by fork")
@pytest.mark.parametrize("sides", [("worker",), ("parent",), ("worker", "parent")])
def test_a_non_finite_run_names_the_same_run_with_the_worker_share(sides, monkeypatch):
    # the last run of the worker's share, the first of the parent's or both
    # diverge; the first one in run order is named
    cfg = TrainConfig(learning_rate=3e-3, epochs=1, batch_size=16, optimizer="adam", seed=1)
    examples = _base_corpus(1, n_task=60, n_background=30)
    order = np.random.default_rng(subseed(cfg.seed, "warmup")).permutation(len(examples))
    runs = _runs([examples[i] for i in order[32:48]], SHARE_MODEL.max_seq)  # the third batch
    k = training._prefix_share([sum(len(ex.tokens) for ex in run) for run in runs])
    bad = [runs[k - 1 if side == "worker" else k][0].id for side in sides]
    plain_packed_loss = training.packed_loss

    def diverging_packed_loss(params, run, masks):
        loss, grads = plain_packed_loss(params, run, masks)
        return (np.inf if any(ex.id in bad for ex in run) else loss), grads

    monkeypatch.setattr(training, "packed_loss", diverging_packed_loss)
    with pytest.raises(training.TrainingError, match=bad[0]) as alone:
        training.warmup_base(init(SHARE_MODEL), examples, cfg, 1)
    with training._ShareWorker(SHARE_MODEL) as worker, pytest.raises(training.TrainingError) as shared:
        training.warmup_base(init(SHARE_MODEL), examples, cfg, 1, worker)
    assert str(shared.value) == str(alone.value)
    assert _children() == []


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="the patch reaches the worker by fork")
@pytest.mark.parametrize("side", ["worker", "parent"])
def test_run_experiment_raises_a_base_phase_error_at_once(side, monkeypatch):
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


fork_only = pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="the patch reaches the worker by fork")


@pytest.fixture
def two_cores(monkeypatch):
    """Two cores to share over, whatever this machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.fixture
def no_fork(monkeypatch):
    def refuse():
        raise AssertionError("a process was started")

    monkeypatch.setattr(os, "fork", refuse)


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
    examples = [tokenize(r) for r in gen_synth("addition", 40, 0.25, 2)]
    assert sum(sorted(len(ex.tokens) for ex in examples)[-4:]) <= SHARE_MODEL.max_seq
    cfg = TrainConfig(learning_rate=3e-3, epochs=2, batch_size=batch_size, seed=2)
    alone = training._train(init(SHARE_MODEL), examples[4:], None, cfg, examples[:4])
    _same_result(train(init(SHARE_MODEL), examples[4:], None, cfg, val_set=examples[:4]), alone)
