"""Fine-tuning with a gradient-masked loss.

Flagged label tokens stay in the teacher-forced context but contribute no
loss term and no gradient. Loss is the per-sample sum over kept tokens,
averaged over the samples of a batch; checkpoints are selected by
validation exact match.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import numerics as nm
from .data import EOS_ID, TokenizedExample, gen_synth, split_records, strip_noise, subseed, tokenize
from .filtering import FilterConfig, NoiseMask, apply_filters, complementarity_report, filter_quality
from .model import (
    ModelConfig,
    ModelParams,
    OptState,
    TrainingError,
    forward,
    forward_tensors,
    init,
    optimizer_step,
    param_shapes,
)
from .numerics import ContractError, GradientTape, Tensor
from .scoring import score_dataset


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 3e-3
    epochs: int = 30
    batch_size: int = 8
    optimizer: str = "adam"
    seed: int = 0
    val_fraction: float = 0.1
    report_every: int = 1

    def __post_init__(self):
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be positive and finite")
        if min(self.epochs, self.batch_size, self.report_every) < 1:
            raise ValueError("epochs, batch_size and report_every must be >= 1")
        if not 0 < self.val_fraction < 1:
            raise ValueError("val_fraction must be in (0, 1)")


def _kept_targets(example: TokenizedExample, mask: NoiseMask | None) -> tuple[np.ndarray, np.ndarray]:
    """Rows (within the example's tokens) that predict its kept label tokens,
    and those tokens' ids."""
    n_out = len(example.output_ids)
    if mask is not None and len(mask.noise) != n_out:
        raise ContractError(
            f"example {example.id!r}: mask length {len(mask.noise)} != label length {n_out}"
        )
    kept = [k for k in range(n_out) if mask is None or not mask.noise[k]]
    rows = np.array([example.l_input + k - 1 for k in kept], dtype=np.intp)
    cols = np.array([example.output_ids[k] for k in kept], dtype=np.intp)
    return rows, cols


def packed_loss(
    params: ModelParams,
    examples: list[TokenizedExample],
    masks: list[NoiseMask | None],
) -> tuple[float, list[np.ndarray]]:
    """Masked loss summed over `examples`, with gradients (in `params.values()`
    order) from one tape. The examples are concatenated without padding into
    one stream of at most `max_seq` rows; no sequence attends to another, so
    the result is the sum of their `masked_loss` results."""
    tokens: list[int] = []
    lengths, rows, cols = [], [], []
    for ex, mask in zip(examples, masks):
        r, c = _kept_targets(ex, mask)
        rows.append(r + len(tokens))
        cols.append(c)
        tokens += ex.tokens
        lengths.append(len(ex.tokens))
    rows_all = np.concatenate(rows)
    if rows_all.size == 0:
        return 0.0, [np.zeros_like(t.value) for t in params.values()]
    with GradientTape() as tape:
        logits, _, _ = forward_tensors(params, tokens, lengths)
        loss = nm.sequence_nll(logits, rows_all, np.concatenate(cols))
    return float(loss.value), tape.gradients(loss, params.values())


def masked_loss(
    params: ModelParams,
    example: TokenizedExample,
    mask: NoiseMask | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Sum of negative log-probabilities over kept label tokens, with
    gradients from one tape. Input positions never contribute; a fully
    masked sample yields loss 0 and all-zero gradients."""
    loss, grads = packed_loss(params, [example], [mask])
    return loss, dict(zip(params.names(), grads))


def evaluate(params: ModelParams, eval_set: list[TokenizedExample]) -> float:
    """Greedy-decoding exact match. The label is compared after stripping
    its trailing EOS; generation stops at EOS or shortly past label length.

    Decoding stops early once a token diverges from the target, which
    cannot change the verdict (greedy decoding is deterministic token by
    token), only the cost."""
    if not eval_set:
        raise ValueError("evaluate needs a non-empty set")

    correct = 0
    for ex in eval_set:
        target = ex.output_ids
        if target and target[-1] == EOS_ID:
            target = target[:-1]
        seq = list(ex.input_ids)
        ok = len(seq) + len(target) < params.config.max_seq
        if ok:
            for expected in target + [EOS_ID]:
                nxt = int(np.argmax(forward(params, seq).logits[-1]))
                if nxt != expected:
                    ok = False
                    break
                seq.append(nxt)
        correct += int(ok)
    return correct / len(eval_set)


@dataclass
class TrainResult:
    params: ModelParams
    log: list[dict] = field(default_factory=list)
    best_epoch: int = 0
    best_val_acc: float = 0.0


def _runs(batch: list[TokenizedExample], max_seq: int) -> list[list[TokenizedExample]]:
    """Cut a batch, in order, into runs of consecutive examples that fit in
    `max_seq` rows together, so one run costs no more activation memory than
    one maximum-length sequence."""
    runs: list[list[TokenizedExample]] = []
    rows = 0
    for ex in batch:
        if not runs or rows + len(ex.tokens) > max_seq:
            runs.append([])
            rows = 0
        runs[-1].append(ex)
        rows += len(ex.tokens)
    return runs


def _epoch_pass(
    params: ModelParams,
    examples: list[TokenizedExample],
    masks: dict[str, NoiseMask] | None,
    config: TrainConfig,
    rng: np.random.Generator,
    opt_state: OptState,
    worker: _ArmWorker | None = None,
) -> float:
    """One shuffled epoch of batched updates; returns mean per-sample loss.

    Each batch is packed into runs of up to `max_seq` rows with one taped
    pass each; the update uses the summed gradient over the batch size, the
    mean of the per-sample gradients. With a `worker` holding `params`, it
    computes a prefix of each batch's runs meanwhile; its gradient sum comes
    first, so the runs are added in the same order either way."""
    order = rng.permutation(len(examples))
    total_loss = 0.0
    for start in range(0, len(order), config.batch_size):
        batch = [examples[i] for i in order[start : start + config.batch_size]]
        runs = [
            (run, [masks.get(ex.id) if masks else None for ex in run]) for run in _runs(batch, params.config.max_seq)
        ]
        k = worker.share(runs) if worker else 0
        if k:  # this process's runs while the worker computes its share; `acc` is its gradient sum
            own = [packed_loss(params, *run) for run in runs[k:]]
            losses, acc = worker.collect()
            results = [(loss, None) for loss in losses] + own
        else:  # one run at a time, so one run's gradients are held at a time
            results, acc = (packed_loss(params, *run) for run in runs), None
        for (run, _), (loss, grads) in zip(runs, results):
            if not math.isfinite(loss):
                raise TrainingError(f"non-finite loss on the run of samples {[ex.id for ex in run]!r}")
            total_loss += loss
            if grads is None:  # the worker's run, in its sum already
                continue
            if acc is None:
                acc = grads
            else:
                for a, g in zip(acc, grads):
                    a += g
        scale = 1.0 / len(batch)
        for a in acc:
            a *= scale
        optimizer_step(params, dict(zip(params.names(), acc)), opt_state, config.learning_rate, config.optimizer)
    return total_loss / len(examples)


# a non-finite value ends the run (see below), so numpy need not also warn of it
@np.errstate(over="ignore", invalid="ignore")
def train(
    params: ModelParams,
    dataset: list[TokenizedExample],
    masks: dict[str, NoiseMask] | None,
    config: TrainConfig,
    val_set: list[TokenizedExample] | None = None,
) -> TrainResult:
    """Epoch loop with seeded shuffling and validation-based selection.

    Samples whose mask covers every label token are dropped up front (and
    counted in the log). The checkpoint with the highest validation exact
    match is returned; ties go to the earlier epoch. A non-finite loss or
    non-finite logits end the run with the best checkpoint so far and a
    last log entry holding the epoch and the error.
    """
    if val_set is None:
        n_val = max(1, int(len(dataset) * config.val_fraction))
        val_set, dataset, _ = split_records(dataset, counts=(n_val, len(dataset) - n_val, 0))

    usable = []
    dropped = 0
    for ex in dataset:
        mask = masks.get(ex.id) if masks else None
        if mask is not None and all(mask.noise):
            dropped += 1
        else:
            usable.append(ex)
    if not usable:
        raise TrainingError("every training sample is fully masked")

    work = params.copy()
    opt_state = OptState()
    rng = np.random.default_rng(config.seed)
    result = TrainResult(params=work.copy(), best_epoch=0, best_val_acc=-1.0)
    for epoch in range(1, config.epochs + 1):
        try:
            train_loss = _epoch_pass(work, usable, masks, config, rng, opt_state)
        except (TrainingError, FloatingPointError) as exc:  # a non-finite loss, or non-finite logits
            result.log.append({"epoch": epoch, "error": str(exc)})
            break
        val_acc = evaluate(work, val_set)
        if epoch % config.report_every == 0 or epoch == config.epochs:
            result.log.append(
                {
                    "epoch": epoch,
                    "train_loss": train_loss,
                    "val_acc": val_acc,
                    "dropped_fully_masked": dropped,
                }
            )
        if val_acc > result.best_val_acc:
            result.best_val_acc = val_acc
            result.best_epoch = epoch
            result.params = work.copy()
    return result


def warmup_base(
    params: ModelParams,
    dataset: list[TokenizedExample],
    config: TrainConfig,
    epochs: int,
    worker: _ArmWorker | None = None,
) -> ModelParams:
    """Unmasked pretraining pass used to prepare a base checkpoint: the
    scorers need a model with some competence before its attention,
    confidence and embedding geometry carry any signal. A `worker` computes
    a share of every batch; the result is bitwise the same without one."""
    work = params.copy() if worker is None else worker.hold(params)
    opt_state = OptState()
    rng = np.random.default_rng(subseed(config.seed, "warmup"))
    for _ in range(epochs):
        _epoch_pass(work, dataset, None, config, rng, opt_state, worker)
    return work


def prepare_base(
    model_config: ModelConfig,
    train_config: TrainConfig,
    base_epochs: int,
    seed: int,
    task: str = "addition",
    task_size: int = 300,
    background_size: int = 120,
    decoration_rate: float = 0.97,
    worker: _ArmWorker | None = None,
) -> ModelParams:
    """Build a base checkpoint from scratch on pretraining data disjoint
    from any fine-tuning corpus: heavily decorated task-format documents
    plus off-task symbol documents.

    The decorated documents teach the base the corpus's formatting-junk
    style, so decorations later score as high-confidence (zero knowledge
    novelty) while genuine task tokens stay novel; the symbol documents
    give off-task symbols a trained embedding identity. The base never
    sees the noisy labels it will later score. `worker` is as in
    `warmup_base`."""
    params = init(model_config)
    if base_epochs <= 0:
        return params
    corpus = gen_synth(task, task_size, decoration_rate, subseed(seed, "base-task"))
    corpus += gen_synth("symbol_noise", background_size, 0.0, subseed(seed, "base-background"))
    examples = [tokenize(r) for r in corpus]
    return warmup_base(params, examples, train_config, base_epochs, worker)


def _shared_params(buffer, config: ModelConfig) -> ModelParams:
    """Parameters of `config` whose tensors are views, in checkpoint order,
    of the float64 shared-memory `buffer`."""
    flat = np.frombuffer(buffer, dtype=np.float64)
    tensors, start = {}, 0
    for name, shape in param_shapes(config).items():
        size = math.prod(shape)
        tensors[name] = Tensor(flat[start : start + size].reshape(shape))
        start += size
    return ModelParams(config, tensors)


def _prefix_share(rows: list[int]) -> int:
    """How many leading runs, of `rows` rows each, the worker computes: the
    split that best balances rows between it and the parent, and none of a
    single run."""
    total = sum(rows)
    return min(range(1, len(rows)), key=lambda k: max(sum(rows[:k]), total - sum(rows[:k])), default=0)


class _ArmWorker:
    """The one worker process of `run_experiment`.

    Until `run_arm`, it computes a prefix of each base batch's runs: it
    reads the parameters this process `hold`s in one shared buffer, gets
    the runs through a pipe (`share`), writes their gradient sum into a
    second shared buffer and sends their losses back (`collect`). Then it
    trains the unmasked arm from the base left in the first buffer. Its
    process has exited when the `with` block ends, by return or raise."""

    def __init__(self, config: ModelConfig, *arm_inputs):
        import multiprocessing  # here, not at module level: ~20 ms off `import xtf.training`
        from concurrent.futures import ProcessPoolExecutor

        ctx = multiprocessing.get_context()
        size = sum(math.prod(shape) for shape in param_shapes(config).values())
        params_buffer, grads_buffer = ctx.RawArray("d", size), ctx.RawArray("d", size)
        self._params = _shared_params(params_buffer, config)
        self._grads = [t.value for t in _shared_params(grads_buffer, config).values()]
        self._conn, self._worker_conn = ctx.Pipe()
        state = (params_buffer, grads_buffer, self._worker_conn, config, *arm_inputs)
        self._pool = ProcessPoolExecutor(1, ctx, initializer=_start_arm_worker, initargs=state)
        self._serving = self._pool.submit(_serve_base_shares)

    def __enter__(self) -> _ArmWorker:
        return self

    def __exit__(self, *exc_info) -> None:
        if not self._serving.done():
            self._conn.send(None)  # ends the worker's base loop, so the pool can shut down
        self._pool.shutdown()
        self._conn.close()
        self._worker_conn.close()

    def hold(self, params: ModelParams) -> ModelParams:
        """`params` copied into the buffer the worker reads, as views of it:
        updating them in place updates the worker's copy."""
        for t, src in zip(self._params.values(), params.values()):
            t.value[...] = src.value
        return self._params

    def share(self, runs: list[tuple]) -> int:
        """Send the worker its prefix of `runs` (`packed_loss` argument
        pairs) and return the prefix's length."""
        k = _prefix_share([sum(len(ex.tokens) for ex in run) for run, _ in runs])
        if k:
            self._conn.send(runs[:k])
        return k

    def collect(self) -> tuple[list[float], list[np.ndarray]]:
        """The losses of the shared runs and their gradient sum (views of
        the shared buffer) once the worker has them. A worker that raises or
        dies first makes this raise at once.

        Both processes busy-wait for each other's message. A blocking wait
        lets the idle vCPU halt, and on a shared 2-vCPU KVM host waking it
        again cost up to milliseconds per batch: over 15 interleaved 5-epoch
        bases, blocking waits took 2.26 s median (3.45 s worst) against
        2.12 s (2.73 s) busy-waiting, and 2.93 s in one process."""
        while not self._conn.poll(0):
            if self._serving.done():
                self._serving.result()  # raises the worker's error
                raise TrainingError("the worker stopped computing base runs")
        return self._conn.recv(), self._grads

    def run_arm(self, base_params: ModelParams):
        """Start the unmasked arm on `base_params` and return the future of
        `_unmasked_arm`'s result."""
        self._conn.send(None)
        self._serving.result()
        self.hold(base_params)
        return self._pool.submit(_unmasked_arm)


_worker_state: tuple = ()  # set only in the worker process, by its initializer


def _start_arm_worker(*state) -> None:
    """Initializer of `_ArmWorker`'s process. Its state (the shared buffers,
    its end of the pipe, the model config and the arm's inputs) comes with
    the process itself (inherited under fork, pickled by the starting thread
    otherwise), so the pool's feeder thread never pickles it. On Linux the
    kernel kills the worker when the process that started it dies, so a
    killed experiment leaves no worker blocked forever."""
    global _worker_state
    _worker_state = state
    nm.die_with_parent()


def _serve_base_shares() -> None:
    """The worker's part of the base, until the parent sends None: for each
    list of runs, their gradient sum in run order into the shared buffer,
    then their losses back through the pipe."""
    params_buffer, grads_buffer, conn, config = _worker_state[:4]
    params = _shared_params(params_buffer, config)
    acc = [t.value for t in _shared_params(grads_buffer, config).values()]
    with nm.one_blas_thread():
        while True:
            while not conn.poll(0):  # busy-waits, as `_ArmWorker.collect` says why
                pass
            if (runs := conn.recv()) is None:
                return
            losses = []
            for run in runs:
                loss, grads = packed_loss(params, *run)
                for a, g in zip(acc, grads):
                    if losses:
                        a += g
                    else:
                        a[...] = g
                losses.append(loss)
            conn.send(losses)


def _unmasked_arm() -> tuple[float, float]:
    """The unmasked arm of `run_experiment`, run in its worker process:
    test accuracy and best validation accuracy of a plain fine-tune."""
    params_buffer, _, _, config, train_ex, val_ex, test_ex, train_config = _worker_state
    with nm.one_blas_thread():
        normal = train(_shared_params(params_buffer, config), train_ex, None, train_config, val_set=val_ex)
        return evaluate(normal.params, test_ex), normal.best_val_acc


def run_experiment(
    dataset: list[TokenizedExample],
    filter_config: FilterConfig,
    train_config: TrainConfig,
    model_config: ModelConfig = ModelConfig(),
    base_params: ModelParams | None = None,
    base_epochs: int = 14,
    split_counts: tuple[int, int, int] | None = None,
    ri_agg: str = "mean",
    domain_source: str = "all_tokens",
    distance_metric: str = "euclidean",
) -> dict:
    """Twin-arm comparison: fine-tune the same base checkpoint with and
    without noise masks and report both test accuracies.

    The base model used for scoring is the shared initial checkpoint,
    before any fine-tuning; both arms consume identical data in identical
    order, so the mask is the only difference. Validation and test labels
    are compared against their de-noised form when ground-truth flags are
    present (synthetic corpora), since the clean label is the actual target.

    One worker process starts first. It computes a share of every batch of
    `prepare_base` (the base is bitwise the single-process one), then
    trains the unmasked arm while this process scores, filters and trains
    the masked arm; BLAS is held at one thread in both throughout. A worker
    error during the base raises at once; any other error propagates once
    the worker has finished. The worker has exited when this returns.
    """
    with nm.one_blas_thread():
        train_ex, val_ex, test_ex = split_records(dataset, counts=split_counts)
        val_ex = [strip_noise(ex) for ex in val_ex]
        test_ex = [strip_noise(ex) for ex in test_ex]
        config = model_config if base_params is None else base_params.config
        with _ArmWorker(config, train_ex, val_ex, test_ex, train_config) as worker:
            if base_params is None:
                base_params = prepare_base(model_config, train_config, base_epochs, train_config.seed, worker=worker)
            normal = worker.run_arm(base_params)
            score_result = score_dataset(
                base_params, train_ex, ri_agg=ri_agg, domain_source=domain_source, distance_metric=distance_metric
            )
            masks, stats = apply_filters(score_result.scores, filter_config)
            masked = train(base_params.copy(), train_ex, {m.id: m for m in masks}, train_config, val_set=val_ex)
            xtf_acc = evaluate(masked.params, test_ex)
            normal_acc, normal_val_acc = normal.result()

    report = {
        "seed": train_config.seed,
        "normal_acc": normal_acc,
        "xtf_acc": xtf_acc,
        "normal_val_acc": normal_val_acc,
        "xtf_val_acc": masked.best_val_acc,
        "filtered_fraction": stats.flagged_tokens / stats.total_tokens if stats.total_tokens else 0.0,
        "per_attribute_counts": stats.per_attribute_counts,
        "total_label_tokens": stats.total_tokens,
        "complementarity": complementarity_report(masks),
        "score_errors": score_result.errors,
    }
    if any(ex.noise is not None for ex in train_ex):
        report["filter_quality"] = filter_quality(masks, train_ex)
    return report
