import struct

import numpy as np
import pytest

from conftest import TINY, randomize_params
from reference_ops import (
    embed,
    finite_diff_check,
    log_softmax,
    next_token_probs,
    pick,
    ReferenceOptState,
    reference_optimizer_step,
    scale,
    total,
)
from xtf.data import TokenizedExample
from xtf.model import (
    MAX_WEIGHTS,
    OPTIMIZERS,
    ConfigError,
    InputError,
    ModelConfig,
    ModelParams,
    OptState,
    TrainingError,
    forward,
    forward_tensors,
    init,
    load_checkpoint,
    optimizer_step,
    param_shapes,
    save_checkpoint,
)
from xtf.numerics import GradientTape, Tensor
from xtf.training import masked_loss


def test_init_deterministic():
    a = init(TINY)
    b = init(TINY)
    assert a.fingerprint() == b.fingerprint()


def test_init_seed_changes_params():
    a = init(TINY)
    b = init(ModelConfig(**{**TINY.__dict__, "seed": 8}))
    assert a.fingerprint() != b.fingerprint()


def test_init_rejects_indivisible_heads():
    with pytest.raises(ConfigError):
        ModelConfig(d_model=33, n_heads=2)


def test_config_bounds_the_weight_count():
    # counted, not allocated: each of these would ask `init` for gigabytes,
    # and a billion blocks would take as long to list
    for sizes in (dict(d_model=100_000_000), dict(n_layers=10**9), dict(vocab_size=2**24), dict(d_ff=2**20)):
        with pytest.raises(ConfigError, match=f"{next(iter(sizes))}=.* weights, more than the {MAX_WEIGHTS} allowed"):
            ModelConfig(**sizes)
    # the count is that of `param_shapes`: the largest vocabulary that fits
    # passes, one more token (d_model more weights) fails
    weights = lambda cfg: sum(int(np.prod(s)) for s in param_shapes(cfg).values())
    one = ModelConfig(vocab_size=1)
    fits = ModelConfig(vocab_size=1 + (MAX_WEIGHTS - weights(one)) // one.d_model)
    assert MAX_WEIGHTS - one.d_model < weights(fits) <= MAX_WEIGHTS
    with pytest.raises(ConfigError):
        ModelConfig(vocab_size=fits.vocab_size + 1)


def test_forward_attention_rows_normalized(tiny_params):
    trace = forward(tiny_params, [1, 2, 3, 4, 5, 6])
    sums = trace.attention.sum(axis=-1)
    assert np.all(np.abs(sums - 1.0) <= 1e-9)


def test_forward_causal_mask_exact_zeros(tiny_params):
    trace = forward(tiny_params, [1, 2, 3, 4, 5])
    s = 5
    for q in range(s):
        for p in range(q + 1, s):
            assert np.all(trace.attention[:, :, q, p] == 0.0)


def test_forward_single_token(tiny_params):
    trace = forward(tiny_params, [3])
    assert trace.logits.shape == (1, TINY.vocab_size)
    np.testing.assert_array_equal(trace.attention[:, :, 0, 0], np.ones((TINY.n_layers, TINY.n_heads)))


def test_forward_rejects_bad_inputs(tiny_params):
    with pytest.raises(InputError):
        forward(tiny_params, [])
    with pytest.raises(InputError):
        forward(tiny_params, [TINY.vocab_size])
    with pytest.raises(InputError):
        forward(tiny_params, list(range(TINY.max_seq + 1)))


def test_an_untaped_stream_may_exceed_max_seq_but_no_sequence_may(tiny_generic_params):
    # scoring packs many sequences into one untaped stream; a tape keeps the
    # max_seq cap on the whole stream, and each message names its own limit
    lengths = [TINY.max_seq, 9, TINY.max_seq - 1, 5]  # 41 rows
    tokens = np.random.default_rng(31).integers(0, TINY.vocab_size, sum(lengths)).tolist()
    logits, _ = forward_tensors(tiny_generic_params, tokens, lengths)
    ends = np.cumsum(lengths).tolist()
    for a, b in zip([0, *ends[:-1]], ends):
        own = forward(tiny_generic_params, tokens[a:b]).logits
        np.testing.assert_allclose(logits.value[a:b], own, rtol=0, atol=1e-12)
    too_long = f"^sequence length {TINY.max_seq + 1} exceeds max_seq {TINY.max_seq}$"
    with pytest.raises(InputError, match=too_long):
        forward_tensors(tiny_generic_params, tokens[: TINY.max_seq + 4], [3, TINY.max_seq + 1])
    with GradientTape(), pytest.raises(InputError, match=too_long):
        forward_tensors(tiny_generic_params, tokens[: TINY.max_seq + 1])
    with GradientTape(), pytest.raises(InputError, match=f"^a taped stream of 41 rows exceeds max_seq {TINY.max_seq}$"):
        forward_tensors(tiny_generic_params, tokens, lengths)


def test_forward_pure_function_bitwise(tiny_params):
    a = forward(tiny_params, [1, 2, 3])
    b = forward(tiny_params, [1, 2, 3])
    assert a.logits.tobytes() == b.logits.tobytes()
    assert a.attention.tobytes() == b.attention.tobytes()


def test_next_token_probs_near_uniform_at_init():
    # init-scale analysis: the final norm makes the stream unit scale, so
    # logits ~ N(0, (0.02 * sqrt(d_model))^2) ~ N(0, 0.16^2) and each prob
    # lies within a factor ~e^{4 sigma} of 1/vocab; assert the 2x envelope
    cfg = ModelConfig(vocab_size=96, seed=5)
    params = init(cfg)
    for prefix in ([10, 20, 30], [40], [1, 2, 3, 4, 5, 6]):
        probs = next_token_probs(params, prefix)
        assert np.all(probs > 0.5 / 96) and np.all(probs < 2.0 / 96)


def test_next_token_probs_sum_to_one(tiny_params):
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(1, TINY.max_seq))
        prefix = rng.integers(0, TINY.vocab_size, size=n).tolist()
        p = next_token_probs(tiny_params, prefix)
        assert abs(p.sum() - 1.0) <= 1e-12


def test_teacher_forced_product_equals_exp_negative_loss(tiny_generic_params):
    # chain rule of the sequence probability against the unmasked loss
    ex = TokenizedExample("t", [1, 2], [3, 4, 5])
    loss, _ = masked_loss(tiny_generic_params, ex)
    product = 1.0
    prefix = list(ex.input_ids)
    for tok in ex.output_ids:
        product *= next_token_probs(tiny_generic_params, prefix)[tok]
        prefix.append(tok)
    assert abs(product - np.exp(-loss)) <= 1e-9 * product


def test_embed_is_table_row(tiny_params):
    v = embed(tiny_params, 4)
    np.testing.assert_array_equal(v, tiny_params["tok_emb"].value[4])
    np.testing.assert_array_equal(v, embed(tiny_params, 4))
    with pytest.raises(InputError):
        embed(tiny_params, TINY.vocab_size)


def test_embed_changes_after_touching_step(tiny_params):
    before = embed(tiny_params, 2)
    grad = ModelParams(TINY)
    grad["tok_emb"].value[2] = 1.0
    optimizer_step(tiny_params, grad.flat, OptState(), lr=0.1, mode="sgd")
    after = embed(tiny_params, 2)
    assert not np.array_equal(before, after)


def test_sgd_step_literal():
    cfg = ModelConfig(vocab_size=2, d_model=2, n_layers=1, n_heads=1, d_ff=2, max_seq=4, seed=0)
    params = init(cfg)
    params["tok_emb"].value[...] = 0.0
    grad = ModelParams(cfg)
    grad["tok_emb"].value[0, 0] = 1.0
    optimizer_step(params, grad.flat, OptState(), lr=0.1, mode="sgd")
    assert params["tok_emb"].value[0, 0] == pytest.approx(-0.1, abs=1e-15)


def test_zero_gradient_keeps_params(tiny_params):
    before = tiny_params.fingerprint()
    grad = np.zeros_like(tiny_params.flat)
    optimizer_step(tiny_params, grad, OptState(), lr=0.5, mode="sgd")
    assert tiny_params.fingerprint() == before
    optimizer_step(tiny_params, grad, OptState(), lr=0.5, mode="adam")
    assert tiny_params.fingerprint() == before


@pytest.mark.parametrize("magnitude", [1e-3, 1.0, 1e3])
def test_adam_first_step_magnitude(magnitude):
    # first-step closed form: update = lr * g / (|g| + eps) for constant g
    cfg = ModelConfig(vocab_size=2, d_model=2, n_layers=1, n_heads=1, d_ff=2, max_seq=4, seed=0)
    params = init(cfg)
    before = params["tok_emb"].value.copy()
    grad = ModelParams(cfg)
    grad["tok_emb"].value[...] = magnitude
    optimizer_step(params, grad.flat, OptState(), lr=0.01, mode="adam")
    delta = np.abs(params["tok_emb"].value - before)
    np.testing.assert_allclose(delta, 0.01, rtol=1e-4)


def test_optimizer_rejects_non_finite(tiny_params):
    grad = ModelParams(TINY)
    grad["tok_emb"].value[0, 0] = np.nan
    with pytest.raises(TrainingError, match="'tok_emb'"):
        optimizer_step(tiny_params, grad.flat, OptState(), lr=0.1, mode="sgd")


@pytest.mark.parametrize("extra", [-1, 1])
def test_optimizer_rejects_a_gradient_of_the_wrong_size(tiny_params, extra):
    before = tiny_params.fingerprint()
    grad = np.zeros(tiny_params.flat.size + extra)
    for mode in OPTIMIZERS:
        with pytest.raises(TrainingError, match="shape"):
            optimizer_step(tiny_params, grad, OptState(), lr=0.1, mode=mode)
    assert tiny_params.fingerprint() == before


@pytest.mark.parametrize("mode", OPTIMIZERS)
@pytest.mark.parametrize("tie_output", [True, False])
def test_optimizer_is_bitwise_the_per_tensor_reference(mode, tie_output):
    # the flat step against one taken tensor by tensor on separate arrays,
    # over 60 steps of gradients that span many magnitudes and hold zeros
    cfg = ModelConfig(**{**TINY.__dict__, "tie_output": tie_output})
    params, state = init(cfg), OptState()
    want, want_state = {n: t.value.copy() for n, t in params.tensors.items()}, ReferenceOptState()
    by_name = lambda flat: {n: t.value.copy() for n, t in ModelParams(cfg, flat).tensors.items()}
    rng = np.random.default_rng(11)
    for step in range(60):
        grad = rng.normal(size=params.flat.size) * 10.0 ** rng.integers(-6, 3, params.flat.size)
        grad[rng.random(grad.size) < 0.1] = 0.0
        optimizer_step(params, grad, state, lr=3e-3, mode=mode)
        reference_optimizer_step(want, by_name(grad), want_state, lr=3e-3, mode=mode)
        assert params.fingerprint() == b"".join(w.tobytes() for w in want.values()), step
    if mode == "adam":
        assert state.step_count == want_state.step_count == 60
        assert state.m.tobytes() == b"".join(want_state.m[n].tobytes() for n in params.tensors)
        assert state.v.tobytes() == b"".join(want_state.v[n].tobytes() for n in params.tensors)


def test_loss_gradients_match_finite_differences(tiny_generic_params):
    ex = TokenizedExample("t", [1, 2, 3], [4, 5, 6])
    rows = np.array([2, 3, 4])
    cols = np.array([4, 5, 6])

    def loss_fn():
        logits, _ = forward_tensors(tiny_generic_params, ex.tokens)
        return scale(total(pick(log_softmax(logits, axis=-1), rows, cols)), -1.0)

    assert finite_diff_check(loss_fn, tiny_generic_params.values(), 1e-5) <= 1e-4


def test_untied_output_projection():
    cfg = ModelConfig(vocab_size=10, d_model=6, n_layers=1, n_heads=2, d_ff=8, max_seq=8, seed=3, tie_output=False)
    params = init(cfg)
    assert "out_proj" in params.tensors
    trace = forward(params, [1, 2, 3])
    assert trace.logits.shape == (3, 10)


def test_checkpoint_round_trip_bitwise(tmp_path, tiny_generic_params):
    path = tmp_path / "model.ckpt"
    save_checkpoint(tiny_generic_params, path)
    loaded = load_checkpoint(path)
    assert loaded.config == tiny_generic_params.config
    assert list(loaded.tensors) == list(tiny_generic_params.tensors)
    assert loaded.fingerprint() == tiny_generic_params.fingerprint()
    # saving the loaded params reproduces the file byte for byte
    path2 = tmp_path / "model2.ckpt"
    save_checkpoint(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(InputError):
        load_checkpoint(path)


def _checkpoint_with_wrong_tensor(params, path):
    """A well-formed file whose first layer's ff.b1 has one entry too many."""
    bad = params.copy()
    bad.tensors["layer0.ff.b1"] = Tensor(np.zeros(bad.config.d_ff + 1))
    save_checkpoint(bad, path)


def test_checkpoint_rejects_every_malformed_file(tmp_path, tiny_generic_params):
    good = tmp_path / "good.ckpt"
    save_checkpoint(tiny_generic_params, good)
    blob = good.read_bytes()
    bad = tmp_path / "bad.ckpt"
    renamed = blob.replace(b"layer1.ff.w1", b"layer1.ff.wX")
    assert renamed != blob
    for mangled in (blob + b"JUNKJUNK", blob[:20], blob[:-8], blob[: len(blob) // 2], renamed):
        bad.write_bytes(mangled)
        with pytest.raises(InputError):
            load_checkpoint(bad)
    _checkpoint_with_wrong_tensor(tiny_generic_params, bad)
    with pytest.raises(InputError):
        load_checkpoint(bad)
    short = tiny_generic_params.copy()
    del short.tensors["final.bias"]
    save_checkpoint(short, bad)
    with pytest.raises(InputError):
        load_checkpoint(bad)
    # a header asking for a model past the weight ceiling fails before any tensor is read
    huge = bytearray(blob)
    struct.pack_into("<I", huge, 12, 100_000_000)  # d_model, after magic, version and vocab_size
    bad.write_bytes(bytes(huge))
    with pytest.raises(InputError, match=f"{bad}: .*d_model=100000000.* weights"):
        load_checkpoint(bad)


def test_save_checkpoint_leaves_no_temporary(tmp_path, tiny_params):
    import os

    save_checkpoint(tiny_params, tmp_path / "a.ckpt")
    save_checkpoint(tiny_params, tmp_path / "a.ckpt")
    assert [p.name for p in tmp_path.iterdir()] == ["a.ckpt"]
    umask = os.umask(0)
    os.umask(umask)
    assert (tmp_path / "a.ckpt").stat().st_mode & 0o777 == 0o666 & ~umask


def test_scoring_probes_share_one_forward(tiny_params):
    # the trace exposes everything the scorers need in one pass
    trace = forward(tiny_params, [1, 2, 3, 4])
    assert trace.logits.shape == (4, TINY.vocab_size)
    assert trace.attention.shape == (TINY.n_layers, TINY.n_heads, 4, 4)
