"""A minimal decoder-only transformer whose forward pass returns a trace of
logits and per-layer/head attention maps, which the scorers read along with
the raw embedding table. Also hosts the optimizer
and checkpoint IO.

Architecture: pre-norm residual blocks, learned positions, output head tied
to the embedding table (untie via config), and a terminal norm before the
head. Attention projections carry biases except the key projection, whose
bias is a softmax no-op (it shifts every score in a query row equally) and
would otherwise sit in the checkpoint as a forever-zero-gradient parameter.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .data import write_atomic
from .numerics import ContractError, Tensor


class ConfigError(ValueError):
    """Invalid model configuration."""


class InputError(ValueError):
    """Tokens that the model cannot consume (overlength, out of vocab)."""


class TrainingError(RuntimeError):
    """Optimization went non-finite or otherwise off the rails."""


MASK_FILL = -1e30  # finite stand-in for -inf; underflows to exactly 0 after softmax
MAX_WEIGHTS = 2**24  # 128 MiB of float64: bounds what a config or checkpoint header can ask `init` for


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int = 99
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 2
    d_ff: int = 128
    max_seq: int = 128
    seed: int = 0
    tie_output: bool = True

    def __post_init__(self):
        for name in ("vocab_size", "d_model", "n_layers", "n_heads", "d_ff", "max_seq"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"d_model={self.d_model} not divisible by n_heads={self.n_heads}")
        # the count is linear in n_layers, so the tables of 0 and 1 blocks give it without a per-block loop
        without, one = (sum(math.prod(s) for s in param_shapes(self, n).values()) for n in (0, 1))
        weights = without + self.n_layers * (one - without)
        if weights > MAX_WEIGHTS:
            raise ConfigError(
                f"vocab_size={self.vocab_size}, d_model={self.d_model}, n_layers={self.n_layers}, d_ff={self.d_ff} "
                f"and max_seq={self.max_seq} make {weights} weights, more than the {MAX_WEIGHTS} allowed"
            )


class ModelParams:
    """All weights of `config` in one float64 buffer, `flat`, in `param_shapes`
    (checkpoint) order; `tensors` are views of it. A gradient, the two Adam
    moments and the share worker's two shared-memory buffers use the same
    layout, so a copy, a step or a hand-over is one operation on one array.
    Without `flat`, a zero buffer of the right size is made."""

    def __init__(self, config: ModelConfig, flat: np.ndarray | None = None):
        shapes = param_shapes(config)
        sizes = [math.prod(shape) for shape in shapes.values()]
        self.config = config
        self.flat = np.zeros(sum(sizes)) if flat is None else flat
        ends = np.cumsum(sizes).tolist()
        self.tensors = {
            name: Tensor(self.flat[end - size : end].reshape(shape))
            for (name, shape), size, end in zip(shapes.items(), sizes, ends)
        }

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def values(self) -> list[Tensor]:
        return list(self.tensors.values())

    def copy(self) -> "ModelParams":
        return ModelParams(self.config, self.flat.copy())

    def fingerprint(self) -> bytes:
        return self.flat.tobytes()


@dataclass
class ForwardTrace:
    """What one causal forward pass exposes at its query rows `first` on.

    attention[l, h, q - first, p] is the weight query position q puts on key
    position p; each row over p sums to 1 and is exactly 0 for p > q.
    """

    logits: np.ndarray  # (seq - first, vocab)
    attention: np.ndarray  # (n_layers, n_heads, seq - first, seq)
    first: int = 0


def param_shapes(config: ModelConfig, n_layers: int | None = None) -> dict[str, tuple[int, ...]]:
    """Name and shape of every weight, in construction (and checkpoint)
    order; with `n_layers`, of a model with that many blocks instead."""
    d, dff, v = config.d_model, config.d_ff, config.vocab_size
    shapes: dict[str, tuple[int, ...]] = {"tok_emb": (v, d), "pos_emb": (config.max_seq, d)}
    for i in range(config.n_layers if n_layers is None else n_layers):
        p = f"layer{i}"
        shapes[f"{p}.ln1.gain"] = shapes[f"{p}.ln1.bias"] = (d,)
        for name in ("wq", "wk", "wv", "wo"):
            shapes[f"{p}.attn.{name}"] = (d, d)
            # no key bias: it shifts every score in a query row by the same
            # constant, which softmax cancels, leaving a forever-zero gradient
            if name != "wk":
                shapes[f"{p}.attn.{name.replace('w', 'b')}"] = (d,)
        shapes[f"{p}.ln2.gain"] = shapes[f"{p}.ln2.bias"] = (d,)
        shapes[f"{p}.ff.w1"] = (d, dff)
        shapes[f"{p}.ff.b1"] = (dff,)
        shapes[f"{p}.ff.w2"] = (dff, d)
        shapes[f"{p}.ff.b2"] = (d,)
    # terminal norm: a pre-norm stack feeds an unnormalized residual stream
    # to the output head, which stalls training at this scale without it
    shapes["final.gain"] = shapes["final.bias"] = (d,)
    if not config.tie_output:
        shapes["out_proj"] = (v, d)
    return shapes


def init(config: ModelConfig) -> ModelParams:
    """Deterministic initialization: N(0, 0.02) weights, zero biases, unit gains."""
    rng = np.random.default_rng(config.seed)
    params = ModelParams(config)
    for name, t in params.tensors.items():
        leaf = name.rsplit(".", 1)[-1]
        if leaf == "gain":
            t.value[...] = 1.0
        elif not leaf.startswith("b"):
            t.value[...] = rng.normal(0.0, 0.02, size=t.shape)
    return params


def _check_tokens(config: ModelConfig, tokens, lengths=None) -> tuple[np.ndarray, tuple[tuple[int, int], ...]]:
    """Validated ids plus the (start, end) rows of each packed sequence.

    A packed stream obeys the single-sequence limits: at most `max_seq` rows
    in all, every sequence non-empty, every id in the vocabulary."""
    ids = np.asarray(tokens, dtype=np.intp)
    if ids.ndim != 1 or ids.size == 0:
        raise InputError("tokens must be a non-empty 1-D sequence")
    if ids.size > config.max_seq:
        raise InputError(f"sequence length {ids.size} exceeds max_seq {config.max_seq}")
    if ids.min() < 0 or ids.max() >= config.vocab_size:
        raise InputError(f"token id out of vocabulary (vocab_size={config.vocab_size})")
    if lengths is None:
        return ids, ((0, ids.size),)
    ends = np.cumsum(lengths)
    if len(ends) == 0 or min(lengths) < 1 or ends[-1] != ids.size:
        raise InputError(f"packed lengths {list(lengths)} do not partition {ids.size} tokens")
    return ids, tuple(zip((0, *ends[:-1].tolist()), ends.tolist()))


_MASK_CACHE: dict[int, np.ndarray] = {}


def _causal_mask(s: int) -> np.ndarray:
    mask = _MASK_CACHE.get(s)
    if mask is None:
        mask = np.zeros((s, s))
        mask[np.triu_indices(s, k=1)] = MASK_FILL
        _MASK_CACHE[s] = mask
    return mask


def _causal_attention(
    q: Tensor, k: Tensor, v: Tensor, n_heads: int, bounds: tuple[tuple[int, int], ...] | None = None, rows=None
) -> tuple[Tensor, list[np.ndarray]]:
    """Fused multi-head causal attention over (seq, d_model) projections.

    `bounds` lists the (start, end) rows of each packed sequence (default:
    one sequence); each block attends only within itself, so no row sees
    across a bound and no score is computed there. With `rows` (sorted rows
    of the stream), `q` and the result hold those rows' queries alone. One
    tape record instead of a dozen; returns the mixed context and, per
    sequence, the per-head attention weights (heads, queries, len), exactly
    0 where a key follows its query.
    """
    s, d = k.shape
    n = q.shape[0]
    dh = d // n_heads
    scale = 1.0 / np.sqrt(dh)
    bounds = bounds or ((0, s),)
    # the query rows [i, j) of each sequence [a, b), and their mask rows
    if rows is None:
        spans = [(a, b, a, b, _causal_mask(b - a)) for a, b in bounds]
    else:
        cuts = np.searchsorted(rows, bounds).tolist()
        spans = [(a, b, i, j, _causal_mask(b - a)[rows[i:j] - a]) for (a, b), (i, j) in zip(bounds, cuts)]
    q3 = q.value.reshape(n, n_heads, dh).swapaxes(0, 1)
    k3 = k.value.reshape(s, n_heads, dh).swapaxes(0, 1)
    v3 = v.value.reshape(s, n_heads, dh).swapaxes(0, 1)
    ctx3 = np.empty((n_heads, n, dh))
    blocks = []
    for a, b, i, j, mask in spans:
        scores = q3[:, i:j] @ k3[:, a:b].swapaxes(1, 2) * scale + mask
        m = scores.max(axis=-1, keepdims=True)
        e = np.exp(scores - m)
        w = e / e.sum(axis=-1, keepdims=True)
        ctx3[:, i:j] = w @ v3[:, a:b]
        blocks.append(w)
    out = Tensor(ctx3.swapaxes(0, 1).reshape(n, d))

    def bwd(g):
        g3 = g.reshape(n, n_heads, dh).swapaxes(0, 1)
        g_q3, g_k3, g_v3 = (np.empty((n_heads, r, dh)) for r in (n, s, s))
        for (a, b, i, j, _), w in zip(spans, blocks):
            g_w = g3[:, i:j] @ v3[:, a:b].swapaxes(1, 2)
            g_v3[:, a:b] = w.swapaxes(1, 2) @ g3[:, i:j]
            g_scores = w * (g_w - np.sum(w * g_w, axis=-1, keepdims=True))
            g_scores *= scale
            g_q3[:, i:j] = g_scores @ k3[:, a:b]
            g_k3[:, a:b] = g_scores.swapaxes(1, 2) @ q3[:, i:j]
        to_flat = lambda a: a.swapaxes(0, 1).reshape(-1, d)
        return to_flat(g_q3), to_flat(g_k3), to_flat(g_v3)

    nm.record_op(out, (q, k, v), bwd)
    return out, blocks


def forward_tensors(params: ModelParams, tokens, lengths=None, rows=None) -> tuple[Tensor, list[list[np.ndarray]]]:
    """Causal forward pass. Returns the logits tensor (differentiable when a
    tape is active) and, per layer, each sequence's attention weights.

    With `lengths`, `tokens` is several sequences concatenated without
    padding; each starts at position 0 and attends only within itself, so
    its rows of the result are those of its own forward pass.

    With `rows`, strictly increasing rows of `tokens`, the logits are those
    rows' alone (and equal the full pass's up to rounding): every row still
    gives keys and values, but the last block, the final norm and the head
    run only at `rows`, whose queries alone the last layer's weights hold."""
    cfg = params.config
    ids, bounds = _check_tokens(cfg, tokens, lengths)
    if rows is not None:
        rows = np.asarray(rows, dtype=np.intp)
        if rows.ndim != 1 or (rows.size and (rows[0] < 0 or rows[-1] >= ids.size or np.any(rows[1:] <= rows[:-1]))):
            raise ContractError(f"rows must strictly increase inside [0, {ids.size}), got {rows.tolist()}")
    pos_ids = None if lengths is None else np.concatenate([np.arange(b - a) for a, b in bounds])

    x = nm.embed_positions(params["tok_emb"], params["pos_emb"], ids, pos_ids)
    attn_maps: list[list[np.ndarray]] = []

    for i in range(cfg.n_layers):
        p = f"layer{i}"
        last = rows is not None and i == cfg.n_layers - 1
        normed = nm.layer_norm(x, params[f"{p}.ln1.gain"], params[f"{p}.ln1.bias"])
        q = nm.linear(nm.gather_rows(normed, rows) if last else normed, params[f"{p}.attn.wq"], params[f"{p}.attn.bq"])
        k = nm.matmul(normed, params[f"{p}.attn.wk"])
        v = nm.linear(normed, params[f"{p}.attn.wv"], params[f"{p}.attn.bv"])
        ctx, weights = _causal_attention(q, k, v, cfg.n_heads, bounds, rows if last else None)
        attn_maps.append(weights)
        if last:
            x = nm.gather_rows(x, rows)
        x = nm.add(x, nm.linear(ctx, params[f"{p}.attn.wo"], params[f"{p}.attn.bo"]))

        normed2 = nm.layer_norm(x, params[f"{p}.ln2.gain"], params[f"{p}.ln2.bias"])
        ff_out = nm.feed_forward(
            normed2, params[f"{p}.ff.w1"], params[f"{p}.ff.b1"], params[f"{p}.ff.w2"], params[f"{p}.ff.b2"]
        )
        x = nm.add(x, ff_out)

    x = nm.layer_norm(x, params["final.gain"], params["final.bias"])
    out_table = params["tok_emb"] if cfg.tie_output else params["out_proj"]
    logits = nm.matmul(x, nm.transpose(out_table, (1, 0)))
    return logits, attn_maps


def forward(params: ModelParams, tokens, first: int = 0) -> ForwardTrace:
    """Untaped forward pass packaged as a trace of plain arrays. With `first`
    > 0, the last block runs and the trace holds query rows `first` on only."""
    if first and not 0 < first < len(tokens):
        raise ContractError(f"first must lie in [0, {len(tokens)}), got {first}")
    logits, attn_maps = forward_tensors(params, tokens, rows=np.arange(first, len(tokens)) if first else None)
    return ForwardTrace(logits.value, np.stack([b[0][:, first - len(tokens) :] for b in attn_maps]), first)


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

OPTIMIZERS = ("sgd", "adam")  # the modes of optimizer_step
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class OptState:
    step_count: int = 0
    m: np.ndarray | None = None  # Adam's moments, laid out like `ModelParams.flat`
    v: np.ndarray | None = None


def optimizer_step(
    params: ModelParams, grad: np.ndarray, opt_state: OptState, lr: float, mode: str = "sgd"
) -> OptState:
    """One update in place from `grad`, laid out like `params.flat`. `mode`
    is "sgd" (θ ← θ − η·g) or "adam"."""
    if grad.shape != params.flat.shape:
        raise TrainingError(f"gradient of shape {grad.shape} for parameters of shape {params.flat.shape}")
    if not np.isfinite(grad).all():
        name = next(n for n, g in ModelParams(params.config, grad).tensors.items() if not np.isfinite(g.value).all())
        raise TrainingError(f"non-finite gradient for parameter {name!r}")
    if mode == "sgd":
        params.flat -= lr * grad
    elif mode == "adam":
        if opt_state.m is None:
            opt_state.m, opt_state.v = np.zeros_like(grad), np.zeros_like(grad)
        opt_state.step_count += 1
        t, m, v = opt_state.step_count, opt_state.m, opt_state.v
        m *= ADAM_BETA1
        m += (1 - ADAM_BETA1) * grad
        v *= ADAM_BETA2
        v += (1 - ADAM_BETA2) * grad * grad
        m_hat = m / (1 - ADAM_BETA1**t)
        v_hat = v / (1 - ADAM_BETA2**t)
        params.flat -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    else:
        raise ConfigError(f"unknown optimizer mode {mode!r}")
    return opt_state


# ---------------------------------------------------------------------------
# Checkpoint IO: little-endian binary, bitwise round-trip stable.
#
# Layout: magic "XTFM" | version u32 | config (vocab_size, d_model, n_layers,
# n_heads, d_ff, max_seq as u32; seed as i64; tie_output as u8) | tensor
# count u32 | per tensor: name length u32, name bytes, rank u32, dims u32,
# float64 payload. Tensor order is that of `ModelParams.flat`, whose layout
# leaves this format as it was.
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"XTFM"
CHECKPOINT_VERSION = 1


def save_checkpoint(params: ModelParams, path) -> None:
    cfg = params.config
    chunks = [CHECKPOINT_MAGIC, struct.pack("<I", CHECKPOINT_VERSION)]
    chunks.append(
        struct.pack(
            "<6IqB",
            cfg.vocab_size,
            cfg.d_model,
            cfg.n_layers,
            cfg.n_heads,
            cfg.d_ff,
            cfg.max_seq,
            cfg.seed,
            int(cfg.tie_output),
        )
    )
    chunks.append(struct.pack("<I", len(params.tensors)))
    for name, tensor in params.tensors.items():
        raw = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(raw)))
        chunks.append(raw)
        chunks.append(struct.pack("<I", tensor.value.ndim))
        chunks.append(struct.pack(f"<{tensor.value.ndim}I", *tensor.value.shape))
        chunks.append(tensor.value.astype("<f8").tobytes())
    write_atomic(path, b"".join(chunks))


def load_checkpoint(path) -> ModelParams:
    """Read a checkpoint written by `save_checkpoint`. Anything else (short,
    overlong, with tensors other than `param_shapes` of its config, or with
    a non-finite weight) raises InputError naming the first fault."""
    with open(path, "rb") as fh:
        blob = fh.read()
    off = 0

    def take(fmt):
        nonlocal off
        size = struct.calcsize(fmt)
        if off + size > len(blob):
            raise InputError(f"{path}: truncated checkpoint ({len(blob)} bytes)")
        vals = struct.unpack_from(fmt, blob, off)
        off += size
        return vals

    if blob[:4] != CHECKPOINT_MAGIC:
        raise InputError(f"{path}: not a checkpoint file (bad magic)")
    off = 4
    (version,) = take("<I")
    if version != CHECKPOINT_VERSION:
        raise InputError(f"{path}: unsupported checkpoint version {version}")
    vocab, d, n_layers, n_heads, d_ff, max_seq, seed, tied = take("<6IqB")
    try:
        cfg = ModelConfig(vocab, d, n_layers, n_heads, d_ff, max_seq, seed, bool(tied))
    except ConfigError as exc:
        raise InputError(f"{path}: {exc}") from None
    params = ModelParams(cfg)
    (count,) = take("<I")
    if count != len(params.tensors):
        raise InputError(f"{path}: {count} tensors, the config needs {len(params.tensors)}")
    for want_name, tensor in params.tensors.items():
        (name_len,) = take("<I")
        raw = blob[off : off + name_len]
        off += name_len
        (rank,) = take("<I")
        dims = take(f"<{rank}I")
        if raw != want_name.encode("utf-8") or dims != tensor.shape:
            raise InputError(
                f"{path}: tensor {raw.decode('utf-8', 'replace')!r} {dims}, expected {want_name!r} {tensor.shape}"
            )
        n_bytes = 8 * int(np.prod(dims))
        if off + n_bytes > len(blob):
            raise InputError(f"{path}: truncated checkpoint ({len(blob)} bytes)")
        arr = np.frombuffer(blob, dtype="<f8", count=n_bytes // 8, offset=off).reshape(dims)
        if not np.isfinite(arr).all():
            raise InputError(f"{path}: tensor {want_name!r} has non-finite values")
        tensor.value[...] = arr
        off += n_bytes
    if off != len(blob):
        raise InputError(f"{path}: {len(blob) - off} bytes past the last tensor")
    return params
