"""Dense float64 arrays plus a recording tape for reverse-mode gradients.

Everything here is deliberately small: the op set is exactly what the tiny
decoder model needs, all values are float64, and every op is a pure function
of its inputs so repeated calls are bitwise identical. Gradients come from
replaying a GradientTape backwards; the tests check them against central
finite differences (`finite_diff_check` in tests/reference_ops.py).
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import math
import os
import signal
import sys
import threading
from contextlib import ExitStack, contextmanager
from typing import Callable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes do not satisfy an op's precondition."""


class ContractError(ValueError):
    """An API contract was violated (e.g. backward on a non-scalar loss)."""


class NonFiniteError(FloatingPointError):
    """A NaN/Inf appeared where only finite values are allowed."""


def _as_f64(value) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim > 0 and not arr.flags["C_CONTIGUOUS"]:
        arr = np.ascontiguousarray(arr)
    return arr


class Tensor:
    """A C-contiguous float64 array, `value`, optionally tracked by the active tape."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = _as_f64(value)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    @property
    def ndim(self) -> int:
        return self.value.ndim

    def check_finite(self, what: str = "tensor") -> "Tensor":
        if not np.all(np.isfinite(self.value)):
            raise NonFiniteError(f"{what} contains non-finite values")
        return self


class GradientTape:
    """Single-writer record of executed ops.

    Used as a context manager; ops executed inside the block append
    (output, inputs, backward_fn) records. Replaying the records in reverse
    yields one gradient per requested tensor, each with the tensor's shape.
    """

    _active = threading.local()

    def __init__(self):
        self._records: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []

    # -- active-tape plumbing -------------------------------------------------
    def __enter__(self) -> "GradientTape":
        stack = getattr(GradientTape._active, "stack", None)
        if stack is None:
            stack = []
            GradientTape._active.stack = stack
        stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        GradientTape._active.stack.pop()

    @staticmethod
    def current() -> "GradientTape | None":
        stack = getattr(GradientTape._active, "stack", None)
        return stack[-1] if stack else None

    def record(self, out: Tensor, inputs: tuple[Tensor, ...], backward: Callable) -> None:
        self._records.append((out, inputs, backward))

    def __len__(self) -> int:
        return len(self._records)

    # -- reverse pass ----------------------------------------------------------
    def gradients(self, loss: Tensor, params: Sequence[Tensor]) -> list[np.ndarray]:
        """Gradient of the scalar `loss` w.r.t. each tensor in `params`."""
        if loss.value.shape != ():
            raise ContractError(f"loss must be scalar, got shape {loss.value.shape}")
        grads: dict[int, np.ndarray] = {id(loss): np.array(1.0)}
        keep = {id(p) for p in params}
        for out, inputs, backward in reversed(self._records):
            # every consumer of `out` was recorded after it, so its gradient is
            # complete here; drop it unless the caller asked for it
            key = id(out)
            g_out = grads.get(key) if key in keep else grads.pop(key, None)
            if g_out is None:
                continue
            g_inputs = backward(g_out)
            for tensor, g in zip(inputs, g_inputs):
                if g is None:
                    continue
                acc = grads.get(id(tensor))
                grads[id(tensor)] = g if acc is None else acc + g
        out = []
        for p in params:
            g = grads.get(id(p))
            out.append(g.reshape(p.value.shape) if g is not None else np.zeros_like(p.value))
        return out


def record_op(out: Tensor, inputs: tuple[Tensor, ...], backward_fn: Callable) -> Tensor:
    """Record `out` with its backward on the active tape, if any; fused ops
    outside this module register through it too."""
    tape = GradientTape.current()
    if tape is not None:
        tape.record(out, inputs, backward_fn)
    return out


# ---------------------------------------------------------------------------
# Op set. Each op computes the float64 forward value and, when a tape is
# active, records a closure producing input gradients from the output grad.
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; `b` may be a trailing-axes broadcast (bias add)."""
    if a.shape != b.shape and a.shape[-b.ndim:] != b.shape:
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")
    out = Tensor(a.value + b.value)

    def bwd(g):
        gb = g
        if b.shape != a.shape:
            reduce_axes = tuple(range(g.ndim - b.ndim))
            gb = g.sum(axis=reduce_axes)
        return g, gb

    return record_op(out, (a, b), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of 2-D operands."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} @ {b.shape}")
    out = Tensor(a.value @ b.value)

    def bwd(g):
        return g @ b.value.T, a.value.T @ g

    return record_op(out, (a, b), bwd)


def transpose(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    out = Tensor(np.ascontiguousarray(a.value.transpose(axes)))
    inv = np.argsort(axes)
    return record_op(out, (a,), lambda g: (g.transpose(inv),))


def scatter_rows(index: np.ndarray, g: np.ndarray, n_rows: int) -> np.ndarray:
    """(n_rows, d) array whose row r sums the rows g[i] with index[i] == r.

    Bitwise `np.add.at(zeros, index, g)`: bincount also adds in input order,
    starting from 0, but is several times faster on a few hundred rows."""
    d = g.shape[1]
    flat = (index[:, None] * d + np.arange(d)).ravel()
    return np.bincount(flat, weights=g.ravel(), minlength=n_rows * d).reshape(n_rows, d)


def gather_rows(x: Tensor, index: np.ndarray) -> Tensor:
    """Rows `x[index]` of a 2-D tensor; backward scatter-adds into `x`."""
    out = Tensor(x.value[index])
    return record_op(out, (x,), lambda g: (scatter_rows(index, g, x.shape[0]),))


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    if gain.shape != (x.shape[-1],) or bias.shape != (x.shape[-1],):
        raise ShapeError("layer_norm: gain/bias must match the last axis")
    # np.add.reduce(...) / n is what `mean` computes, without its wrapper
    n = x.shape[-1]
    mu = np.add.reduce(x.value, axis=-1, keepdims=True) / n
    centered = x.value - mu
    var = np.add.reduce(centered * centered, axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    out = Tensor(xhat * gain.value + bias.value)

    def bwd(g):
        g_xhat = g * gain.value
        gx = inv * (
            g_xhat
            - np.add.reduce(g_xhat, axis=-1, keepdims=True) / n
            - xhat * (np.add.reduce(g_xhat * xhat, axis=-1, keepdims=True) / n)
        )
        axes = tuple(range(g.ndim - 1))
        return gx, (g * xhat).sum(axis=axes), g.sum(axis=axes)

    return record_op(out, (x, gain, bias), bwd)


_GELU_C = math.sqrt(2.0 / math.pi)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Fused affine map x @ w + b for 2-D x."""
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != (w.shape[1],):
        raise ShapeError(f"linear: incompatible shapes {x.shape} @ {w.shape} + {b.shape}")
    out = Tensor(x.value @ w.value + b.value)

    def bwd(g):
        return g @ w.value.T, x.value.T @ g, g.sum(axis=0)

    return record_op(out, (x, w, b), bwd)


def embed_positions(table: Tensor, positions: Tensor, ids: np.ndarray, pos_ids: np.ndarray | None = None) -> Tensor:
    """Fused token-plus-position embedding lookup. Row i takes position
    `pos_ids[i]`; by default the rows are one sequence at positions 0..n-1."""
    ids = np.asarray(ids, dtype=np.intp)
    n = ids.size
    if pos_ids is None:
        pos_ids = np.arange(n)
    out = Tensor(table.value[ids] + positions.value[pos_ids])

    def bwd(g):
        return scatter_rows(ids, g, table.shape[0]), scatter_rows(pos_ids, g, positions.shape[0])

    return record_op(out, (table, positions), bwd)


def feed_forward(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """Fused two-layer block with the smooth (tanh-form) GELU between.

    The GELU and its derivative are evaluated in place, in the operation
    order of the unfused GELU, so packed streams of many rows keep their
    temporaries few and the result is bitwise that of the unfused ops."""
    pre = x.value @ w1.value
    pre += b1.value
    t = pre * pre
    t *= 0.044715
    t *= pre
    t += pre
    t *= _GELU_C
    np.tanh(t, out=t)
    hidden = t + 1.0
    hidden *= pre
    hidden *= 0.5
    y = hidden @ w2.value
    y += b2.value

    def bwd(g):
        # d/dpre = 0.5 (1 + t) + 0.5 pre (1 - t^2) C (1 + 3 a pre^2)
        d_inner = pre * pre
        d_inner *= 3 * 0.044715
        d_inner += 1.0
        d_inner *= _GELU_C
        slope = t * t
        np.subtract(1.0, slope, out=slope)
        slope *= pre
        slope *= 0.5
        slope *= d_inner
        np.add(t, 1.0, out=d_inner)
        d_inner *= 0.5
        slope += d_inner
        g_pre = g @ w2.value.T
        g_pre *= slope
        return (
            g_pre @ w1.value.T,
            x.value.T @ g_pre,
            g_pre.sum(axis=0),
            hidden.T @ g,
            g.sum(axis=0),
        )

    return record_op(Tensor(y), (x, w1, b1, w2, b2), bwd)


def sequence_nll(logits: Tensor, rows: np.ndarray, cols: np.ndarray) -> Tensor:
    """Fused sum of -log softmax(logits[row])[col] over (row, col) pairs."""
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    logits.check_finite("sequence_nll input")
    used = logits.value[rows]
    m = used.max(axis=-1, keepdims=True)
    shifted = used - m
    log_z = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    picked = shifted[np.arange(rows.size), cols] - log_z[:, 0]
    out = Tensor(-float(picked.sum()))

    def bwd(g):
        probs = np.exp(shifted - log_z)
        probs[np.arange(rows.size), cols] -= 1.0
        return (scatter_rows(rows, g * probs, logits.shape[0]),)

    return record_op(out, (logits,), bwd)


def weighted_sum(a: Tensor, weights: np.ndarray) -> Tensor:
    """Scalar sum(a * weights) with constant weights."""
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != a.shape:
        raise ShapeError(f"weighted_sum: weights shape {w.shape} != {a.shape}")
    out = Tensor(float(np.sum(a.value * w)))
    return record_op(out, (a,), lambda g: (g * w,))


# ---------------------------------------------------------------------------
# Plain-array helpers shared across modules (no tape involvement).
# ---------------------------------------------------------------------------


def softmax_value(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stabilized softmax on a raw array. The ufunc reductions are what
    `np.max`/`np.sum` compute, without their wrappers, which cost more than
    the arithmetic on the small vectors of the theory lab."""
    e = np.exp(x - np.maximum.reduce(x, axis=axis, keepdims=True))
    return e / np.add.reduce(e, axis=axis, keepdims=True)


def balanced_cuts(sizes: Sequence[int], parts: int) -> list[int]:
    """Where to cut items of `sizes`, kept in order, into at most `parts`
    contiguous non-empty pieces of about equal total size: at the item
    boundary nearest each j/`parts` of the total (the earlier one on a tie),
    with repeated cuts dropped. For two parts that is the cut that makes the
    larger piece smallest."""
    prefix = list(itertools.accumulate(sizes))
    inner = range(1, len(prefix))
    if not inner:
        return []
    return sorted({min(inner, key=lambda i: abs(parts * prefix[i - 1] - j * prefix[-1])) for j in range(1, parts)})


# ---------------------------------------------------------------------------
# Process set-up shared by the worker processes of training, scoring and theory.
# ---------------------------------------------------------------------------


@functools.cache
def _openblas_threads():
    """The loaded OpenBLAS's thread-count getter and setter, or None when
    numpy links another BLAS or the loaded libraries cannot be listed."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
                set_ = getattr(handle, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and set_ is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    return get, set_
    return None


@contextmanager
def one_blas_thread():
    """Hold the loaded OpenBLAS at one thread, then restore its count. With
    one busy process per core (the twin arms, or the slices of scoring), a
    second BLAS thread in any of them would spin on another's core. Does
    nothing under other BLAS builds."""
    threads = _openblas_threads()
    if threads is None:
        yield
        return
    get, set_ = threads
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def available_cores() -> int:
    """How many cores this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@functools.cache
def steady_heap() -> None:
    """Have glibc's malloc keep freed memory for reuse: blocks under 64 MiB
    come from the heap, which is trimmed only past 256 MiB free at its top,
    so training's per-run tape temporaries are not faulted in again. Setting
    M_MMAP_THRESHOLD turns off glibc's dynamic threshold for the rest of the
    process: the calling process, a library user's too, keeps it, as do its
    forks. Runs once per process; does nothing where `mallopt` is missing."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
        mallopt(-3, 64 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD


def die_with_parent() -> None:
    """On Linux, have the kernel kill this process when the thread that
    started it exits, so a killed parent leaves no worker blocked forever.
    Does nothing elsewhere."""
    if sys.platform.startswith("linux"):
        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
        prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG


def _child_main(fn: Callable, args: tuple, conn, parent_conn) -> None:
    parent_conn.close()  # so a parent that goes away reads as EOF here
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C reaches the parent, whose exit kills this
    die_with_parent()
    with one_blas_thread():
        try:
            result = fn(conn, *args)
        except Exception as exc:  # sent as it is: `Fork.recv` raises it
            result = exc
    conn.send(result)


class Fork:
    """`fn(conn, *args)` run in a child process for the span of a `with`
    block, with BLAS at one thread and killed with its parent (on Linux).

    The two talk over a pipe (`send`, `recv`). The child's last message is
    `fn`'s return value or the exception it raised, which `recv` raises; a
    child that dies first makes `recv` raise ChildProcessError. Leaving the
    block kills the child if it still runs, so an error in this process
    never waits for the child's work. The default start method forks on
    Linux: the child starts in milliseconds with `args` in place, where a
    spawned one would spend ~0.3 s importing numpy and this package."""

    def __init__(self, fn: Callable, *args):
        self._fn, self._args = fn, args
        self._held: list = []

    def __enter__(self) -> Fork:
        import multiprocessing  # here, not at module level: only a fork needs it

        ctx = multiprocessing.get_context()
        self._conn, child_conn = ctx.Pipe()
        self._process = ctx.Process(target=_child_main, args=(self._fn, self._args, child_conn, self._conn))
        try:
            self._process.start()
        finally:
            child_conn.close()  # the child's copy is then the last, so its exit reads as EOF
        return self

    def __exit__(self, *exc_info) -> None:
        self._process.kill()  # does nothing once the child has exited
        self._process.join()
        self._conn.close()

    def send(self, obj) -> None:
        self._conn.send(obj)

    def poll(self) -> bool:
        """Whether a message from the child is waiting. The child's error, or
        its death, raises here rather than in the next `recv`."""
        if not self._held and self._conn.poll(0):
            self._held.append(self.recv())
        return bool(self._held)

    def recv(self, busy: bool = False):
        """The child's next message, waited for with a blocking read or, when
        `busy`, a busy-wait (see `training._ShareWorker.collect` for why)."""
        while busy and not self.poll():
            pass
        if self._held:
            return self._held.pop()
        try:
            message = self._conn.recv()
        except EOFError:
            self._process.join()
            raise ChildProcessError(f"a worker process exited with code {self._process.exitcode}") from None
        if isinstance(message, Exception):
            raise message
        return message


def _call(conn, fn: Callable, *args):
    """`fn(*args)` in a `Fork` child that needs no message but its result."""
    return fn(*args)


def fan_out(fn: Callable, items: Sequence, sizes: Sequence[int], *args) -> list:
    """`fn(piece, *args)` for each contiguous piece of `items` that
    `balanced_cuts(sizes, available_cores())` gives, in piece order: this
    process computes the first piece while a forked helper computes each
    later one, all with BLAS at one thread. The error raised is the one a
    plain loop would raise, and no helper outlives the call; one piece
    starts no process (README, "Fanning out")."""
    bounds = [0, *balanced_cuts(sizes, available_cores()), len(items)]
    first, *rest = [items[a:b] for a, b in zip(bounds, bounds[1:])]
    with one_blas_thread(), ExitStack() as stack:
        helpers = [stack.enter_context(Fork(_call, fn, piece, *args)) for piece in rest]
        own = fn(first, *args)
        return [own, *(helper.recv() for helper in helpers)]
