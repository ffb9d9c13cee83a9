import math
import os
import signal
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_ops as ref
from reference_ops import finite_diff_check
from xtf import numerics as nm
from xtf.numerics import ContractError, GradientTape, ShapeError, Tensor


def test_tensor_shape_data_invariant():
    t = Tensor(np.arange(12.0).reshape(3, 4))
    assert t.shape == (3, 4)
    assert t.value.size == 12
    assert t.value.dtype == np.float64


def test_matmul_identity():
    x = Tensor(np.random.default_rng(0).normal(size=(3, 3)))
    out = nm.matmul(Tensor(np.eye(3)), x)
    np.testing.assert_array_equal(out.value, x.value)


def test_matmul_identity_literal():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = nm.matmul(a, Tensor(np.eye(2)))
    np.testing.assert_array_equal(out.value, [[1.0, 2.0], [3.0, 4.0]])


def test_matmul_against_triple_loop_oracle():
    rng = np.random.default_rng(42)
    a = rng.normal(size=(4, 5))
    b = rng.normal(size=(5, 3))
    got = nm.matmul(Tensor(a), Tensor(b)).value
    expected = np.zeros((4, 3))
    for i in range(4):
        for j in range(3):
            acc = 0.0
            for k in range(5):
                acc += a[i, k] * b[k, j]
            expected[i, j] = acc
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-15)


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        nm.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_softmax_symmetry():
    np.testing.assert_allclose(nm.softmax_value(np.array([0.0, 0.0])), [0.5, 0.5], atol=1e-15)
    np.testing.assert_allclose(nm.softmax_value(np.full(4, 3.7)), [0.25] * 4, atol=1e-15)


def test_softmax_against_direct_exp_oracle():
    x = np.array([1.0, 2.0, 3.0])
    exps = [math.exp(v) for v in x]
    oracle = np.array([e / sum(exps) for e in exps])
    np.testing.assert_allclose(nm.softmax_value(x), oracle, atol=1e-12)
    # frozen values from the oracle
    np.testing.assert_allclose(
        nm.softmax_value(x),
        [0.09003057317038046, 0.24472847105479767, 0.6652409557748219],
        atol=1e-12,
    )


@pytest.mark.parametrize("shape", [(5,), (3, 7), (2, 3, 9)])
def test_softmax_rows_sum_to_one(shape):
    rng = np.random.default_rng(hash(shape) % 2**32)
    for _ in range(20):
        x = rng.normal(scale=5.0, size=shape)
        s = nm.softmax_value(x, axis=-1).sum(axis=-1)
        assert np.all(np.abs(s - 1.0) <= 1e-12)
        probs = nm.softmax_value(x, axis=-1)
        assert np.all(probs > 0.0) and np.all(probs < 1.0)


def _softmax_by_np_reductions(x, axis=-1):
    """The softmax written with `np.max`/`np.sum`, as the oracle for the
    ufunc-reduce form."""
    m = np.max(x, axis=axis, keepdims=True)
    e = np.exp(x - m)
    return e / np.sum(e, axis=axis, keepdims=True)


def test_softmax_value_is_bitwise_the_reduction_formula():
    rng = np.random.default_rng(12)
    for _ in range(300):
        shape = tuple(int(n) for n in rng.integers(1, 40, size=int(rng.integers(1, 4))))
        x = rng.normal(scale=rng.uniform(0.1, 30.0), size=shape)
        for axis in range(-x.ndim, x.ndim):
            assert nm.softmax_value(x, axis=axis).tobytes() == _softmax_by_np_reductions(x, axis).tobytes(), shape
        if x.ndim == 1:
            # the whole-array reductions the theory lab's vectors once used
            e = np.exp(x - x.max())
            assert nm.softmax_value(x).tobytes() == (e / e.sum()).tobytes(), shape


def test_softmax_non_finite_input_rejected():
    with pytest.raises(nm.NonFiniteError):
        ref.softmax(Tensor([np.nan, 1.0]))


def test_backward_quadratic():
    x = Tensor([1.0, -2.0, 3.0])
    with GradientTape() as tape:
        loss = ref.total(ref.mul(x, x))
    (g,) = tape.gradients(loss, [x])
    np.testing.assert_allclose(g, 2 * x.value, atol=1e-15)


def test_backward_constant_loss_gives_zeros():
    x = Tensor([1.0, 2.0])
    with GradientTape() as tape:
        loss = ref.total(Tensor(5.0))
    (g,) = tape.gradients(loss, [x])
    np.testing.assert_array_equal(g, np.zeros(2))


def test_backward_requires_scalar_loss():
    x = Tensor([1.0, 2.0])
    with GradientTape() as tape:
        y = ref.mul(x, x)
    with pytest.raises(ContractError):
        tape.gradients(y, [x])


def test_backward_gradient_shapes_match_params():
    rng = np.random.default_rng(3)
    a = Tensor(rng.normal(size=(4, 3)))
    b = Tensor(rng.normal(size=(3, 5)))
    with GradientTape() as tape:
        loss = ref.total(nm.matmul(a, b))
    ga, gb = tape.gradients(loss, [a, b])
    assert ga.shape == a.shape and gb.shape == b.shape


def test_finite_diff_check_quadratic_tight():
    x = Tensor([0.5, -1.5, 2.5])
    err = finite_diff_check(lambda: ref.total(ref.mul(x, x)), [x], step=1e-5)
    assert err <= 1e-9


def test_finite_diff_check_rejects_bad_step():
    x = Tensor([1.0])
    with pytest.raises(ContractError):
        finite_diff_check(lambda: ref.total(x), [x], step=0.0)


def test_finite_diff_check_detects_corrupted_gradient():
    x = Tensor([1.0, 2.0, 3.0])
    with GradientTape() as tape:
        loss = ref.total(ref.mul(x, x))
    (g,) = tape.gradients(loss, [x])
    err = finite_diff_check(lambda: ref.total(ref.mul(x, x)), [x], step=1e-5, analytic=[2.0 * g])
    # |2g - g| / (|2g| + |g|) = 1/3
    assert abs(err - 1.0 / 3.0) < 1e-6


def test_composed_ops_match_finite_differences():
    rng = np.random.default_rng(9)
    w = Tensor(rng.normal(size=(4, 3)))
    b = Tensor(rng.normal(size=3))
    x = Tensor(rng.normal(size=(5, 4)))
    weights = rng.normal(size=(5, 3))

    def loss_fn():
        h = ref.gelu(nm.add(nm.matmul(x, w), b))
        return nm.weighted_sum(ref.log_softmax(h, axis=-1), weights)

    assert finite_diff_check(loss_fn, [w, b, x], step=1e-5) <= 1e-6


def test_layer_norm_matches_finite_differences():
    rng = np.random.default_rng(10)
    x = Tensor(rng.normal(size=(4, 6)))
    gain = Tensor(1.0 + rng.normal(scale=0.2, size=6))
    bias = Tensor(rng.normal(scale=0.2, size=6))
    weights = rng.normal(size=(4, 6))
    err = finite_diff_check(
        lambda: nm.weighted_sum(nm.layer_norm(x, gain, bias), weights), [x, gain, bias], 1e-5
    )
    assert err <= 1e-6


def _layer_norm_by_mean(x, gain, bias, g, eps=1e-5):
    """The layer norm and its backward written with `mean`, as the oracle
    for the ufunc-reduce form."""
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = np.mean(centered * centered, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    g_xhat = g * gain
    gx = inv * (
        g_xhat - g_xhat.mean(axis=-1, keepdims=True) - xhat * (g_xhat * xhat).mean(axis=-1, keepdims=True)
    )
    axes = tuple(range(g.ndim - 1))
    return xhat * gain + bias, [gx, (g * xhat).sum(axis=axes), g.sum(axis=axes)]


def test_layer_norm_is_bitwise_the_mean_formula():
    rng = np.random.default_rng(11)
    for _ in range(120):
        shape = (int(rng.integers(1, 130)), int(rng.choice([6, 33, 64, 65])))
        x = Tensor(rng.normal(scale=rng.uniform(0.1, 10.0), size=shape))
        gain = Tensor(1.0 + rng.normal(scale=0.3, size=shape[1]))
        bias = Tensor(rng.normal(scale=0.3, size=shape[1]))
        weights = rng.normal(size=shape)
        with GradientTape() as tape:
            out = nm.layer_norm(x, gain, bias)
            grads = tape.gradients(nm.weighted_sum(out, weights), [x, gain, bias])
        want, want_grads = _layer_norm_by_mean(x.value, gain.value, bias.value, weights)
        assert out.value.tobytes() == want.tobytes(), shape
        for a, b in zip(grads, want_grads):
            assert a.tobytes() == b.tobytes(), shape


def test_gather_rows_accumulates_repeated_ids():
    table = Tensor(np.arange(12.0).reshape(4, 3))
    ids = np.array([1, 1, 2])
    with GradientTape() as tape:
        loss = ref.total(nm.gather_rows(table, ids))
    (g,) = tape.gradients(loss, [table])
    np.testing.assert_array_equal(g[1], np.full(3, 2.0))
    np.testing.assert_array_equal(g[0], np.zeros(3))


def test_determinism_bitwise():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(6, 6))
    y = rng.normal(size=(6, 6))
    a = nm.matmul(Tensor(x), Tensor(y)).value
    b = nm.matmul(Tensor(x), Tensor(y)).value
    assert a.tobytes() == b.tobytes()
    s1 = nm.softmax_value(x)
    s2 = nm.softmax_value(x)
    assert s1.tobytes() == s2.tobytes()


def test_tape_is_scoped_per_context():
    x = Tensor([1.0, 2.0])
    ref.mul(x, x)  # no active tape: nothing recorded, no error
    with GradientTape() as outer:
        ref.mul(x, x)
        with GradientTape() as inner:
            ref.mul(x, x)
        assert len(inner) == 1
    assert len(outer) == 1


def test_tape_keeps_gradients_of_requested_intermediates():
    # replay frees each intermediate's gradient once its record has run,
    # except for tensors the caller asked for
    x = Tensor([1.0, -2.0, 3.0])
    with GradientTape() as tape:
        y = ref.mul(x, x)
        z = ref.scale(y, 3.0)
        loss = ref.total(ref.mul(z, y))
    gx, gy, gz = tape.gradients(loss, [x, y, z])
    # loss = 3 y^2 with y = x^2
    np.testing.assert_allclose(gy, 6.0 * y.value)
    np.testing.assert_allclose(gz, y.value)
    np.testing.assert_allclose(gx, 12.0 * x.value**3)


def test_scatter_rows_is_bitwise_add_at():
    rng = np.random.default_rng(3)
    for n_rows, n in ((5, 1), (7, 40), (99, 300)):
        index = rng.integers(0, n_rows, n)
        g = rng.normal(size=(n, 6)) * 10.0 ** rng.integers(-8, 8, size=(n, 1))
        expected = np.zeros((n_rows, 6))
        np.add.at(expected, index, g)
        assert nm.scatter_rows(index, g, n_rows).tobytes() == expected.tobytes()


def test_feed_forward_is_bitwise_the_unfused_ops():
    # the in-place GELU keeps the unfused operation order exactly
    rng = np.random.default_rng(4)
    x, w1, b1, w2, b2 = (
        Tensor(rng.normal(size=shape)) for shape in ((37, 5), (5, 9), (9,), (9, 5), (5,))
    )
    weights = rng.normal(size=(37, 5))
    with GradientTape() as tape:
        fused = nm.feed_forward(x, w1, b1, w2, b2)
        fused_grads = tape.gradients(nm.weighted_sum(fused, weights), [x, w1, b1, w2, b2])
    with GradientTape() as tape:
        plain = nm.linear(ref.gelu(nm.linear(x, w1, b1)), w2, b2)
        plain_grads = tape.gradients(nm.weighted_sum(plain, weights), [x, w1, b1, w2, b2])
    assert fused.value.tobytes() == plain.value.tobytes()
    for a, b in zip(fused_grads, plain_grads):
        assert a.tobytes() == b.tobytes()


def test_balanced_cuts_balance_sizes_and_leave_no_piece_empty():
    # row counts of a batch's runs, cut in two as the share worker's prefix
    assert nm.balanced_cuts([100], 2) == []
    assert nm.balanced_cuts([126, 120, 60], 2) == [1]
    assert nm.balanced_cuts([40, 46, 46, 23], 2) == [2]
    assert nm.balanced_cuts([10, 10, 100], 2) == [2]
    assert nm.balanced_cuts([1, 2, 1], 2) == [1]  # a tie takes the earlier boundary
    # token counts of examples, cut into one slice per core as scoring does
    even = [10] * 6
    assert nm.balanced_cuts(even, 1) == []
    assert nm.balanced_cuts(even, 2) == [3]
    assert nm.balanced_cuts(even, 3) == [2, 4]
    assert nm.balanced_cuts(even[:1], 4) == []
    assert nm.balanced_cuts([], 3) == []
    uneven = [50, 5, 5, 5, 5]
    assert nm.balanced_cuts(uneven, 2) == [1]
    # the first item holds more than two thirds of the total, so both cuts
    # fall after it and the repeated one is dropped
    assert nm.balanced_cuts(uneven, 3) == [1]


@settings(max_examples=200, deadline=None)
@given(sizes=st.lists(st.integers(1, 1000), min_size=1, max_size=30), parts=st.integers(1, 4))
def test_balanced_cuts_are_increasing_inner_and_two_part_cuts_are_min_max(sizes, parts):
    cuts = nm.balanced_cuts(sizes, parts)
    assert all(a < b for a, b in zip([0] + cuts, cuts + [len(sizes)]))  # increasing, inside (0, n)
    assert len(cuts) <= parts - 1
    if parts == 2 and len(sizes) > 1:
        (k,) = cuts
        best = min(max(sum(sizes[:i]), sum(sizes[i:])) for i in range(1, len(sizes)))
        assert max(sum(sizes[:k]), sum(sizes[k:])) == best


def test_one_blas_thread_pins_and_restores():
    threads = nm._openblas_threads()
    if threads is None:
        pytest.skip("numpy does not link OpenBLAS here")
    get, set_ = threads
    before = get()
    set_(2)
    try:
        with nm.one_blas_thread():
            assert get() == 1
        assert get() == 2
    finally:
        set_(before)


def _child_interrupted(conn):
    os.kill(os.getpid(), signal.SIGINT)
    return "done"


def test_a_fork_child_ignores_ctrl_c(capfd):
    # Ctrl-C reaches the whole foreground group; the parent's exit kills the child
    with nm.Fork(_child_interrupted) as child:
        assert child.recv() == "done"
    assert capfd.readouterr().err == ""


def test_steady_heap_sets_the_two_thresholds_and_is_a_no_op_without_mallopt(monkeypatch):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    for libc, expected in ((SimpleNamespace(), []), (SimpleNamespace(mallopt=mallopt), [(-3, 64 << 20), (-1, 256 << 20)])):
        calls.clear()
        monkeypatch.setattr(nm.ctypes, "CDLL", lambda name: libc)
        assert nm.steady_heap.__wrapped__() is None  # the undecorated body: this process has run it already
        assert calls == expected
