"""Numeric substrate: tensor ops, rng, dropout statistics, gradient checker."""

import re

import numpy as np
import pytest

from ccn import tensor as T
from ccn.attention import causal_mask, padding_mask
from ccn.errors import DataError, DeterminismError, ShapeError, VocabError
from ccn.gradcheck import finite_diff_check
from ccn.rng import _BLOCK, Rng
from oracles import relu


def test_matmul_identity():
    eye = T.Tensor(np.eye(2))
    m = T.Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert np.array_equal(T.matmul(eye, m).data, m.data)


def test_matmul_zero():
    a = T.Tensor(np.array([[1.0, 2.0]]))
    b = T.Tensor(np.array([[0.0], [0.0]]))
    assert np.array_equal(T.matmul(a, b).data, [[0.0]])


def test_matmul_hand_computed():
    a = T.Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    b = T.Tensor(np.array([[5.0, 6.0], [7.0, 8.0]]))
    assert np.array_equal(T.matmul(a, b).data, [[19.0, 22.0], [43.0, 50.0]])


def test_matmul_matches_triple_loop_oracle():
    rng = np.random.default_rng(0)
    for _ in range(10):
        a = rng.normal(size=(5, 5))
        b = rng.normal(size=(5, 5))
        want = np.zeros((5, 5))
        for i in range(5):
            for j in range(5):
                for k in range(5):
                    want[i, j] += a[i, k] * b[k, j]
        got = T.matmul(T.Tensor(a), T.Tensor(b)).data
        assert np.abs(got - want).max() < 1e-12


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        T.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 3))))


@pytest.mark.parametrize(
    "a_shape, b_shape",
    [((3, 5, 4), (4, 6)), ((5, 4), (4, 6)), ((3, 5, 4), (3, 4, 6))],
    ids=["3d_x_2d", "2d_x_2d", "3d_x_3d"],
)
def test_matmul_value_and_gradients_match_batched_reference(a_shape, b_shape):
    rng = np.random.default_rng(30)
    a, b = rng.normal(size=a_shape), rng.normal(size=b_shape)
    g = rng.normal(size=a_shape[:-1] + b_shape[-1:])
    ta, tb = T.parameter("a", a), T.parameter("b", b)
    out = T.matmul(ta, tb)
    T.mean_all(T.mul(out, T.Tensor(g * g.size))).backward()
    # per-batch-entry products, summed over the batch for a shared 2-d weight
    assert np.abs(out.data - np.einsum("...ij,...jk->...ik", a, b)).max() < 1e-12
    assert np.abs(ta.grad - np.einsum("...ik,...jk->...ij", g, b)).max() < 1e-12
    want_gb = np.einsum("...ij,...ik->...jk", a, g)
    if len(b_shape) < len(a_shape):
        want_gb = want_gb.sum(axis=0)
    assert tb.grad.shape == b.shape
    assert np.abs(tb.grad - want_gb).max() < 1e-12


@pytest.mark.parametrize(
    "a_shape, b_shape", [((2, 2, 3, 4), (2, 4, 5)), ((2, 3, 3, 4), (2, 4, 5)), ((3, 4), (2, 4, 5))],
    ids=["batch_size_equals_leading_axis", "batch_axes_disagree", "2d_x_batched"],
)
def test_matmul_batched_right_operand_needs_the_left_batch_axes(a_shape, b_shape):
    # numpy would broadcast the first pair, lining b's batch up with a's heads
    a, b = T.Tensor(np.zeros(a_shape)), T.Tensor(np.zeros(b_shape))
    with pytest.raises(ShapeError, match=re.escape(f"{a_shape} x {b_shape}")):
        T.matmul(a, b)


def test_matmul_transposed_view_weight_gradient():
    # the vocabulary projection multiplies by a transposed view of the embedding table
    rng = np.random.default_rng(31)
    table = T.parameter("table", rng.normal(size=(7, 4)))
    h = T.parameter("h", rng.normal(size=(2, 3, 4)))
    g = rng.normal(size=(2, 3, 7))
    out = T.matmul(h, T.transpose(table))
    T.mean_all(T.mul(out, T.Tensor(g * g.size))).backward()
    assert np.abs(out.data - np.einsum("bij,vj->biv", h.data, table.data)).max() < 1e-12
    assert np.abs(h.grad - np.einsum("biv,vj->bij", g, table.data)).max() < 1e-12
    assert np.abs(table.grad - np.einsum("biv,bij->vj", g, h.data)).max() < 1e-12


def test_project_heads_split_and_axis_transpose_route_gradients_back():
    # an identity weight leaves only the head split: reshape, then swap axes
    x = T.parameter("x", np.arange(24.0).reshape(2, 3, 4))
    y = T.project_heads(x, T.Tensor(np.eye(4)), 2)
    assert y.data.shape == (2, 2, 3, 2)
    assert np.array_equal(y.data, np.arange(24.0).reshape(2, 3, 2, 2).swapaxes(1, 2))
    weights = np.arange(24.0).reshape(2, 2, 3, 2)
    T.mean_all(T.mul(y, T.Tensor(weights * 24))).backward()
    assert np.array_equal(x.grad, weights.swapaxes(1, 2).reshape(2, 3, 4))


def test_fold_branches_equals_the_moveaxis_form():
    x = np.random.default_rng(9).standard_normal((2, 3, 4, 5)).astype(np.float32)
    y = T.fold_branches(T.parameter("x", x))
    want = np.moveaxis(x, 0, -2).reshape(3, 4, 10)
    assert y.data.dtype == want.dtype and y.data.shape == want.shape
    assert y.data.tobytes() == want.tobytes()
    g = np.arange(120, dtype=np.float32).reshape(3, 4, 10)
    (got,) = y.node.backward(g)
    want = np.moveaxis(g.reshape(3, 4, 2, 5), -2, 0)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_softmax_symmetric_row():
    out = T.softmax_rows(T.Tensor(np.array([[0.0, 0.0]]))).data
    assert np.allclose(out, [[0.5, 0.5]], atol=1e-12)


def test_softmax_analytic_row():
    out = T.softmax_rows(T.Tensor(np.array([[np.log(2.0), 0.0]]))).data
    assert np.allclose(out, [[2.0 / 3.0, 1.0 / 3.0]], atol=1e-12)


def test_softmax_stabilized_no_overflow():
    out = T.softmax_rows(T.Tensor(np.array([[1000.0, 0.0]]))).data
    assert np.all(np.isfinite(out))
    assert out[0, 0] > 1.0 - 1e-12 and out[0, 1] < 1e-12


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.normal(scale=50.0, size=(7, 9))
        out = T.softmax_rows(T.Tensor(x)).data
        assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-6
        assert np.all(np.isfinite(out))


def test_layer_norm_constant_row_is_zero():
    gain, bias = T.Tensor(np.ones(4)), T.Tensor(np.zeros(4))
    out = T.layer_norm(T.Tensor(np.full((1, 4), 3.3)), gain, bias).data
    assert np.allclose(out, 0.0)


def test_layer_norm_already_normalized_row():
    gain, bias = T.Tensor(np.ones(2)), T.Tensor(np.zeros(2))
    out = T.layer_norm(T.Tensor(np.array([[1.0, -1.0]])), gain, bias, eps=1e-12).data
    assert np.allclose(out, [[1.0, -1.0]], atol=1e-6)


def test_layer_norm_direct_formula():
    gain, bias = T.Tensor(np.ones(3)), T.Tensor(np.zeros(3))
    out = T.layer_norm(T.Tensor(np.array([[2.0, 4.0, 6.0]])), gain, bias, eps=1e-12).data
    want = np.array([-np.sqrt(1.5), 0.0, np.sqrt(1.5)])
    assert np.allclose(out[0], want, atol=1e-5)


def test_layer_norm_rejects_nonpositive_eps():
    gain, bias = T.Tensor(np.ones(2)), T.Tensor(np.zeros(2))
    with pytest.raises(ValueError):
        T.layer_norm(T.Tensor(np.zeros((1, 2))), gain, bias, eps=0.0)


def test_dropout_p_zero_is_identity():
    x = T.Tensor(np.arange(12.0).reshape(3, 4))
    assert T.dropout(x, 0.0, Rng(0)) is x


def test_dropout_inference_is_identity():
    x = T.Tensor(np.arange(12.0).reshape(3, 4))
    assert T.dropout(x, 0.9, None) is x


def test_dropout_rejects_bad_probability():
    x = T.Tensor(np.zeros((2, 2)))
    for p in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError):
            T.dropout(x, p, Rng(0))


def test_dropout_zeroed_fraction_binomial_bound():
    x = T.Tensor(np.ones((100, 1000)))
    out = T.dropout(x, 0.5, Rng(42)).data
    zeroed = float((out == 0.0).mean())
    assert 0.49 <= zeroed <= 0.51
    # survivors rescaled by 1/(1-p)
    assert np.allclose(out[out != 0.0], 2.0)


def test_dropout_same_seed_bit_identical():
    x = T.Tensor(np.ones((50, 50)))
    a = T.dropout(x, 0.3, Rng(7)).data
    b = T.dropout(x, 0.3, Rng(7)).data
    assert np.array_equal(a, b)


# below, at, one above and several times the draws of one mask block
BLOCK_SHAPES = [(_BLOCK - 1,), (_BLOCK,), (_BLOCK + 1,), (3, 2, _BLOCK // 2 + 7)]


@pytest.mark.parametrize("shape", [(7,), (3, 5), (42, 6, 64)] + BLOCK_SHAPES)
@pytest.mark.parametrize("p", [0.1, 0.3, 0.5])
def test_dropout_mask_is_the_uniform_threshold_and_advances_the_same(shape, p):
    a, b = Rng(11).fork("dropout"), Rng(11).fork("dropout")
    out = T.dropout(T.Tensor(np.ones(shape)), p, a).data
    assert np.array_equal(out != 0.0, b.uniform(shape) >= p)
    assert np.array_equal(a.uniform((9,)), b.uniform((9,)))


def test_uniform_at_least_is_exact_at_the_threshold():
    for (n,) in [(6,)] + [(int(np.prod(s)),) for s in BLOCK_SHAPES]:
        u = Rng(12).uniform((n,))
        # the draws on both sides of every block boundary, and a few more
        picks = {0, n // 2, n - 1} | {i for lo in range(_BLOCK, n, _BLOCK) for i in (lo - 1, lo)}
        for i in sorted(picks):
            above = np.nextafter(u[i], 1.0)
            assert Rng(12).uniform_at_least((n,), u[i])[i]
            assert not Rng(12).uniform_at_least((n,), above)[i]


@pytest.mark.parametrize("p", [0.0, 1.0])
def test_uniform_at_least_at_probability_zero_and_one_advances_the_same(p):
    a, b = Rng(13), Rng(13)
    assert np.array_equal(a.uniform_at_least((2, 5), p), b.uniform((2, 5)) >= p)
    assert a.uniform() == b.uniform()


def test_scale_and_add_const_keep_a_float32_operand_float32():
    # a numpy float64 constant must not promote a float32 tape
    x = T.parameter("x", np.arange(6, dtype=np.float32).reshape(2, 3))
    y = T.scale(x, np.float64(0.25))
    assert y.data.dtype == np.float32
    assert np.array_equal(y.data, x.data * np.float32(0.25))
    (gx,) = y.node.backward(np.ones_like(y.data))
    assert gx.dtype == np.float32
    z = T.add_const(x, np.full((2, 3), 0.1))
    assert z.data.dtype == np.float32
    assert np.array_equal(z.data, x.data + np.float32(0.1))
    T.mean_all(T.add(y, z)).backward()
    assert x.grad.dtype == np.float32


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
def test_embedding_backward_equals_two_dimensional_scatter(dtype):
    rng = np.random.default_rng(8)
    table = T.parameter("t", rng.standard_normal((52, 64)).astype(dtype))
    ids = rng.integers(0, 6, size=(42, 6))  # many repeats; id 0 plays the pad
    ids[:, -2:] = 0
    g = rng.standard_normal((42, 6, 64)).astype(dtype)
    (got,) = T.embedding(table, ids).node.backward(g)
    want = np.zeros_like(table.data)
    np.add.at(want, ids.reshape(-1), g.reshape(-1, 64))
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


def test_cross_entropy_uniform_logits_is_log_vocab():
    for vocab in (2, 5, 17):
        logits = T.Tensor(np.zeros((1, 3, vocab)))
        targets = np.array([[1, 2, 1]]) % vocab
        loss = T.cross_entropy(logits, targets, smoothing=0.0, pad_id=0)
        assert abs(float(loss.data) - np.log(vocab)) < 1e-12


def test_cross_entropy_one_hot_limit():
    losses = []
    for mag in (1.0, 10.0, 100.0):
        logits = np.zeros((1, 1, 4))
        logits[0, 0, 2] = mag
        losses.append(float(T.cross_entropy(T.Tensor(logits), np.array([[2]]), 0.0, 0).data))
    assert losses[0] > losses[1] > losses[2]
    assert losses[2] < 1e-10


def test_cross_entropy_smoothing_noop_under_uniform_logits():
    logits = T.Tensor(np.zeros((1, 1, 2)))
    loss = T.cross_entropy(logits, np.array([[1]]), smoothing=0.1, pad_id=0)
    assert abs(float(loss.data) - np.log(2.0)) < 1e-12


def test_cross_entropy_excludes_pads():
    logits = np.zeros((1, 2, 4))
    logits[0, 0] = [0.0, 5.0, 0.0, 0.0]
    with_pad = T.cross_entropy(T.Tensor(logits), np.array([[1, 0]]), 0.0, pad_id=0)
    alone = T.cross_entropy(T.Tensor(logits[:, :1]), np.array([[1]]), 0.0, pad_id=0)
    assert float(with_pad.data) == float(alone.data)


def test_cross_entropy_float32_extremes_stay_finite():
    # softmax underflows to 0 at -200 and -400 below the max in float32; the
    # smoothed loss still needs the log of every probability
    logits = T.parameter("logits", np.array([[[0.0, 200.0, -200.0, 5.0]]], dtype=np.float32))
    loss = T.cross_entropy(logits, np.array([[1]]), smoothing=0.1, pad_id=0)
    loss.backward()
    # log-softmax is [-200, 0, -400, -195] to float32 precision
    assert np.isfinite(float(loss.data))
    assert abs(float(loss.data) - 0.025 * 795.0) < 1e-3
    assert np.all(np.isfinite(logits.grad))
    assert np.allclose(logits.grad[0, 0], [-0.025, 0.075, -0.025, -0.025], atol=1e-6)


def test_cross_entropy_all_pad_batch_is_error():
    with pytest.raises(DataError):
        T.cross_entropy(T.Tensor(np.zeros((1, 3, 4))), np.array([[0, 0, 0]]), 0.0, pad_id=0)


def test_embedding_rejects_out_of_range_ids():
    table = T.parameter("t", np.zeros((4, 2)))
    with pytest.raises(VocabError):
        T.embedding(table, np.array([0, 5]))


def test_rng_same_seed_same_stream():
    a = Rng(123).uniform((1000,))
    b = Rng(123).uniform((1000,))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, Rng(124).uniform((1000,)))


def test_rng_forks_are_independent_and_stable():
    r = Rng(5)
    a1 = r.fork("alpha").uniform((100,))
    a2 = Rng(5).fork("alpha").uniform((100,))
    b = Rng(5).fork("beta").uniform((100,))
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)


def test_rng_uniform_marginals():
    u = Rng(99).uniform((200000,))
    assert 0.0 <= u.min() and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 5e-3


def test_rng_permutation_is_a_permutation():
    perm = Rng(3).permutation(257)
    assert sorted(perm.tolist()) == list(range(257))


# ---------------------------------------------------------------------------
# finite-difference checker
# ---------------------------------------------------------------------------


def test_finite_diff_quadratic_exact():
    theta = T.parameter("theta", np.array([[1.0, 2.0]]))
    report = finite_diff_check(
        lambda: T.mean_all(T.matmul(theta, T.transpose(theta))), {"theta": theta}, h=1e-6
    )
    assert np.allclose(theta.grad, [[2.0, 4.0]])
    assert report.max_rel_error < 1e-8


def test_finite_diff_constant_function():
    theta = T.parameter("theta", np.array([[1.0, 2.0]]))
    const = T.Tensor(np.array([[3.0]]))
    report = finite_diff_check(lambda: T.mean_all(T.mul(const, const)), {"theta": theta})
    assert report.max_rel_error == 0.0


def test_finite_diff_detects_nondeterminism():
    theta = T.parameter("theta", np.array([1.0]))
    state = {"n": 0.0}

    def noisy():
        state["n"] += 1.0
        return T.mean_all(T.scale(theta, state["n"]))

    with pytest.raises(DeterminismError):
        finite_diff_check(noisy, {"theta": theta})


def test_random_ops_all_finite():
    rng = np.random.default_rng(2)
    x = T.Tensor(rng.normal(scale=30.0, size=(6, 8)))
    gain, bias = T.Tensor(np.ones(8)), T.Tensor(np.zeros(8))
    for out in (
        T.softmax_rows(x),
        T.layer_norm(x, gain, bias),
        relu(x),
        T.matmul(x, T.transpose(x)),
    ):
        assert np.all(np.isfinite(out.data))


# ---------------------------------------------------------------------------
# fused sublayer ops against their unfused compositions, bit for bit
# ---------------------------------------------------------------------------


def _leaves(rng, dtype, **shapes):
    return {name: T.parameter(name, rng.normal(size=shape).astype(dtype)) for name, shape in shapes.items()}


def _value_and_grads(out, weights, leaves):
    """out's data, then each leaf's gradient of mean(out * weights)."""
    for leaf in leaves:
        leaf.zero_grad()
    T.mean_all(T.mul(out, T.Tensor(weights))).backward()
    return [out.data] + [leaf.grad.copy() for leaf in leaves]


def _assert_all_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


DTYPES = [np.float32, np.float64]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("x_shape", [(4, 5), (2, 3, 5)])
def test_linear_equals_matmul_plus_bias_exactly(dtype, x_shape):
    # without a bias, matmul by a 2-d weight is linear itself
    rng = np.random.default_rng(30)
    p = _leaves(rng, dtype, x=x_shape, w=(5, 7), b=(7,))
    leaves = [p["x"], p["w"], p["b"]]
    weights = rng.normal(size=x_shape[:-1] + (7,)).astype(dtype)
    got = _value_and_grads(T.linear(p["x"], p["w"], p["b"]), weights, leaves)
    want = _value_and_grads(T.add(T.matmul(p["x"], p["w"]), p["b"]), weights, leaves)
    _assert_all_equal(got, want)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("x_shape, lead", [((3, 4, 5), ()), ((2, 3, 4, 5), (2,)), ((3, 4, 5), (2,))],
                         ids=["2d_weights", "stacked_input", "shared_input"])
def test_ffn_equals_linear_relu_linear_exactly(dtype, x_shape, lead):
    rng = np.random.default_rng(34)
    p = _leaves(rng, dtype, x=x_shape, w1=lead + (5, 7), b1=lead + (7,), w2=lead + (7, 5), b2=lead + (5,))
    leaves = [p["x"], p["w1"], p["b1"], p["w2"], p["b2"]]
    weights = rng.normal(size=lead + x_shape[-3:]).astype(dtype)
    got = _value_and_grads(T.ffn(*leaves), weights, leaves)
    hidden = relu(T.linear(p["x"], p["w1"], p["b1"]))
    want = _value_and_grads(T.linear(hidden, p["w2"], p["b2"]), weights, leaves)
    _assert_all_equal(got, want)


@pytest.mark.parametrize("dtype", DTYPES)
def test_project_heads_equals_matmul_then_head_split_exactly(dtype):
    rng = np.random.default_rng(31)
    p = _leaves(rng, dtype, x=(2, 3, 8), w=(8, 6))
    leaves = [p["x"], p["w"]]
    weights = rng.normal(size=(2, 2, 3, 3)).astype(dtype)
    got = _value_and_grads(T.project_heads(p["x"], p["w"], 2), weights, leaves)
    # the head split is a numpy reshape and axis swap of the matmul
    product = T.matmul(p["x"], p["w"])
    want = _value_and_grads(product, weights.swapaxes(1, 2).reshape(2, 3, 6), leaves)
    want[0] = product.data.reshape(2, 3, 2, 3).swapaxes(1, 2)
    _assert_all_equal(got, want)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("bias", ["none", "causal", "padding"])
def test_attention_core_equals_the_unfused_attention_exactly(dtype, bias):
    rng = np.random.default_rng(32)
    b, h, n, m, d_k = 2, 3, 4, 4 if bias == "causal" else 5, 2
    p = _leaves(rng, dtype, qh=(b, h, n, d_k), kh=(b, h, m, d_k), vh=(b, h, m, d_k))
    leaves = [p["qh"], p["kh"], p["vh"]]
    bias_array = {
        "none": None,
        "causal": causal_mask(n, dtype),
        "padding": padding_mask(np.array([[0, 0, 0, 1, 1], [0, 0, 0, 0, 0]]), dtype),
    }[bias]
    scale = 1.0 / np.sqrt(d_k)
    weights = rng.normal(size=(b, n, h * d_k)).astype(dtype)
    got = _value_and_grads(T.attention_core(p["qh"], p["kh"], p["vh"], bias_array, scale), weights, leaves)
    scores = T.scale(T.matmul(p["qh"], T.transpose(p["kh"])), scale)
    if bias_array is not None:
        scores = T.add_const(scores, bias_array[:, None] if bias_array.ndim > 2 else bias_array)
    heads = T.transpose(T.matmul(T.softmax_rows(scores), p["vh"]), -3, -2)
    want = _value_and_grads(heads, weights.reshape(b, n, h, d_k), leaves)
    want[0] = heads.data.reshape(b, n, h * d_k)
    _assert_all_equal(got, want)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("p_drop", [0.0, 0.3])
def test_residual_norm_equals_layer_norm_of_the_dropout_sum_exactly(dtype, p_drop):
    rng = np.random.default_rng(33)
    p = _leaves(rng, dtype, x=(2, 5, 8), y=(2, 5, 8), gain=(8,), bias=(8,))
    leaves = [p["x"], p["y"], p["gain"], p["bias"]]
    weights = rng.normal(size=(2, 5, 8)).astype(dtype)
    fused = T.residual_norm(p["x"], p["y"], p_drop, Rng(5), p["gain"], p["bias"], 1e-5)
    got = _value_and_grads(fused, weights, leaves)
    dropped = T.dropout(p["y"], p_drop, Rng(5))
    unfused = T.layer_norm(T.add(p["x"], dropped), p["gain"], p["bias"], 1e-5)
    _assert_all_equal(got, _value_and_grads(unfused, weights, leaves))


def test_residual_norm_draws_the_dropout_mask_and_advances_the_rng_as_dropout_does():
    a, b = Rng(8), Rng(8)
    x, y = T.Tensor(np.zeros((3, 4))), T.Tensor(np.ones((3, 4)))
    one, zero = T.Tensor(np.ones(4)), T.Tensor(np.zeros(4))
    T.residual_norm(x, y, 0.5, a, one, zero, 1e-5)
    T.dropout(y, 0.5, b)
    assert np.array_equal(a.uniform((5,)), b.uniform((5,)))


def test_residual_norm_rejects_what_dropout_and_layer_norm_reject():
    x = T.Tensor(np.zeros((2, 4)))
    one, zero = T.Tensor(np.ones(4)), T.Tensor(np.zeros(4))
    for p in (-0.1, 1.0):
        with pytest.raises(ValueError, match="dropout probability"):
            T.residual_norm(x, x, p, Rng(0), one, zero, 1e-5)
    with pytest.raises(ValueError, match="eps must be positive"):
        T.residual_norm(x, x, 0.0, None, one, zero, 0.0)


def test_fused_ops_raise_shape_error_on_mismatched_operands():
    def z(*shape):
        return T.Tensor(np.zeros(shape))

    with pytest.raises(ShapeError):
        T.linear(z(3, 4), z(5, 2))
    with pytest.raises(ShapeError):
        T.project_heads(z(3, 4), z(5, 6), 2)
    with pytest.raises(ShapeError):  # query and key widths differ
        T.attention_core(z(2, 3, 4), z(2, 5, 3), z(2, 5, 4), None, 0.5)
    with pytest.raises(ShapeError):  # keys and values differ in length
        T.attention_core(z(2, 3, 4), z(2, 5, 4), z(2, 6, 4), None, 0.5)
