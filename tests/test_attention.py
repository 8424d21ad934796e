"""Attention: non-local oracle equivalence, routings, masks, degradations."""

import numpy as np
import pytest

from ccn import tensor as T
from ccn.attention import (
    LEFT,
    RIGHT,
    AttentionHeadParams,
    GateRouting,
    MultiHeadParams,
    causal_mask,
    coattention,
    crossed_routing,
    multi_head,
    padding_mask,
    scaled_dot_attention,
    self_routing,
)
from ccn.errors import DataError, MaskError, ShapeError
from ccn.gradcheck import finite_diff_check

from oracles import fuse_heads, nonlocal_op, tape_ops


def _head(rng, d, d_k=None, d_v=None):
    d_k = d_k or d
    d_v = d_v or d
    return AttentionHeadParams(
        w_q=T.Tensor(rng.normal(size=(d, d_k))),
        w_k=T.Tensor(rng.normal(size=(d, d_k))),
        w_v=T.Tensor(rng.normal(size=(d, d_v))),
    )


def _mha(rng, d, n_heads):
    d_k = d // n_heads
    heads = [_head(rng, d, d_k, d_k) for _ in range(n_heads)]
    return fuse_heads(heads, w_o=T.Tensor(rng.normal(size=(d, d))))


# ---------------------------------------------------------------------------
# routing and masks
# ---------------------------------------------------------------------------


def test_crossed_routing_values():
    left, right = crossed_routing()
    assert left.v_source == LEFT
    assert left.k_source == LEFT
    assert left.q_source == RIGHT
    assert right.q_source == LEFT
    assert right.v_source == RIGHT
    assert left != right


def test_routing_rejects_unknown_channel():
    with pytest.raises(ValueError):
        GateRouting(v_source="left", k_source="middle", q_source="right")


def test_causal_mask_counts():
    assert not (causal_mask(1, np.float64) < 0).any()
    m2 = causal_mask(2, np.float64) < 0
    assert m2.sum() == 1 and m2[0, 1]
    assert (causal_mask(4, np.float64) < 0).sum() == 6


def test_causal_mask_rejects_zero_length():
    with pytest.raises(ValueError):
        causal_mask(0, np.float64)


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
def test_mask_biases_come_back_in_the_requested_dtype(dtype):
    causal = causal_mask(3, dtype)
    padding = padding_mask(np.array([[False, True], [False, False]]), dtype)
    assert causal.dtype == padding.dtype == np.dtype(dtype)
    assert padding.shape == (2, 1, 2)
    assert padding[0, 0, 1] == causal[0, 1] == dtype(-1e9)
    assert not padding[1].any() and not np.tril(causal).any()


# ---------------------------------------------------------------------------
# non-local oracle
# ---------------------------------------------------------------------------


def test_nonlocal_uniform_weights_is_mean():
    rng = np.random.default_rng(0)
    q = rng.normal(size=(3, 4))
    k = rng.normal(size=(5, 4))
    v = rng.normal(size=(5, 4))
    out = nonlocal_op(q, k, v, lambda qi, kj: 1.0, lambda vj: vj, lambda qi, kk: kk.shape[0])
    assert np.allclose(out, np.tile(v.mean(axis=0), (3, 1)))


def test_nonlocal_single_key_normalizes_away_pairwise():
    rng = np.random.default_rng(1)
    q = rng.normal(size=(4, 3))
    k = rng.normal(size=(1, 3))
    v = rng.normal(size=(1, 3))
    f = lambda qi, kj: float(np.exp(qi @ kj))
    out = nonlocal_op(q, k, v, f, lambda vj: 2.0 * vj, lambda qi, kk: f(qi, kk[0]))
    assert np.allclose(out, np.tile(2.0 * v[0], (4, 1)))


def test_nonlocal_zero_normalizer_identifies_row():
    q = np.zeros((2, 3))
    k = np.zeros((2, 3))
    v = np.zeros((2, 3))
    with pytest.raises(DataError, match="row 0"):
        nonlocal_op(q, k, v, lambda a, b: 1.0, lambda x: x, lambda a, b: 0.0)


def test_nonlocal_exp_kernel_degrades_to_softmax_attention():
    rng = np.random.default_rng(2)
    d = 4
    x = rng.normal(size=(5, d))
    wq, wk, wv = (rng.normal(size=(d, d)) for _ in range(3))
    f = lambda qi, kj: float(np.exp((qi @ wq) @ (kj @ wk)))
    got = nonlocal_op(
        x, x, x, f, lambda vj: vj @ wv, lambda qi, kk: sum(f(qi, kj) for kj in kk)
    )
    scores = (x @ wq) @ (x @ wk).T
    want = T.softmax_rows(T.Tensor(scores)).data @ (x @ wv)
    assert np.abs(got - want).max() < 1e-10


# ---------------------------------------------------------------------------
# scaled dot-product and multi-head
# ---------------------------------------------------------------------------


def test_attention_identical_keys_gives_uniform_mixture():
    rng = np.random.default_rng(3)
    d = 4
    q = T.Tensor(rng.normal(size=(3, d)))
    k = T.Tensor(np.tile(rng.normal(size=(1, d)), (6, 1)))
    v = T.Tensor(rng.normal(size=(6, d)))
    head = _head(rng, d)
    out = scaled_dot_attention(q, k, v, head).data
    want = np.tile((v.data @ head.w_v.data).mean(axis=0), (3, 1))
    assert np.allclose(out, want, atol=1e-12)


def test_attention_single_key():
    rng = np.random.default_rng(4)
    d = 4
    q = T.Tensor(rng.normal(size=(5, d)))
    k = T.Tensor(rng.normal(size=(1, d)))
    v = T.Tensor(rng.normal(size=(1, d)))
    head = _head(rng, d)
    out = scaled_dot_attention(q, k, v, head).data
    assert np.allclose(out, np.tile(v.data[0] @ head.w_v.data, (5, 1)), atol=1e-12)


def test_attention_equals_nonlocal_oracle_on_random_instances():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n_q, n_k, d = rng.integers(2, 7, size=3)
        q = rng.normal(size=(n_q, d))
        k = rng.normal(size=(n_k, d))
        v = rng.normal(size=(n_k, d))
        head = _head(rng, int(d))
        wq, wk, wv = head.w_q.data, head.w_k.data, head.w_v.data
        # fold the 1/sqrt(d_k) scale into the query projection
        wq_scaled = wq / np.sqrt(wk.shape[1])
        f = lambda qi, kj: float(np.exp((qi @ wq_scaled) @ (kj @ wk)))
        want = nonlocal_op(
            q, k, v, f, lambda vj: vj @ wv, lambda qi, kk: sum(f(qi, kj) for kj in kk)
        )
        got = scaled_dot_attention(T.Tensor(q), T.Tensor(k), T.Tensor(v), head).data
        assert np.abs(got - want).max() < 1e-10


def test_attention_width_mismatch_raises():
    rng = np.random.default_rng(6)
    head = _head(rng, 4)
    bad_q = T.Tensor(rng.normal(size=(3, 5)))
    kv = T.Tensor(rng.normal(size=(3, 4)))
    with pytest.raises(ShapeError):
        scaled_dot_attention(bad_q, kv, kv, head)


def test_attention_kv_length_mismatch_raises():
    rng = np.random.default_rng(7)
    head = _head(rng, 4)
    q = T.Tensor(rng.normal(size=(3, 4)))
    k = T.Tensor(rng.normal(size=(5, 4)))
    v = T.Tensor(rng.normal(size=(4, 4)))
    with pytest.raises(ShapeError):
        scaled_dot_attention(q, k, v, head)


def test_fully_masked_row_rejected():
    # every key of batch row 0 is a pad: its query rows allow no key
    with pytest.raises(MaskError):
        padding_mask(np.array([[True, True], [False, False]]), np.float64)


def test_masked_weights_are_exactly_zero():
    rng = np.random.default_rng(9)
    n = 5
    scores = T.Tensor(rng.normal(size=(n, n)))
    masked = T.add_const(scores, causal_mask(n, np.float64))
    weights = T.softmax_rows(masked).data
    assert np.all(weights[np.triu_indices(n, k=1)] == 0.0)
    assert np.abs(weights.sum(axis=1) - 1.0).max() < 1e-6


def test_multi_head_single_head_identity_projection():
    rng = np.random.default_rng(10)
    d = 4
    x = T.Tensor(rng.normal(size=(5, d)))
    head = _head(rng, d)
    params = fuse_heads([head], w_o=T.Tensor(np.eye(d)))
    got = multi_head(x, x, x, params).data
    want = scaled_dot_attention(x, x, x, head).data
    assert np.allclose(got, want, atol=1e-14)


def test_multi_head_output_shape():
    rng = np.random.default_rng(11)
    for n_heads in (1, 2, 4):
        d = 8
        params = _mha(rng, d, n_heads)
        x = T.Tensor(rng.normal(size=(3, d)))
        assert multi_head(x, x, x, params).data.shape == (3, d)


def test_multi_head_output_projection_rows_must_match_value_width():
    rng = np.random.default_rng(12)
    w_q, w_k, w_v = (T.Tensor(rng.normal(size=(8, 8))) for _ in range(3))
    with pytest.raises(ShapeError, match="w_v width 8"):
        MultiHeadParams(w_q, w_k, w_v, w_o=T.Tensor(rng.normal(size=(6, 8))), n_heads=2)


def _trainable_mha(rng, d, n_heads):
    """Fused trainable params, and per-head leaves holding the same values
    (the input of the per-head oracle)."""
    d_k = d // n_heads
    heads = [
        AttentionHeadParams(
            *(T.parameter(f"h{j}.w{g}", rng.normal(size=(d, d_k))) for g in "qkv")
        )
        for j in range(n_heads)
    ]
    w_o = T.parameter("wo", rng.normal(size=(d, d)))
    return fuse_heads(heads, w_o, leaf=lambda a: T.parameter("fused", a)), heads


def _per_head_oracle(q, k, v, heads, w_o, mask):
    """Concatenated single-head attentions, projected by w_o."""
    outs = [scaled_dot_attention(q, k, v, h, mask=mask) for h in heads]
    return T.matmul(T.concat(outs, axis=-1), w_o)


def _value_and_grads(fn, leaves, upstream):
    for t in leaves:
        t.zero_grad()
    out = fn()
    T.mean_all(T.mul(out, T.Tensor(upstream * upstream.size))).backward()
    return out.data, [t.grad.copy() for t in leaves]


@pytest.mark.parametrize("batched", [False, True], ids=["unbatched", "batched"])
@pytest.mark.parametrize("mask_kind", ["none", "causal", "padding"])
def test_multi_head_matches_per_head_oracle_values_and_gradients(batched, mask_kind):
    rng = np.random.default_rng(20)
    d, n_heads, n_q, n_k, b = 12, 3, 4, 5, 2
    params, heads = _trainable_mha(rng, d, n_heads)
    lead = (b,) if batched else ()
    if mask_kind == "causal":
        n_k = n_q  # self-attention
    q = T.parameter("q", rng.normal(size=lead + (n_q, d)))
    kv = q if mask_kind == "causal" else T.parameter("kv", rng.normal(size=lead + (n_k, d)))
    mask = None
    if mask_kind == "causal":
        mask = causal_mask(n_q, np.float64)
    elif mask_kind == "padding":
        key_is_pad = np.zeros(lead + (n_k,), dtype=bool)
        key_is_pad[..., -2:] = True
        if batched:
            key_is_pad[0, -2:] = False  # rows differ: a 3-d mask
        mask = padding_mask(key_is_pad, np.float64)
        assert mask.ndim == (3 if batched else 2)
    shared = [params.w_o, q]
    if kv is not q:
        shared.append(kv)
    head_leaves = [t for h in heads for t in (h.w_q, h.w_k, h.w_v)]
    upstream = rng.normal(size=lead + (n_q, d))
    fused = [params.w_q, params.w_k, params.w_v]
    got, got_grads = _value_and_grads(lambda: multi_head(q, kv, kv, params, mask), fused + shared, upstream)
    want, want_grads = _value_and_grads(
        lambda: _per_head_oracle(q, kv, kv, heads, params.w_o, mask), head_leaves + shared, upstream
    )
    # head j's gradient is the j-th column block of each fused gradient
    d_k = d // n_heads
    per_head = [g[:, j * d_k : (j + 1) * d_k] for j in range(n_heads) for g in got_grads[:3]]
    got_grads = per_head + got_grads[3:]
    leaves = head_leaves + shared
    assert got.shape == want.shape == lead + (n_q, d)
    assert np.abs(got - want).max() < 1e-10
    for leaf, g_got, g_want in zip(leaves, got_grads, want_grads, strict=True):
        assert np.abs(g_got - g_want).max() < 1e-10, leaf.name


def test_multi_head_tape_ops_do_not_grow_with_heads():
    rng = np.random.default_rng(21)
    d = 16
    counts = []
    for n_heads in (1, 2, 4, 8):
        params, _ = _trainable_mha(rng, d, n_heads)
        x = T.parameter("x", rng.normal(size=(2, 5, d)))
        counts.append(tape_ops(multi_head(x, x, x, params, causal_mask(5, np.float64))))
    assert len(set(counts)) == 1, counts


def test_multi_head_gate_width_not_split_by_heads_raises():
    rng = np.random.default_rng(22)
    w_q, w_k = (T.Tensor(rng.normal(size=(8, 6))) for _ in range(2))
    w_v, w_o = (T.Tensor(rng.normal(size=(8, 8))) for _ in range(2))
    with pytest.raises(ShapeError, match="w_q width 6 does not split into 4 heads"):
        MultiHeadParams(w_q, w_k, w_v, w_o, n_heads=4)


def test_multi_head_invariant_under_joint_kv_permutation():
    rng = np.random.default_rng(13)
    d = 8
    params = _mha(rng, d, 2)
    q = T.Tensor(rng.normal(size=(4, d)))
    k = rng.normal(size=(6, d))
    v = rng.normal(size=(6, d))
    base = multi_head(q, T.Tensor(k), T.Tensor(v), params).data
    for _ in range(5):
        perm = rng.permutation(6)
        out = multi_head(q, T.Tensor(k[perm]), T.Tensor(v[perm]), params).data
        assert np.abs(out - base).max() < 1e-10


# ---------------------------------------------------------------------------
# co-attention
# ---------------------------------------------------------------------------


def test_coattention_degrades_to_two_self_attentions():
    rng = np.random.default_rng(14)
    d = 8
    left_params, right_params = _mha(rng, d, 2), _mha(rng, d, 2)
    x_l = T.Tensor(rng.normal(size=(5, d)))
    x_r = T.Tensor(rng.normal(size=(3, d)))
    y_l, y_r = coattention(
        x_l, x_r, self_routing(LEFT), self_routing(RIGHT), left_params, right_params
    )
    assert np.abs(y_l.data - multi_head(x_l, x_l, x_l, left_params).data).max() < 1e-10
    assert np.abs(y_r.data - multi_head(x_r, x_r, x_r, right_params).data).max() < 1e-10


def test_coattention_crossed_with_equal_inputs_and_shared_params():
    rng = np.random.default_rng(15)
    d = 8
    shared = _mha(rng, d, 2)
    x = T.Tensor(rng.normal(size=(4, d)))
    rl, rr = crossed_routing()
    y_l, y_r = coattention(x, x, rl, rr, shared, shared)
    self_attn = multi_head(x, x, x, shared).data
    assert np.array_equal(y_l.data, y_r.data)
    assert np.abs(y_l.data - self_attn).max() < 1e-12


def test_coattention_single_position_is_weightless():
    rng = np.random.default_rng(16)
    d = 6
    left_params, right_params = _mha(rng, d, 1), _mha(rng, d, 1)
    x_l = T.Tensor(rng.normal(size=(1, d)))
    x_r = T.Tensor(rng.normal(size=(1, d)))
    rl, rr = crossed_routing()
    y_l, y_r = coattention(x_l, x_r, rl, rr, left_params, right_params)
    want_l = (x_l.data @ left_params.w_v.data) @ left_params.w_o.data
    want_r = (x_r.data @ right_params.w_v.data) @ right_params.w_o.data
    assert np.allclose(y_l.data, want_l, atol=1e-12)
    assert np.allclose(y_r.data, want_r, atol=1e-12)


def test_coattention_kv_split_across_channels_length_mismatch():
    rng = np.random.default_rng(17)
    d = 4
    params = _mha(rng, d, 1), _mha(rng, d, 1)
    x_l = T.Tensor(rng.normal(size=(3, d)))
    x_r = T.Tensor(rng.normal(size=(5, d)))
    split = GateRouting(v_source=LEFT, k_source=RIGHT, q_source=LEFT)
    with pytest.raises(ShapeError):
        coattention(x_l, x_r, split, self_routing(RIGHT), params[0], params[1])


def test_row_space_property_with_identity_value_map():
    # with W_v = I and w_o = I every output row is a mixture of rows of V
    rng = np.random.default_rng(18)
    for _ in range(20):
        n_k, d = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        n_q = int(rng.integers(2, 7))
        head = AttentionHeadParams(
            w_q=T.Tensor(rng.normal(size=(d, d))),
            w_k=T.Tensor(rng.normal(size=(d, d))),
            w_v=T.Tensor(np.eye(d)),
        )
        q = rng.normal(size=(n_q, d))
        k = rng.normal(size=(n_k, d))
        v = rng.normal(size=(n_k, d))
        out = scaled_dot_attention(T.Tensor(q), T.Tensor(k), T.Tensor(v), head).data
        basis = np.linalg.svd(v, full_matrices=False)[2]
        residual = out - (out @ basis.T) @ basis
        assert np.abs(residual).max() < 1e-8


def test_coattention_gradients_pass_finite_differences():
    rng = np.random.default_rng(19)
    d = 4
    x_l = T.parameter("x_l", rng.normal(size=(3, d)))
    x_r = T.parameter("x_r", rng.normal(size=(2, d)))
    params = {}
    mhas = []
    for side in ("left", "right"):
        names = [f"{side}.{w}" for w in ("wq", "wk", "wv", "wo")]
        gates = {name: T.parameter(name, rng.normal(size=(d, d))) for name in names}
        mhas.append(MultiHeadParams(*gates.values(), n_heads=1))
        params |= gates
    params |= {"x_l": x_l, "x_r": x_r}
    rl, rr = crossed_routing()

    def loss():
        y_l, y_r = coattention(x_l, x_r, rl, rr, mhas[0], mhas[1])
        return T.add(T.mean_all(T.mul(y_l, y_l)), T.mean_all(T.mul(y_r, y_r)))

    report = finite_diff_check(loss, params, h=1e-6)
    assert report.max_rel_error < 1e-5, report.per_param
