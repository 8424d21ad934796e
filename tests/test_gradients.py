"""Per-operation analytic gradients vs central finite differences (64-bit)."""

import numpy as np
import pytest

from ccn import tensor as T
from ccn.attention import causal_mask, padding_mask
from ccn.gradcheck import finite_diff_check
from ccn.rng import Rng
from oracles import relu

TOL = 1e-5


def _check(build, params):
    report = finite_diff_check(build, params, h=1e-6)
    assert report.max_rel_error < TOL, report.per_param
    return report


def test_grad_matmul_2d():
    rng = np.random.default_rng(0)
    a = T.parameter("a", rng.normal(size=(3, 4)))
    b = T.parameter("b", rng.normal(size=(4, 5)))
    _check(lambda: T.mean_all(T.matmul(a, b)), {"a": a, "b": b})


def test_grad_matmul_batched_and_transpose():
    rng = np.random.default_rng(1)
    q = T.parameter("q", rng.normal(size=(2, 3, 4)))
    k = T.parameter("k", rng.normal(size=(2, 5, 4)))
    _check(lambda: T.mean_all(T.matmul(q, T.transpose(k))), {"q": q, "k": k})


def test_grad_add_mul_broadcast_bias():
    rng = np.random.default_rng(2)
    x = T.parameter("x", rng.normal(size=(2, 3, 4)))
    bias = T.parameter("bias", rng.normal(size=(4,)))
    _check(lambda: T.mean_all(T.mul(T.add(x, bias), x)), {"x": x, "bias": bias})


def test_grad_relu():
    rng = np.random.default_rng(3)
    x = T.parameter("x", rng.normal(size=(4, 6)) + 0.05)
    _check(lambda: T.mean_all(relu(x)), {"x": x})


@pytest.mark.parametrize("stacked", [False, True], ids=["2d_weights", "stacked_weights"])
def test_grad_ffn(stacked):
    rng = np.random.default_rng(12)
    lead = (2,) if stacked else ()
    shapes = {"x": (2, 3, 4), "w1": lead + (4, 6), "b1": lead + (6,), "w2": lead + (6, 4), "b2": lead + (4,)}
    p = {name: T.parameter(name, rng.normal(size=shape)) for name, shape in shapes.items()}
    w = T.Tensor(rng.normal(size=lead + (2, 3, 4)))
    _check(lambda: T.mean_all(T.mul(T.ffn(*p.values()), w)), p)


def test_grad_softmax_rows():
    rng = np.random.default_rng(4)
    x = T.parameter("x", rng.normal(size=(3, 5)))
    w = T.Tensor(rng.normal(size=(3, 5)))
    _check(lambda: T.mean_all(T.mul(T.softmax_rows(x), w)), {"x": x})


def test_grad_layer_norm():
    rng = np.random.default_rng(5)
    x = T.parameter("x", rng.normal(size=(4, 6)))
    gain = T.parameter("gain", rng.normal(size=(6,)) + 1.0)
    bias = T.parameter("bias", rng.normal(size=(6,)))
    w = T.Tensor(rng.normal(size=(4, 6)))
    _check(
        lambda: T.mean_all(T.mul(T.layer_norm(x, gain, bias), w)),
        {"x": x, "gain": gain, "bias": bias},
    )


def test_grad_embedding_scatter():
    rng = np.random.default_rng(6)
    table = T.parameter("table", rng.normal(size=(9, 4)))
    ids = np.array([[1, 2, 2], [0, 8, 3]])
    w = T.Tensor(rng.normal(size=(2, 3, 4)))
    _check(lambda: T.mean_all(T.mul(T.embedding(table, ids), w)), {"table": table})


def test_grad_concat():
    rng = np.random.default_rng(7)
    x = T.parameter("x", rng.normal(size=(2, 3, 4)))
    y = T.parameter("y", rng.normal(size=(2, 3, 4)))
    w = T.parameter("w", rng.normal(size=(8, 3)))
    _check(lambda: T.mean_all(T.matmul(T.concat([x, y], axis=-1), w)), {"x": x, "y": y, "w": w})


def test_grad_cross_entropy_with_smoothing_and_pads():
    rng = np.random.default_rng(8)
    logits = T.parameter("logits", rng.normal(size=(2, 4, 7)))
    targets = np.array([[1, 4, 0, 0], [2, 6, 5, 0]])
    _check(lambda: T.cross_entropy(logits, targets, smoothing=0.1, pad_id=0), {"logits": logits})
    _check(lambda: T.cross_entropy(logits, targets, smoothing=0.0, pad_id=0), {"logits": logits})


def test_grad_dropout_fixed_mask():
    rng = np.random.default_rng(9)
    x = T.parameter("x", rng.normal(size=(5, 6)))
    _check(lambda: T.mean_all(T.dropout(x, 0.4, Rng(11))), {"x": x})


def test_grad_shared_parameter_two_consumers():
    # one tensor feeding two pass-through paths must accumulate, not alias
    rng = np.random.default_rng(10)
    z = T.parameter("z", rng.normal(size=(3, 4)))
    c = T.Tensor(rng.normal(size=(3, 4)))
    _check(lambda: T.mean_all(T.add(T.add(z, c), T.add(z, z))), {"z": z})


# ---------------------------------------------------------------------------
# fused sublayer ops
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("x_shape", [(4, 5), (2, 3, 5)])
@pytest.mark.parametrize("with_bias", [True, False])
def test_grad_linear(x_shape, with_bias):
    rng = np.random.default_rng(11)
    x = T.parameter("x", rng.normal(size=x_shape))
    w = T.parameter("w", rng.normal(size=(5, 3)))
    b = T.parameter("b", rng.normal(size=(3,))) if with_bias else None
    weights = T.Tensor(rng.normal(size=x_shape[:-1] + (3,)))
    params = {"x": x, "w": w} | ({"b": b} if with_bias else {})
    _check(lambda: T.mean_all(T.mul(T.linear(x, w, b), weights)), params)


def test_grad_project_heads():
    rng = np.random.default_rng(12)
    x = T.parameter("x", rng.normal(size=(2, 3, 4)))
    w = T.parameter("w", rng.normal(size=(4, 6)))
    weights = T.Tensor(rng.normal(size=(2, 2, 3, 3)))
    _check(lambda: T.mean_all(T.mul(T.project_heads(x, w, 2), weights)), {"x": x, "w": w})


@pytest.mark.parametrize("x_shape", [(2, 2, 3, 5), (2, 3, 5)], ids=["branched", "shared"])
def test_grad_linear_with_a_stacked_weight(x_shape):
    # a (2, B, n, d) input gives each branch its own rows; a (B, n, d) one is shared
    rng = np.random.default_rng(15)
    x = T.parameter("x", rng.normal(size=x_shape))
    w = T.parameter("w", rng.normal(size=(2, 5, 3)))
    b = T.parameter("b", rng.normal(size=(2, 3)))
    weights = T.Tensor(rng.normal(size=(2, 2, 3, 3)))
    _check(lambda: T.mean_all(T.mul(T.linear(x, w, b), weights)), {"x": x, "w": w, "b": b})


@pytest.mark.parametrize("channels", [None, slice(None, None, -1), 0], ids=["own", "crossed", "shared"])
def test_grad_project_heads_reading_channels(channels):
    rng = np.random.default_rng(16)
    x = T.parameter("x", rng.normal(size=(2, 2, 3, 4)))
    w = T.parameter("w", rng.normal(size=(2, 4, 6)))
    weights = T.Tensor(rng.normal(size=(2, 2, 2, 3, 3)))
    _check(lambda: T.mean_all(T.mul(T.project_heads(x, w, 2, channels), weights)), {"x": x, "w": w})


def test_grad_fold_branches():
    rng = np.random.default_rng(17)
    x = T.parameter("x", rng.normal(size=(2, 2, 3, 4)))
    weights = T.Tensor(rng.normal(size=(2, 3, 8)))
    _check(lambda: T.mean_all(T.mul(T.fold_branches(x), weights)), {"x": x})


@pytest.mark.parametrize("bias", ["none", "causal", "padding"])
def test_grad_attention_core(bias):
    rng = np.random.default_rng(13)
    b, h, n, m, d_k = 2, 2, 4, 4 if bias == "causal" else 5, 3
    qh = T.parameter("qh", rng.normal(size=(b, h, n, d_k)))
    kh = T.parameter("kh", rng.normal(size=(b, h, m, d_k)))
    vh = T.parameter("vh", rng.normal(size=(b, h, m, d_k)))
    bias_array = {
        "none": None,
        "causal": causal_mask(n, np.float64),
        "padding": padding_mask(np.array([[0, 0, 0, 1, 1], [0, 0, 0, 0, 0]]), np.float64),
    }[bias]
    weights = T.Tensor(rng.normal(size=(b, n, h * d_k)))
    _check(
        lambda: T.mean_all(T.mul(T.attention_core(qh, kh, vh, bias_array, 0.5), weights)),
        {"qh": qh, "kh": kh, "vh": vh},
    )


@pytest.mark.parametrize("p", [0.0, 0.4])
def test_grad_residual_norm(p):
    rng = np.random.default_rng(14)
    x = T.parameter("x", rng.normal(size=(2, 3, 6)))
    y = T.parameter("y", rng.normal(size=(2, 3, 6)))
    gain = T.parameter("gain", rng.normal(size=(6,)) + 1.0)
    bias = T.parameter("bias", rng.normal(size=(6,)))
    weights = T.Tensor(rng.normal(size=(2, 3, 6)))

    def build():
        # a fresh Rng per evaluation draws the same mask every time
        out = T.residual_norm(x, y, p, Rng(11), gain, bias, 1e-5)
        return T.mean_all(T.mul(out, weights))

    _check(build, {"x": x, "y": y, "gain": gain, "bias": bias})


def test_grad_residual_norm_stacked_with_a_shared_residual():
    rng = np.random.default_rng(18)
    x = T.parameter("x", rng.normal(size=(2, 3, 6)))
    y = T.parameter("y", rng.normal(size=(2, 2, 3, 6)))
    gain = T.parameter("gain", rng.normal(size=(2, 6)) + 1.0)
    bias = T.parameter("bias", rng.normal(size=(2, 6)))
    weights = T.Tensor(rng.normal(size=(2, 2, 3, 6)))

    def build():
        out = T.residual_norm(x, y, 0.4, Rng(12), gain, bias, 1e-5)
        return T.mean_all(T.mul(out, weights))

    _check(build, {"x": x, "y": y, "gain": gain, "bias": bias})
