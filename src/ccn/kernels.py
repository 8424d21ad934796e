"""Hot numeric kernels in plain numpy.

The tape ops in ``tensor`` call the softmax and layer-norm kernels on 2-d
row views; ``training`` calls ``adam_update`` once per parameter. Each
kernel is a fixed sequence of whole-array numpy operations, so results are
deterministic.
"""

from __future__ import annotations

import numpy as np


def active_backend() -> str:
    """The kernel implementation in use; numpy is the only one."""
    return "numpy"


def softmax_rows_fwd(x: np.ndarray) -> np.ndarray:
    m = x.max(axis=1, keepdims=True)
    e = np.exp(x - m)
    return e / e.sum(axis=1, keepdims=True)


def softmax_rows_bwd(y: np.ndarray, dy: np.ndarray) -> np.ndarray:
    dot = (y * dy).sum(axis=1, keepdims=True)
    return y * (dy - dot)


def layer_norm_fwd(x, gain, bias, eps):
    mean = x.mean(axis=1, keepdims=True)
    var = ((x - mean) ** 2).mean(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean) * inv_std
    return xhat * gain + bias, xhat, inv_std[:, 0]


def layer_norm_bwd(dy, xhat, inv_std, gain):
    dgain = (dy * xhat).sum(axis=0)
    dbias = dy.sum(axis=0)
    g = dy * gain
    # dx = inv_std * (g - mean(g) - xhat * mean(g * xhat)) per row
    gm = g.mean(axis=1, keepdims=True)
    gxm = (g * xhat).mean(axis=1, keepdims=True)
    dx = inv_std[:, None] * (g - gm - xhat * gxm)
    return dx, dgain, dbias


def adam_update(p, g, m, v, lr, beta1, beta2, eps, t):
    """In-place Adam step on one parameter and its moment buffers."""
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * g * g
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
