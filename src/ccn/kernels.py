"""Hot numeric kernels in plain numpy.

The tape ops in ``tensor`` call the softmax and layer-norm kernels on 2-d
row views; ``training`` calls ``adam_update`` once per parameter. Each
kernel is a fixed sequence of whole-array numpy operations, so results are
deterministic. The layer-norm kernels reduce rows with ``np.add.reduce``
(the sum ``ndarray.mean`` takes, without its Python wrapper) and reuse
their temporaries in place.
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
    d = x.shape[1]
    mean = np.add.reduce(x, axis=1, keepdims=True) / d
    xc = x - mean
    var = np.add.reduce(xc * xc, axis=1, keepdims=True) / d
    inv_std = 1.0 / np.sqrt(var + eps)
    xc *= inv_std  # now xhat
    y = xc * gain
    y += bias
    return y, xc, inv_std[:, 0]


def layer_norm_bwd(dy, xhat, inv_std, gain):
    d = dy.shape[1]
    dgain = (dy * xhat).sum(axis=0)
    dbias = dy.sum(axis=0)
    g = dy * gain
    # dx = inv_std * (g - mean(g) - xhat * mean(g * xhat)) per row
    gm = np.add.reduce(g, axis=1, keepdims=True) / d
    gxm = np.add.reduce(g * xhat, axis=1, keepdims=True) / d
    g -= gm
    g -= xhat * gxm
    g *= inv_std[:, None]
    return g, dgain, dbias


def adam_update(p, g, m, v, lr, beta1, beta2, eps, t):
    """In-place Adam step on one parameter and its moment buffers."""
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * g * g
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
