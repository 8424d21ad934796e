"""Hot numeric kernels in plain numpy.

The tape ops in ``tensor`` call the softmax kernels on 2-d row views and
the layer-norm kernels on (rows, d) or stacked (branches, rows, d) views,
whose gain and bias carry the same leading axes, (d,) or (branches, d);
``training`` calls ``adam_update`` once per step, over the flat
parameter, gradient and moment arenas. Each kernel is a fixed sequence of
numpy operations, so results are deterministic. The layer-norm kernels
reduce rows with ``np.add.reduce`` (the sum ``ndarray.mean`` takes, without
its Python wrapper) and reuse their temporaries in place.
"""

from __future__ import annotations

import math

import numpy as np

# elements per ``adam_update`` block: two float32 scratch blocks stay in L2,
# where whole-buffer temporaries would be fresh allocations faulted in anew
ADAM_BLOCK = 1 << 14


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
    d = x.shape[-1]
    mean = np.add.reduce(x, axis=-1, keepdims=True) / d
    xc = x - mean
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / d
    inv_std = 1.0 / np.sqrt(var + eps)
    xc *= inv_std  # now xhat
    y = xc * gain[..., None, :]
    y += bias[..., None, :]
    return y, xc, inv_std[..., 0]


def layer_norm_bwd(dy, xhat, inv_std, gain):
    d = dy.shape[-1]
    dgain = (dy * xhat).sum(axis=-2)
    dbias = dy.sum(axis=-2)
    g = dy * gain[..., None, :]
    # dx = inv_std * (g - mean(g) - xhat * mean(g * xhat)) per row
    gm = np.add.reduce(g, axis=-1, keepdims=True) / d
    gxm = np.add.reduce(g * xhat, axis=-1, keepdims=True) / d
    g -= gm
    g -= xhat * gxm
    g *= inv_std[..., None]
    return g, dgain, dbias


def adam_update(p, g, m, v, lr, beta1, beta2, eps, t):
    """In-place Adam step on a parameter array and its moment buffers.

    Walks the operands along their first axis, about ``ADAM_BLOCK``
    elements at a time, through two scratch blocks written with ``out=``.
    Each element sees the operations of the one-shot step, in its order:

        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)

    so the result is bit-identical to it. The scalars are Python floats.
    """
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    row = math.prod(p.shape[1:])
    rows = max(1, ADAM_BLOCK // max(1, row))
    scratch = np.empty((2, min(len(p), rows) * row), dtype=np.result_type(g, lr))
    for lo in range(0, len(p), rows):
        pb, gb, mb, vb = (x[lo : lo + rows] for x in (p, g, m, v))
        a, b = (s[: pb.size].reshape(pb.shape) for s in scratch)
        mb *= beta1
        np.multiply(1.0 - beta1, gb, out=a)
        mb += a
        vb *= beta2
        np.multiply(1.0 - beta2, gb, out=a)
        a *= gb
        vb += a
        np.divide(mb, bc1, out=a)
        np.multiply(lr, a, out=a)
        np.divide(vb, bc2, out=b)
        np.sqrt(b, out=b)
        b += eps
        a /= b
        pb -= a
