"""Dense-tensor math with explicit per-operation backward passes.

A Tensor wraps a numpy array and, when gradients are enabled, remembers the
operation that produced it as a backward closure plus parent links. Calling
``backward()`` on a scalar walks the tape in reverse topological order and
accumulates gradients into every reachable leaf with ``requires_grad``.

Shapes are 2-d (rows x features) or carry leading batch axes (the batch,
and the heads inside attention); the fused kernels flatten all leading axes
into rows. Verification runs use float64, training float32. An op keeps
its operand's dtype and casts constants to it; only the scalar loss of
``cross_entropy`` is float64.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from . import kernels
from .errors import DataError, ShapeError, VocabError
from .rng import Rng

_grad_enabled = True


@contextmanager
def no_grad():
    """Disable tape construction inside the block (decoding, evaluation)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, name=None):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad
        self.name = name
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{tag})"

    def zero_grad(self):
        """Zero the gradient in place (it may be a view; see ``model.ParamStore``)."""
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        else:
            self.grad.fill(0)

    def backward(self):
        """Reverse-mode sweep from a scalar output."""
        if self.data.size != 1:
            raise ShapeError(f"backward() needs a scalar, got shape {self.data.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad:
                if node.grad is None:
                    node.grad = np.zeros_like(node.data)
                node.grad += g
            if node._backward is not None:
                for parent, pg in node._backward(g):
                    if pg is None:
                        continue
                    acc = grads.get(id(parent))
                    # rebinding (never +=) keeps pass-through gradients safe to alias
                    grads[id(parent)] = pg if acc is None else acc + pg


def parameter(name: str, data: np.ndarray) -> Tensor:
    """Leaf tensor that accumulates gradients; grad buffer allocated eagerly."""
    t = Tensor(np.ascontiguousarray(data), requires_grad=True, name=name)
    t.zero_grad()
    return t


def _make(data, parents, backward):
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad or p._parents for p in parents):
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to the shape the operand was broadcast from."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise / structural ops
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data + b.data

    def backward(g):
        return ((a, _unbroadcast(g, a.data.shape)), (b, _unbroadcast(g, b.data.shape)))

    return _make(data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data * b.data

    def backward(g):
        return (
            (a, _unbroadcast(g * b.data, a.data.shape)),
            (b, _unbroadcast(g * a.data, b.data.shape)),
        )

    return _make(data, (a, b), backward)


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a constant cast to the operand's dtype, so a numpy
    float64 scalar cannot promote a float32 tape."""
    c = a.data.dtype.type(c)
    data = a.data * c

    def backward(g):
        return ((a, g * c),)

    return _make(data, (a,), backward)


def add_const(a: Tensor, c: np.ndarray) -> Tensor:
    """Add a constant array, taken in the operand's dtype (no gradient flows into it)."""
    data = a.data + np.asarray(c, dtype=a.data.dtype)

    def backward(g):
        return ((a, _unbroadcast(g, a.data.shape)),)

    return _make(data, (a,), backward)


def relu(a: Tensor) -> Tensor:
    data = np.maximum(a.data, 0)

    def backward(g):
        return ((a, g * (a.data > 0)),)

    return _make(data, (a,), backward)


def matmul(a, b) -> Tensor:
    """Matrix product; operands may carry a leading batch dimension.

    A 2-d ``b`` (a weight) is applied to all rows of ``a`` as one GEMM, and
    its gradient is one GEMM over those rows; a batched ``b`` broadcasts.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul needs matrices, got {a.data.shape} x {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.data.shape} x {b.data.shape}")
    if b.data.ndim == 2:
        d, k = b.data.shape
        rows = a.data.reshape(-1, d)
        data = (rows @ b.data).reshape(a.data.shape[:-1] + (k,))

        def backward(g):
            g_rows = g.reshape(-1, k)
            ga = (g_rows @ b.data.T).reshape(a.data.shape)
            return ((a, ga), (b, rows.T @ g_rows))

        return _make(data, (a, b), backward)

    data = np.matmul(a.data, b.data)

    def backward(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return ((a, _unbroadcast(ga, a.data.shape)), (b, _unbroadcast(gb, b.data.shape)))

    return _make(data, (a, b), backward)


def transpose(a: Tensor, axis1: int = -1, axis2: int = -2) -> Tensor:
    """Swap two axes, by default the last two."""
    data = np.swapaxes(a.data, axis1, axis2)

    def backward(g):
        return ((a, np.swapaxes(g, axis1, axis2)),)

    return _make(data, (a,), backward)


def reshape(a: Tensor, shape: tuple) -> Tensor:
    data = a.data.reshape(shape)

    def backward(g):
        return ((a, g.reshape(a.data.shape)),)

    return _make(data, (a,), backward)


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        pieces = []
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis if axis >= 0 else g.ndim + axis] = slice(lo, hi)
            pieces.append((t, g[tuple(idx)]))
        return tuple(pieces)

    return _make(data, tuple(tensors), backward)


def mean_all(a: Tensor) -> Tensor:
    n = a.data.size
    data = np.asarray(a.data.mean())

    def backward(g):
        return ((a, np.full_like(a.data, float(g) / n)),)

    return _make(data, (a,), backward)


# ---------------------------------------------------------------------------
# fused neural-net ops (kernel-backed)
# ---------------------------------------------------------------------------


def _rows(x: np.ndarray) -> np.ndarray:
    """View an (..., d) array as 2-d rows for the kernels."""
    return np.ascontiguousarray(x.reshape(-1, x.shape[-1]))


def softmax_rows(a: Tensor) -> Tensor:
    """Row-wise softmax, stabilized by subtracting each row's max."""
    flat = _rows(a.data)
    y = kernels.softmax_rows_fwd(flat)
    data = y.reshape(a.data.shape)

    def backward(g):
        dx = kernels.softmax_rows_bwd(y, _rows(g))
        return ((a, dx.reshape(a.data.shape)),)

    return _make(data, (a,), backward)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize every row to zero mean / unit variance, then scale and shift."""
    if eps <= 0:
        raise ValueError(f"layer_norm eps must be positive, got {eps}")
    flat = _rows(a.data)
    y, xhat, inv_std = kernels.layer_norm_fwd(flat, gain.data, bias.data, eps)
    data = y.reshape(a.data.shape)

    def backward(g):
        dx, dgain, dbias = kernels.layer_norm_bwd(_rows(g), xhat, inv_std, gain.data)
        return ((a, dx.reshape(a.data.shape)), (gain, dgain), (bias, dbias))

    return _make(data, (a, gain, bias), backward)


def dropout(a: Tensor, p: float, rng: Rng | None, training: bool) -> Tensor:
    """Zero elements with probability p and rescale survivors by 1/(1-p)."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return a
    if rng is None:
        raise ValueError("dropout in training mode needs an rng")
    keep = rng.uniform_at_least(a.data.shape, p)
    mask = keep.astype(a.data.dtype) / np.asarray(1.0 - p, dtype=a.data.dtype)
    data = a.data * mask

    def backward(g):
        return ((a, g * mask),)

    return _make(data, (a,), backward)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup with scatter-add backward into the table."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise VocabError(
            f"token id out of range [0, {table.data.shape[0]}): min={ids.min()}, max={ids.max()}"
        )
    data = table.data[ids]

    def backward(g):
        # scatter-add through the flat table: numpy's 1-d ``add.at`` fast path,
        # accumulating each element in the same row order as the 2-d form
        vocab, d = table.data.shape
        gt = np.zeros(vocab * d, dtype=table.data.dtype)
        np.add.at(gt, (ids.reshape(-1, 1) * d + np.arange(d)).reshape(-1), g.reshape(-1))
        return ((table, gt.reshape(vocab, d)),)

    return _make(data, (table,), backward)


def cross_entropy(
    logits: Tensor, targets: np.ndarray, smoothing: float = 0.0, pad_id: int = 0
) -> Tensor:
    """Label-smoothed negative log-likelihood averaged over non-pad positions.

    The smoothed target distribution puts 1 - eps + eps/V on the gold label
    and eps/V elsewhere. Pad positions are dropped from the average.
    """
    targets = np.asarray(targets).reshape(-1)
    flat = _rows(logits.data)
    n, vocab = flat.shape
    if targets.shape[0] != n:
        raise ShapeError(f"cross_entropy: {n} logit rows vs {targets.shape[0]} targets")
    keep = targets != pad_id
    n_keep = int(keep.sum())
    if n_keep == 0:
        raise DataError("cross_entropy: batch contains only pad positions")
    live = targets[keep]
    if live.min() < 0 or live.max() >= vocab:
        raise VocabError(f"target id out of range [0, {vocab})")

    # log-softmax as x - max - log(sum(exp(x - max))): finite where a float32
    # probability underflows to 0
    shifted = flat[keep]
    shifted = shifted - shifted.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    nll = -logp[np.arange(n_keep), live]
    if smoothing > 0.0:
        # smoothed target q: eps/V everywhere plus 1-eps on the gold label
        per_pos = (1.0 - smoothing) * nll - (smoothing / vocab) * logp.sum(axis=1)
    else:
        per_pos = nll
    data = np.asarray(per_pos.mean(), dtype=np.float64)

    def backward(g):
        # d loss / d logits = (softmax - q) / n_keep on live rows, 0 on pads
        dl = np.zeros_like(flat)
        dl[keep] = np.exp(logp) - smoothing / vocab
        dl[np.arange(n)[keep], live] -= 1.0 - smoothing
        dl *= float(g) / n_keep
        return ((logits, dl.reshape(logits.data.shape)),)

    return _make(data, (logits,), backward)
