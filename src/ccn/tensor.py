"""Dense-tensor math with explicit per-operation backward passes.

A Tensor wraps a numpy array and, when gradients are enabled, remembers the
operation that produced it as a backward closure plus parent links. Calling
``backward()`` on a scalar walks the tape in reverse topological order and
accumulates gradients into every reachable leaf with ``requires_grad``.

Shapes are 2-d (rows x features) or carry leading batch axes (the batch,
and the heads inside attention); the fused kernels flatten all leading axes
into rows. A stacked parameter carries a leading branch axis, one slice
per branch of the model; an activation with a branch axis has it in front
of its (batch, positions, features) axes, and one without it is shared by
every branch. Verification runs use float64, training float32. An op keeps
its operand's dtype and casts constants to it; only the scalar loss of
``cross_entropy`` is float64.

The model's sublayers run on four fused ops, each one tape node with one
hand-written backward: ``linear`` (x @ w + b), ``project_heads`` (x @ w
split into heads, optionally reading the branches' channels crossed),
``attention_core`` (scores, scale, bias, softmax, values
and head merge; only the probabilities are saved) and ``residual_norm``
(layer_norm(x + dropout(y)), not keeping the sum). Each computes the same
numbers, in the same order, as the composition of the plain ops it
replaces. ``dropout`` and ``residual_norm`` drop exactly when given an rng;
without one (inference) nothing is dropped.
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

    A 2-d ``b`` (a weight) is ``linear``: one GEMM over all rows of ``a``,
    forward and backward; a batched ``b`` broadcasts.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul needs matrices, got {a.data.shape} x {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.data.shape} x {b.data.shape}")
    if b.data.ndim == 2:
        return linear(a, b)

    data = np.matmul(a.data, b.data)

    def backward(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return ((a, _unbroadcast(ga, a.data.shape)), (b, _unbroadcast(gb, b.data.shape)))

    return _make(data, (a, b), backward)


def _weighted(x: np.ndarray, w: np.ndarray):
    """x @ w over the rows of ``x``, and a function from the product's
    gradient to (dx, dw). A stacked (branches, d, k) weight applies as an
    array of shape (branches, 1, d, k) would broadcast, one GEMM per branch:
    a (branches, B, n, d) ``x`` gives each branch its own rows, and a
    (B, n, d) ``x`` is shared by every branch, its gradient summed over them."""
    lead = x.shape[: x.ndim - 3] if w.ndim == 3 else ()
    fits = x.ndim >= w.ndim and x.shape[-1] == w.shape[-2] and lead in ((), w.shape[:-2])
    if w.ndim not in (2, 3) or not fits:
        raise ShapeError(f"weight {w.shape} does not apply to input {x.shape}")
    rows = x.reshape(lead + (-1, x.shape[-1]))
    k = w.shape[-1]

    def grads(g):
        g_rows = g.reshape(w.shape[:-2] + (-1, k))
        dx = _unbroadcast(np.matmul(g_rows, w.swapaxes(-1, -2)), rows.shape)
        return dx.reshape(x.shape), np.matmul(rows.swapaxes(-1, -2), g_rows)

    return np.matmul(rows, w).reshape(w.shape[:-2] + x.shape[len(lead) : -1] + (k,)), grads


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ w + b as one node, the weight applied as ``_weighted`` applies
    it; ``b`` is None, (k,), or (branches, k) with a stacked weight."""
    data, grads = _weighted(x.data, w.data)
    if b is not None:
        rows = data.reshape(b.data.shape[:-1] + (-1, data.shape[-1]))  # a view: data is contiguous
        rows += b.data[..., None, :]

    def backward(g):
        dx, dw = grads(g)
        if b is None:
            return ((x, dx), (w, dw))
        # the rows summed one axis at a time, as ``add`` sums them: one flat
        # sum over the rows rounds differently in float32
        while g.ndim > b.data.ndim:
            g = g.sum(axis=b.data.ndim - 1)
        return ((x, dx), (w, dw), (b, g))

    return _make(data, (x, w) if b is None else (x, w, b), backward)


def project_heads(x: Tensor, w: Tensor, n_heads: int, channels=None) -> Tensor:
    """(..., n, d) -> (..., h, n, d_k) as one node: x @ w, whose j-th block
    of d_k columns is head j, with the heads on their own axis. With a
    stacked weight, ``channels``, a basic index of x's branch axis, picks
    the channels the branches read without copying them: the crossed query
    of two branches reads ``slice(None, None, -1)``, and an integer gives
    every branch that one channel."""
    data, grads = _weighted(x.data if channels is None else x.data[channels], w.data)
    data = data.reshape(data.shape[:-1] + (n_heads, -1)).swapaxes(-3, -2)

    def backward(g):
        dx, dw = grads(g.swapaxes(-3, -2))
        if channels is not None:
            dx, picked = np.zeros_like(x.data), dx
            dx[channels] += picked
        return ((x, dx), (w, dw))

    return _make(data, (x, w), backward)


def fold_branches(x: Tensor) -> Tensor:
    """(branches, ..., d) -> (..., branches * d): each position's branch
    features side by side, branch i in the i-th block of d columns, the
    array ``concat`` of the branches along features would give."""
    n, inner, d = x.data.shape[0], x.data.shape[1:-1], x.data.shape[-1]
    data = np.moveaxis(x.data, 0, -2).reshape(inner + (n * d,))

    def backward(g):
        return ((x, np.moveaxis(g.reshape(inner + (n, d)), -2, 0)),)

    return _make(data, (x,), backward)


def transpose(a: Tensor, axis1: int = -1, axis2: int = -2) -> Tensor:
    """Swap two axes, by default the last two."""
    data = a.data.swapaxes(axis1, axis2)

    def backward(g):
        return ((a, g.swapaxes(axis1, axis2)),)

    return _make(data, (a,), backward)


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)

    def backward(g):
        pieces, lo = [], 0
        for t in tensors:
            hi = lo + t.data.shape[axis]
            idx = [slice(None)] * g.ndim
            idx[axis if axis >= 0 else g.ndim + axis] = slice(lo, hi)
            pieces.append((t, g[tuple(idx)]))
            lo = hi
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


def _rows(x: np.ndarray, lead: tuple = ()) -> np.ndarray:
    """View an (..., d) array as 2-d rows for the kernels, or as (lead...,
    rows, d) behind a branch axis ``lead``."""
    return np.ascontiguousarray(x.reshape(lead + (-1, x.shape[-1])))


def softmax_rows(a: Tensor) -> Tensor:
    """Row-wise softmax, stabilized by subtracting each row's max."""
    flat = _rows(a.data)
    y = kernels.softmax_rows_fwd(flat)
    data = y.reshape(a.data.shape)

    def backward(g):
        dx = kernels.softmax_rows_bwd(y, _rows(g))
        return ((a, dx.reshape(a.data.shape)),)

    return _make(data, (a,), backward)


def _layer_norm_rows(s: np.ndarray, gain: Tensor, bias: Tensor, eps: float):
    """Layer norm of every row of ``s``: the output, and a function from its
    gradient to (ds, dgain, dbias). A stacked (branches, d) gain and bias
    normalize the rows of each branch of a (branches, ..., d) ``s``. ``s``
    itself is not kept."""
    if eps <= 0:
        raise ValueError(f"layer_norm eps must be positive, got {eps}")
    shape, lead = s.shape, gain.data.shape[:-1]
    y, xhat, inv_std = kernels.layer_norm_fwd(_rows(s, lead), gain.data, bias.data, eps)

    def grads(g):
        dx, dgain, dbias = kernels.layer_norm_bwd(_rows(g, lead), xhat, inv_std, gain.data)
        return dx.reshape(shape), dgain, dbias

    return y.reshape(shape), grads


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize every row to zero mean / unit variance, then scale and shift."""
    data, grads = _layer_norm_rows(a.data, gain, bias, eps)

    def backward(g):
        dx, dgain, dbias = grads(g)
        return ((a, dx), (gain, dgain), (bias, dbias))

    return _make(data, (a, gain, bias), backward)


def _dropout_mask(shape, dtype, p: float, rng: Rng | None):
    """Dropout's mask, 1/(1-p) where an element survives and 0 elsewhere, or
    None when dropout is off: no ``rng`` (inference), or p = 0, which draws
    nothing from the rng."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if rng is None or p == 0.0:
        return None
    keep = rng.uniform_at_least(shape, p)
    return keep.astype(dtype) / np.asarray(1.0 - p, dtype=dtype)


def dropout(a: Tensor, p: float, rng: Rng | None) -> Tensor:
    """Zero elements with probability p and rescale survivors by 1/(1-p),
    drawing the mask from ``rng``; without one, return ``a``."""
    mask = _dropout_mask(a.data.shape, a.data.dtype, p, rng)
    if mask is None:
        return a
    data = a.data * mask

    def backward(g):
        return ((a, g * mask),)

    return _make(data, (a,), backward)


def residual_norm(
    x: Tensor, y: Tensor, p: float, rng: Rng | None, gain: Tensor, bias: Tensor, eps: float
) -> Tensor:
    """layer_norm(x + dropout(y)) as one node: the post-norm residual
    sublayer with residual dropout (Vaswani et al. 2017, sections 3.1 and
    5.4). The mask is drawn as ``dropout`` draws it; the sum x + dropout(y)
    is not kept. ``x`` may lack y's leading branch axis: it is then shared
    by every branch, and its gradient sums over them."""
    mask = _dropout_mask(y.data.shape, y.data.dtype, p, rng)
    if mask is None:
        s = x.data + y.data
    else:
        s = y.data * mask
        s += x.data
    data, grads = _layer_norm_rows(s, gain, bias, eps)

    def backward(g):
        ds, dgain, dbias = grads(g)
        dy = ds if mask is None else ds * mask
        return ((x, _unbroadcast(ds, x.data.shape)), (y, dy), (gain, dgain), (bias, dbias))

    return _make(data, (x, y, gain, bias), backward)


def attention_core(qh: Tensor, kh: Tensor, vh: Tensor, bias: np.ndarray | None, scale: float) -> Tensor:
    """softmax(qh kh^T * scale + bias) vh with the heads merged, as one node.

    ``qh`` is (..., h, n, d_k) and ``kh``, ``vh`` are (..., h, m, d_k); the
    result is (..., n, h * d_k), head j in the j-th block of d_k features.
    ``bias`` is None, an additive (n or 1, m) bias, or a batched
    (B, n or 1, m) bias, which gains the head axis. The scale is cast to the
    operands' dtype. Only the probabilities are saved for the backward pass.
    """
    if qh.data.shape[-1] != kh.data.shape[-1] or kh.data.shape[-2] != vh.data.shape[-2]:
        raise ShapeError(
            f"attention operands disagree: q {qh.data.shape}, k {kh.data.shape}, v {vh.data.shape}"
        )
    c = qh.data.dtype.type(scale)
    scores = np.matmul(qh.data, kh.data.swapaxes(-1, -2))
    scores *= c
    if bias is not None:
        scores += np.asarray(bias[..., None, :, :] if bias.ndim > 2 else bias, dtype=scores.dtype)
    y = kernels.softmax_rows_fwd(_rows(scores))
    probs = y.reshape(scores.shape)
    merged = np.matmul(probs, vh.data).swapaxes(-3, -2)
    data = merged.reshape(merged.shape[:-2] + (-1,))
    split = merged.shape  # the backward keeps shapes, not the scores or the unmerged output

    def backward(g):
        g_out = g.reshape(split).swapaxes(-3, -2)
        g_probs = np.matmul(g_out, vh.data.swapaxes(-1, -2))
        g_v = np.matmul(probs.swapaxes(-1, -2), g_out)
        g_scores = kernels.softmax_rows_bwd(y, _rows(g_probs)).reshape(probs.shape)
        g_scores *= c
        g_q = np.matmul(g_scores, kh.data)
        g_k = np.matmul(qh.data.swapaxes(-1, -2), g_scores).swapaxes(-1, -2)
        return (
            (qh, _unbroadcast(g_q, qh.data.shape)),
            (kh, _unbroadcast(g_k, kh.data.shape)),
            (vh, _unbroadcast(g_v, vh.data.shape)),
        )

    return _make(data, (qh, kh, vh), backward)


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
