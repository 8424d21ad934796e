"""Dense-tensor math with explicit per-operation backward passes.

A Tensor wraps a numpy array. When gradients are enabled, an op's output
also carries a ``Node`` of the autograd graph: the op's backward closure
and the nodes of its operands, never the operand Tensors themselves; a
parameter's node is a leaf that holds the parameter. So the graph keeps an
array alive only where a backward closure saved it: an intermediate output
that no backward reads is freed as soon as the model code drops its Tensor.
Calling ``backward()`` on a scalar walks the graph in reverse topological
order, accumulates gradients into every reachable leaf, and releases each
op node once its backward has run, so the saved arrays go as they are used.
A released graph cannot be walked again.

Shapes are 2-d (rows x features) or carry leading batch axes (the batch,
and the heads inside attention); the fused kernels flatten all leading axes
into rows. A stacked parameter carries a leading branch axis, one slice
per branch of the model; an activation with a branch axis has it in front
of its (batch, positions, features) axes, and one without it is shared by
every branch. Verification runs use float64, training float32. An op keeps
its operand's dtype and casts constants to it; only the scalar loss of
``cross_entropy`` is float64.

The model's sublayers run on five fused ops, each one tape node with one
hand-written backward: ``linear`` (x @ w + b), ``ffn`` (relu(x @ w1 + b1)
@ w2 + b2), ``project_heads`` (x @ w split into heads, optionally reading
the branches' channels crossed), ``attention_core`` (scores, scale, bias,
softmax, values and head merge) and ``residual_norm`` (layer_norm(x +
dropout(y))). Each computes the same numbers, in the same order, as the
composition of the plain ops it replaces. Each backward saves only the
arrays it reads, plus shapes and dtypes, and returns one gradient per
parent, in parent order: ``linear``, ``ffn`` and ``project_heads`` keep
their input rows (``ffn`` also the relu's output, not its input);
``attention_core`` keeps the head-split queries, keys and values and the
probabilities, not the scores; ``residual_norm`` keeps the layer norm's
normalized rows, not x, y or their sum; ``add`` keeps shapes;
``cross_entropy`` keeps the log-probabilities, not the logits.

``dropout`` and ``residual_norm`` drop exactly when given an rng; without
one (inference) nothing is dropped. A mask is a boolean keep array and the
scale 1/(1-p) in the operand's dtype: an array times the keep array, then
times the scale, is bit for bit the array times the float mask.
"""

from __future__ import annotations

import weakref
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


class Node:
    """One node of the autograd graph. An op node has ``backward``, a
    function from its output's gradient to one gradient per parent (None
    where none flows), and ``parents``, its operands' nodes (None for an
    operand outside the graph). A leaf node has ``leaf``, a weak reference
    to the parameter whose ``grad`` its gradient is added to: weak, so that
    a parameter and its node form no reference cycle, and a model that is
    dropped frees its arrays at once rather than at the next collection.
    ``Tensor.backward`` releases an op node after running it: both fields
    become empty."""

    __slots__ = ("parents", "backward", "leaf")

    def __init__(self, parents: tuple = (), backward=None, leaf: weakref.ref | None = None):
        self.parents = parents
        self.backward = backward
        self.leaf = leaf


class Tensor:
    __slots__ = ("data", "grad", "name", "node", "__weakref__")

    def __init__(self, data, requires_grad=False, name=None):
        self.data = np.asarray(data)
        self.grad = None
        self.name = name
        self.node = Node(leaf=weakref.ref(self)) if requires_grad else None

    @property
    def requires_grad(self) -> bool:
        return self.node is not None and self.node.leaf is not None

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
        """Reverse-mode sweep from a scalar output, releasing each op node
        once it has run; a graph an earlier sweep released raises."""
        if self.data.size != 1:
            raise ShapeError(f"backward() needs a scalar, got shape {self.data.shape}")
        if self.node is None:
            return
        grads: dict[int, np.ndarray] = {id(self.node): np.ones_like(self.data)}
        for node in reversed(_topological(self.node)):
            g = grads.pop(id(node), None)
            if node.leaf is not None:
                leaf = node.leaf()
                if g is not None and leaf is not None:
                    if leaf.grad is None:
                        leaf.grad = np.zeros_like(leaf.data)
                    leaf.grad += g
                continue
            if g is not None:
                for parent, pg in zip(node.parents, node.backward(g)):
                    if parent is None or pg is None:
                        continue
                    acc = grads.get(id(parent))
                    # rebinding (never +=) keeps pass-through gradients safe to alias
                    grads[id(parent)] = pg if acc is None else acc + pg
            node.parents, node.backward = (), None


def _topological(root: Node) -> list[Node]:
    """The nodes ``root`` reaches, each after all of its parents."""
    order: list[Node] = []
    seen: set[int] = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        if node.backward is None and node.leaf is None:
            raise RuntimeError("backward() reached a graph that an earlier backward() released")
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if p is not None and id(p) not in seen:
                stack.append((p, False))
    return order


def parameter(name: str, data: np.ndarray) -> Tensor:
    """Leaf tensor that accumulates gradients; grad buffer allocated eagerly."""
    t = Tensor(np.ascontiguousarray(data), requires_grad=True, name=name)
    t.zero_grad()
    return t


def _make(data, parents, backward):
    """The output Tensor of an op; with gradients on and any operand in
    the graph, its node links ``backward`` to the operands' nodes."""
    out = Tensor(data)
    if _grad_enabled:
        nodes = tuple(p.node for p in parents)
        if any(n is not None for n in nodes):
            out.node = Node(nodes, backward)
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
    sa, sb = a.data.shape, b.data.shape

    def backward(g):
        return _unbroadcast(g, sa), _unbroadcast(g, sb)

    return _make(data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    x, y = a.data, b.data
    data = x * y

    def backward(g):
        return _unbroadcast(g * y, x.shape), _unbroadcast(g * x, y.shape)

    return _make(data, (a, b), backward)


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a constant cast to the operand's dtype, so a numpy
    float64 scalar cannot promote a float32 tape."""
    c = a.data.dtype.type(c)
    data = a.data * c

    def backward(g):
        return (g * c,)

    return _make(data, (a,), backward)


def add_const(a: Tensor, c: np.ndarray) -> Tensor:
    """Add a constant array, taken in the operand's dtype (no gradient flows into it)."""
    data = a.data + np.asarray(c, dtype=a.data.dtype)
    shape = a.data.shape

    def backward(g):
        return (_unbroadcast(g, shape),)

    return _make(data, (a,), backward)


def matmul(a, b) -> Tensor:
    """Matrix product; operands may carry a leading batch dimension.

    A 2-d ``b`` (a weight) is ``linear``: one GEMM over all rows of ``a``,
    forward and backward; a batched ``b`` carries exactly ``a``'s batch axes.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul needs matrices, got {a.data.shape} x {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.data.shape} x {b.data.shape}")
    if b.data.ndim == 2:
        return linear(a, b)
    if a.data.shape[:-2] != b.data.shape[:-2]:
        raise ShapeError(f"matmul batch axes disagree: {a.data.shape} x {b.data.shape}")
    x, y = a.data, b.data
    data = np.matmul(x, y)

    def backward(g):
        ga = np.matmul(g, np.swapaxes(y, -1, -2))
        gb = np.matmul(np.swapaxes(x, -1, -2), g)
        return _unbroadcast(ga, x.shape), _unbroadcast(gb, y.shape)

    return _make(data, (a, b), backward)


def _weighted(x: np.ndarray, w: np.ndarray):
    """x @ w over the rows of ``x``, and a function from the product's
    gradient to (dx, dw), which keeps the rows and ``w``. A stacked
    (branches, d, k) weight applies as an array of shape (branches, 1, d, k)
    would broadcast, one GEMM per branch: a (branches, B, n, d) ``x`` gives
    each branch its own rows, and a (B, n, d) ``x`` is shared by every
    branch, its gradient summed over them."""
    lead = x.shape[: x.ndim - 3] if w.ndim == 3 else ()
    fits = x.ndim >= w.ndim and x.shape[-1] == w.shape[-2] and lead in ((), w.shape[:-2])
    if w.ndim not in (2, 3) or not fits:
        raise ShapeError(f"weight {w.shape} does not apply to input {x.shape}")
    rows = x.reshape(lead + (-1, x.shape[-1]))
    shape, k = x.shape, w.shape[-1]

    def grads(g):
        g_rows = g.reshape(w.shape[:-2] + (-1, k))
        dx = _unbroadcast(np.matmul(g_rows, w.swapaxes(-1, -2)), rows.shape)
        return dx.reshape(shape), np.matmul(rows.swapaxes(-1, -2), g_rows)

    return np.matmul(rows, w).reshape(w.shape[:-2] + shape[len(lead) : -1] + (k,)), grads


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray | None):
    """x @ w + b, the weight applied as ``_weighted`` applies it, and a
    function from its gradient to (dx, dw, db); db is None without ``b``."""
    data, grads = _weighted(x, w)
    if b is not None:
        rows = data.reshape(b.shape[:-1] + (-1, data.shape[-1]))  # a view: data is contiguous
        rows += b[..., None, :]

    def affine_grads(g):
        dx, dw = grads(g)
        if b is None:
            return dx, dw, None
        # the rows summed one axis at a time, as ``add`` sums them: one flat
        # sum over the rows rounds differently in float32
        while g.ndim > b.ndim:
            g = g.sum(axis=b.ndim - 1)
        return dx, dw, g

    return data, affine_grads


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ w + b as one node; ``b`` is None, (k,), or (branches, k) with a
    stacked weight. The backward keeps x's rows."""
    data, grads = _affine(x.data, w.data, None if b is None else b.data)
    if b is not None:
        return _make(data, (x, w, b), grads)

    def backward(g):
        return grads(g)[:2]

    return _make(data, (x, w), backward)


def ffn(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """relu(x @ w1 + b1) @ w2 + b2 as one node, the position-wise feed-forward
    network (Vaswani et al. 2017, section 3.3), each product applied as
    ``linear`` applies it. The relu runs in place, and only its output is
    kept: relu's gradient mask, input > 0, is output > 0."""
    h, grads1 = _affine(x.data, w1.data, b1.data)
    np.maximum(h, 0, out=h)
    data, grads2 = _affine(h, w2.data, b2.data)

    def backward(g):
        dh, dw2, db2 = grads2(g)
        dh *= h > 0  # dh is a fresh array: nothing else holds it
        dx, dw1, db1 = grads1(dh)
        return dx, dw1, db1, dw2, db2

    return _make(data, (x, w1, b1, w2, b2), backward)


def project_heads(x: Tensor, w: Tensor, n_heads: int, channels=None) -> Tensor:
    """(..., n, d) -> (..., h, n, d_k) as one node: x @ w, whose j-th block
    of d_k columns is head j, with the heads on their own axis. With a
    stacked weight, ``channels``, a basic index of x's branch axis, picks
    the channels the branches read without copying them: the crossed query
    of two branches reads ``slice(None, None, -1)``, and an integer gives
    every branch that one channel."""
    data, grads = _weighted(x.data if channels is None else x.data[channels], w.data)
    data = data.reshape(data.shape[:-1] + (n_heads, -1)).swapaxes(-3, -2)
    shape, dtype = x.data.shape, x.data.dtype

    def backward(g):
        dx, dw = grads(g.swapaxes(-3, -2))
        if channels is not None:
            dx, picked = np.zeros(shape, dtype), dx
            dx[channels] += picked
        return dx, dw

    return _make(data, (x, w), backward)


def fold_branches(x: Tensor) -> Tensor:
    """(branches, ..., d) -> (..., branches * d): each position's branch
    features side by side, branch i in the i-th block of d columns, the
    array ``concat`` of the branches along features would give."""
    n, inner, d = x.data.shape[0], x.data.shape[1:-1], x.data.shape[-1]
    k = x.data.ndim
    # np.moveaxis(x, 0, -2) as one transpose: moveaxis normalizes its axes in Python
    data = x.data.transpose((*range(1, k - 1), 0, k - 1)).reshape(inner + (n * d,))

    def backward(g):
        return (g.reshape(inner + (n, d)).transpose((k - 2, *range(k - 2), k - 1)),)

    return _make(data, (x,), backward)


def transpose(a: Tensor, axis1: int = -1, axis2: int = -2) -> Tensor:
    """Swap two axes, by default the last two."""
    data = a.data.swapaxes(axis1, axis2)

    def backward(g):
        return (g.swapaxes(axis1, axis2),)

    return _make(data, (a,), backward)


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    ax = axis if axis >= 0 else data.ndim + axis
    sizes = [t.data.shape[ax] for t in tensors]

    def backward(g):
        pieces, idx, lo = [], [slice(None)] * g.ndim, 0
        for size in sizes:
            idx[ax] = slice(lo, lo + size)
            pieces.append(g[tuple(idx)])
            lo += size
        return tuple(pieces)

    return _make(data, tuple(tensors), backward)


def mean_all(a: Tensor) -> Tensor:
    shape, dtype, n = a.data.shape, a.data.dtype, a.data.size
    data = np.asarray(a.data.mean())

    def backward(g):
        return (np.full(shape, float(g) / n, dtype),)

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
    shape = a.data.shape
    y = kernels.softmax_rows_fwd(_rows(a.data))

    def backward(g):
        return (kernels.softmax_rows_bwd(y, _rows(g)).reshape(shape),)

    return _make(y.reshape(shape), (a,), backward)


def _layer_norm_rows(s: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float):
    """Layer norm of every row of ``s``: the output, and a function from its
    gradient to (ds, dgain, dbias). A stacked (branches, d) gain and bias
    normalize the rows of each branch of a (branches, ..., d) ``s``. ``s``
    itself is not kept."""
    if eps <= 0:
        raise ValueError(f"layer_norm eps must be positive, got {eps}")
    shape, lead = s.shape, gain.shape[:-1]
    y, xhat, inv_std = kernels.layer_norm_fwd(_rows(s, lead), gain, bias, eps)

    def grads(g):
        dx, dgain, dbias = kernels.layer_norm_bwd(_rows(g, lead), xhat, inv_std, gain)
        return dx.reshape(shape), dgain, dbias

    return y.reshape(shape), grads


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize every row to zero mean / unit variance, then scale and shift."""
    data, grads = _layer_norm_rows(a.data, gain.data, bias.data, eps)
    return _make(data, (a, gain, bias), grads)


def _dropout_mask(shape, dtype, p: float, rng: Rng | None):
    """Dropout's mask as a boolean keep array and the scale 1/(1-p) in
    ``dtype``, or None when dropout is off: no ``rng`` (inference), or
    p = 0, which draws nothing from the rng."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if rng is None or p == 0.0:
        return None
    dtype = np.dtype(dtype)
    return rng.uniform_at_least(shape, p), dtype.type(1.0) / dtype.type(1.0 - p)


def _masked(x: np.ndarray, mask) -> np.ndarray:
    """``x`` times the float mask (1/(1-p) where kept, 0 elsewhere) as a
    new array. Times the keep array first is exactly x or x * 0, so each
    element then rounds once, as in the product with the float mask."""
    keep, c = mask
    out = x * keep
    out *= c
    return out


def dropout(a: Tensor, p: float, rng: Rng | None) -> Tensor:
    """Zero elements with probability p and rescale survivors by 1/(1-p),
    drawing the mask from ``rng``; without one, return ``a``."""
    mask = _dropout_mask(a.data.shape, a.data.dtype, p, rng)
    if mask is None:
        return a

    def backward(g):
        return (_masked(g, mask),)

    return _make(_masked(a.data, mask), (a,), backward)


def residual_norm(
    x: Tensor, y: Tensor, p: float, rng: Rng | None, gain: Tensor, bias: Tensor, eps: float
) -> Tensor:
    """layer_norm(x + dropout(y)) as one node: the post-norm residual
    sublayer with residual dropout (Vaswani et al. 2017, sections 3.1 and
    5.4). The mask is drawn as ``dropout`` draws it; the sum x + dropout(y)
    is not kept, nor are x and y. ``x`` may lack y's leading branch axis:
    it is then shared by every branch, and its gradient sums over them."""
    mask = _dropout_mask(y.data.shape, y.data.dtype, p, rng)
    if mask is None:
        s = x.data + y.data
    else:
        s = _masked(y.data, mask)
        s += x.data
    data, grads = _layer_norm_rows(s, gain.data, bias.data, eps)
    x_shape = x.data.shape

    def backward(g):
        ds, dgain, dbias = grads(g)
        dy = ds if mask is None else _masked(ds, mask)
        return _unbroadcast(ds, x_shape), dy, dgain, dbias

    return _make(data, (x, y, gain, bias), backward)


def attention_core(qh: Tensor, kh: Tensor, vh: Tensor, bias: np.ndarray | None, scale: float) -> Tensor:
    """softmax(qh kh^T * scale + bias) vh with the heads merged, as one node.

    ``qh`` is (..., h, n, d_k) and ``kh``, ``vh`` are (..., h, m, d_k); the
    result is (..., n, h * d_k), head j in the j-th block of d_k features.
    ``bias`` is None, an additive (n or 1, m) bias, or a batched
    (B, n or 1, m) bias, which gains the head axis. The scale is cast to the
    operands' dtype. The backward keeps the operands and the probabilities.
    """
    q, k, v = qh.data, kh.data, vh.data
    if q.shape[-1] != k.shape[-1] or k.shape[-2] != v.shape[-2]:
        raise ShapeError(f"attention operands disagree: q {q.shape}, k {k.shape}, v {v.shape}")
    c = q.dtype.type(scale)
    scores = np.matmul(q, k.swapaxes(-1, -2))
    scores *= c
    if bias is not None:
        scores += np.asarray(bias[..., None, :, :] if bias.ndim > 2 else bias, dtype=scores.dtype)
    y = kernels.softmax_rows_fwd(_rows(scores))
    probs = y.reshape(scores.shape)
    merged = np.matmul(probs, v).swapaxes(-3, -2)
    data = merged.reshape(merged.shape[:-2] + (-1,))
    split = merged.shape  # the backward keeps shapes, not the scores or the unmerged output

    def backward(g):
        g_out = g.reshape(split).swapaxes(-3, -2)
        g_probs = np.matmul(g_out, v.swapaxes(-1, -2))
        g_v = np.matmul(probs.swapaxes(-1, -2), g_out)
        g_scores = kernels.softmax_rows_bwd(y, _rows(g_probs)).reshape(probs.shape)
        g_scores *= c
        g_q = np.matmul(g_scores, k)
        g_k = np.matmul(q.swapaxes(-1, -2), g_scores).swapaxes(-1, -2)
        return _unbroadcast(g_q, q.shape), _unbroadcast(g_k, k.shape), _unbroadcast(g_v, v.shape)

    return _make(data, (qh, kh, vh), backward)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup with scatter-add backward into the table."""
    ids = np.asarray(ids)
    vocab, d = table.data.shape
    if ids.size and (ids.min() < 0 or ids.max() >= vocab):
        raise VocabError(f"token id out of range [0, {vocab}): min={ids.min()}, max={ids.max()}")
    data = table.data[ids]
    dtype = table.data.dtype

    def backward(g):
        # scatter-add through the flat table: numpy's 1-d ``add.at`` fast path,
        # accumulating each element in the same row order as the 2-d form
        gt = np.zeros(vocab * d, dtype=dtype)
        np.add.at(gt, (ids.reshape(-1, 1) * d + np.arange(d)).reshape(-1), g.reshape(-1))
        return (gt.reshape(vocab, d),)

    return _make(data, (table,), backward)


def cross_entropy(
    logits: Tensor, targets: np.ndarray, smoothing: float = 0.0, pad_id: int = 0
) -> Tensor:
    """Label-smoothed negative log-likelihood averaged over non-pad positions.

    The smoothed target distribution puts 1 - eps + eps/V on the gold label
    and eps/V elsewhere. Pad positions are dropped from the average. The
    backward keeps the log-probabilities of the live rows, not the logits.
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
    shape, dtype = logits.data.shape, logits.data.dtype

    def backward(g):
        # d loss / d logits = (softmax - q) / n_keep on live rows, 0 on pads
        dl = np.zeros((n, vocab), dtype)
        dl[keep] = np.exp(logp) - smoothing / vocab
        dl[np.arange(n)[keep], live] -= 1.0 - smoothing
        dl *= float(g) / n_keep
        return (dl.reshape(shape),)

    return _make(data, (logits,), backward)
