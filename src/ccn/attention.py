"""Attention blocks: scaled dot-product, multi-head, and the two-channel
gate-routed co-attention. The generic non-local form they are tested
against, a slow double loop, is ``nonlocal_op`` in the tests' oracles.

The co-attention pair routes each of the V/K/Q gates of two branches to
either the left or right input channel; the crossed routing keeps V and K
at home and borrows the query from the opposite channel. With the branches
stacked on one axis, a routing is a channel index per gate, read inside
the projection (``routed_attention``).

A mask is an additive bias array (Vaswani et al. 2017, section 3.2.3):
``causal_mask`` and ``padding_mask`` build and check it once per forward
pass, and every attention call adds the bias it is given to its scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MaskError, ShapeError
from .tensor import (
    Tensor,
    add_const,
    attention_core,
    linear,
    matmul,
    project_heads,
    scale,
    softmax_rows,
    transpose,
)

LEFT = "left"
RIGHT = "right"
_CHANNELS = (LEFT, RIGHT)


@dataclass(frozen=True)
class GateRouting:
    """Maps each attention gate of one branch to an input channel."""

    v_source: str
    k_source: str
    q_source: str

    def __post_init__(self):
        for gate, src in (("V", self.v_source), ("K", self.k_source), ("Q", self.q_source)):
            if src not in _CHANNELS:
                raise ValueError(f"gate {gate} routed to unknown channel {src!r}")


def crossed_routing() -> tuple[GateRouting, GateRouting]:
    """Left branch keeps its own V and K, queries with the right channel; mirrored for right."""
    left = GateRouting(v_source=LEFT, k_source=LEFT, q_source=RIGHT)
    right = GateRouting(v_source=RIGHT, k_source=RIGHT, q_source=LEFT)
    return left, right


def self_routing(channel: str) -> GateRouting:
    return GateRouting(v_source=channel, k_source=channel, q_source=channel)


def _bias(disallowed: np.ndarray, dtype) -> np.ndarray:
    """Additive attention bias in ``dtype``: -1e9 at the disallowed (query,
    key) pairs, 0 elsewhere; a query row with no allowed key raises.

    The additive constant keeps gradients finite while exp underflows the
    masked weights to exactly zero after the row-max shift.
    """
    if np.any(disallowed.all(axis=-1)):
        raise MaskError("attention mask disallows every key for at least one query row")
    return np.where(disallowed, np.dtype(dtype).type(-1e9), 0)


def causal_mask(n: int, dtype) -> np.ndarray:
    """(n, n) bias that disallows attending to strictly later positions."""
    if n < 1:
        raise ValueError(f"causal mask needs length >= 1, got {n}")
    return _bias(np.triu(np.ones((n, n), dtype=bool), k=1), dtype)


def padding_mask(key_is_pad: np.ndarray, dtype) -> np.ndarray:
    """Bias that disallows pad keys for every query row: (n_k,) or (B, n_k)
    pad flags give a (1, n_k) or (B, 1, n_k) bias."""
    return _bias(np.asarray(key_is_pad, dtype=bool)[..., None, :], dtype)


@dataclass
class AttentionHeadParams:
    """One head's projection weights (bias-free): the input of the
    ``scaled_dot_attention`` oracle."""

    w_q: Tensor
    w_k: Tensor
    w_v: Tensor


@dataclass
class MultiHeadParams:
    """One (d, n_heads * width) weight per gate, head j in the j-th block of
    columns, and the output projection; shapes are checked once, here."""

    w_q: Tensor
    w_k: Tensor
    w_v: Tensor
    w_o: Tensor
    n_heads: int

    def __post_init__(self):
        for gate, w in (("w_q", self.w_q), ("w_k", self.w_k), ("w_v", self.w_v)):
            if self.n_heads < 1 or w.data.shape[-1] % self.n_heads:
                raise ShapeError(f"{gate} width {w.data.shape[-1]} does not split into {self.n_heads} heads")
        if self.w_o.data.shape[-2] != self.w_v.data.shape[-1]:
            raise ShapeError(f"w_v width {self.w_v.data.shape[-1]} does not match w_o {self.w_o.data.shape}")


# ---------------------------------------------------------------------------
# fast path
# ---------------------------------------------------------------------------


def scaled_dot_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    params: AttentionHeadParams,
    mask: np.ndarray | None = None,
    scaled: bool = True,
) -> Tensor:
    """softmax(q W_q (k W_k)^T / sqrt(d_k)) (v W_v); one attention head.

    ``scaled=False`` drops the 1/sqrt(d_k) factor, which recovers the bare
    exponential-kernel instantiation of the non-local form.
    """
    if q.data.shape[-1] != params.w_q.data.shape[-2]:
        raise ShapeError(
            f"query width {q.data.shape} does not match projection {params.w_q.data.shape}"
        )
    qh = matmul(q, params.w_q)
    kh = matmul(k, params.w_k)
    vh = matmul(v, params.w_v)
    scores = matmul(qh, transpose(kh))
    if scaled:
        scores = scale(scores, 1.0 / math.sqrt(params.w_k.data.shape[-1]))
    if mask is not None:
        scores = add_const(scores, mask)
    return matmul(softmax_rows(scores), vh)


def split_heads(x: Tensor, params: MultiHeadParams, gate: str, channels=None) -> Tensor:
    """(..., n, d) -> (..., h, n, width): one projection through the ``gate``
    weight ("w_q", "w_k" or "w_v"), heads on their own axis; ``channels``
    as ``project_heads`` takes them."""
    return project_heads(x, getattr(params, gate), params.n_heads, channels)


def attend_heads(
    qh: Tensor, kh: Tensor, vh: Tensor, params: MultiHeadParams, mask: np.ndarray | None = None
) -> Tensor:
    """Scaled dot-product attention of head-split queries over head-split
    keys and values, heads merged and projected by w_o: (..., n, d_model).

    The keys and values may be projected once and reused, as incremental
    decoding does with the encoder memory and the earlier target positions.
    """
    core = attention_core(qh, kh, vh, mask, 1.0 / math.sqrt(kh.data.shape[-1]))
    return linear(core, params.w_o)


def multi_head(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    params: MultiHeadParams,
    mask: np.ndarray | None = None,
) -> Tensor:
    """All heads as one attention over a head axis, merged and projected by w_o.

    Each gate is one weight holding every head's columns, so each gate is
    one GEMM; the result equals concatenating the per-head
    ``scaled_dot_attention`` outputs along features (Vaswani et al. 2017,
    section 3.2.2).
    """
    qh, kh = split_heads(q, params, "w_q"), split_heads(k, params, "w_k")
    return attend_heads(qh, kh, split_heads(v, params, "w_v"), params, mask)


def routed_attention(
    x: Tensor, routing: tuple[GateRouting, ...], params: MultiHeadParams, mask: np.ndarray | None = None
) -> Tensor:
    """Attention of every branch of ``x`` at once, with stacked ``params``:
    each gate of branch i reads the channel (LEFT 0, RIGHT 1) of x's branch
    axis that ``routing[i]`` names, inside its projection."""
    heads = []
    for gate in ("w_q", "w_k", "w_v"):
        picks = tuple(_CHANNELS.index(getattr(r, f"{gate[-1]}_source")) for r in routing)
        if max(picks) >= len(routing):
            raise ValueError(f"gate {gate} of a {len(routing)}-branch model routed to channel {max(picks)}")
        if picks == tuple(range(len(picks))):
            channels = None
        elif len(set(picks)) == 1:
            channels = picks[0]  # every branch reads one channel
        else:
            channels = slice(None, None, -1)  # two branches crossed: (1, 0)
        heads.append(split_heads(x, params, gate, channels))
    return attend_heads(*heads, params, mask)


def coattention(
    x_left: Tensor,
    x_right: Tensor,
    left_routing: GateRouting,
    right_routing: GateRouting,
    left_params: MultiHeadParams,
    right_params: MultiHeadParams,
    left_mask: np.ndarray | None = None,
    right_mask: np.ndarray | None = None,
) -> tuple[Tensor, Tensor]:
    """Two attention branches whose V/K/Q gates draw from either input channel.

    Each output's length follows its branch's query source; branch parameters
    are independent unless the caller ties them explicitly.
    """
    channels = {LEFT: x_left, RIGHT: x_right}
    branches = ((left_routing, left_params, left_mask), (right_routing, right_params, right_mask))
    return tuple(
        multi_head(channels[r.q_source], channels[r.k_source], channels[r.v_source], params, mask)
        for r, params, mask in branches
    )
