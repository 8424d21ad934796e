"""One encoder-decoder skeleton for the dual-branch crossed co-attention
model (THM) and the single-branch transformer baseline, plus analytic
parameter counting.

Both architectures share one BPE embedding table globally (source, target,
and transposed output projection), sinusoidal positions, post-norm residual
sublayers, bias-free attention projections, and biased feed-forward layers.

Per block:
  encoder: attention, then a feed-forward sublayer, per branch. THM's two
           branches attend through crossed co-attention over the (left,
           right) pair; the transformer's one branch attends to itself.
  decoder: one shared masked self-attention, then per branch an
           encoder-decoder attention into that branch's memory and a
           feed-forward sublayer. THM folds its two branch outputs side by
           side, maps them back to model width, and passes them through one
           shared feed-forward sublayer.
Each stream ends with a final layer norm when the stack is non-empty.

THM computes its branches together on a leading branch axis. Each
per-branch parameter is a view of slice 0 (left) or 1 (right) of a (2, ...)
storage leaf, as each per-head parameter is a column view of its gate, so
names, order and checkpoints are those of separate branches. The encoder
streams, the memory and the decoder branch outputs carry the axis; the
decoder's shared state does not, and both branches read it. A routing is a
channel index per gate: the crossed query reads channels (1, 0), keys and
values (0, 1). The transformer has no branch axis.

The decoder runs through one feed (Shazeer 2019): ``_feed`` runs it over
the next target positions of a ``DecodeState``, which holds the
cross-attention keys and values projected once and the self-attention keys
and values fed so far. ``decode`` feeds a whole target to an empty state;
``step_logprobs`` feeds one token per row. ``next_logprobs``, the reference
the cached path is tested against, re-runs the whole prefix. Dropout is on
exactly when a forward call is given an rng.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .attention import (
    LEFT,
    RIGHT,
    MultiHeadParams,
    attend_heads,
    causal_mask,
    crossed_routing,
    padding_mask,
    routed_attention,
    self_routing,
    split_heads,
)
from .bpe import PAD_ID
from .errors import DataError, ShapeError
from .rng import Rng
from .tensor import (
    Tensor,
    add,
    concat,
    cross_entropy,
    dropout,
    embedding,
    fold_branches,
    layer_norm,
    linear,
    matmul,
    no_grad,
    relu,
    residual_norm,
    scale,
    transpose,
)

ARCH_THM = "thm"
ARCH_TRANSFORMER = "transformer"

LAYER_NORM_EPS = 1e-5


@dataclass(frozen=True)
class ModelConfig:
    arch: str = ARCH_THM
    d_model: int = 512
    n_heads: int = 8
    n_blocks: int = 6
    d_ff: int = 2048
    vocab_size: int = 33712
    dropout_p: float = 0.1
    swap_prob: float = 0.5
    max_len: int = 1024
    label_smoothing: float = 0.1

    def __post_init__(self):
        if self.arch not in (ARCH_THM, ARCH_TRANSFORMER):
            raise ValueError(f"unknown arch {self.arch!r}")
        if self.d_model % self.n_heads:
            raise ValueError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        for name, p in (("dropout_p", self.dropout_p), ("swap_prob", self.swap_prob)):
            if not 0.0 <= p < 1.0 and not (name == "swap_prob" and p == 1.0):
                raise ValueError(f"{name} must be a probability, got {p}")
        if self.vocab_size < 5:
            raise ValueError("vocab_size must cover the four special tokens plus content")


PRESETS: dict[str, ModelConfig] = {
    "thm-base": ModelConfig(arch=ARCH_THM),
    "thm-big": ModelConfig(arch=ARCH_THM, d_model=1024, n_heads=16, d_ff=4096, dropout_p=0.3),
    "transformer-base": ModelConfig(arch=ARCH_TRANSFORMER, swap_prob=0.0),
    "transformer-big": ModelConfig(
        arch=ARCH_TRANSFORMER, d_model=1024, n_heads=16, d_ff=4096, dropout_p=0.3, swap_prob=0.0
    ),
    "tiny": ModelConfig(
        arch=ARCH_THM, d_model=64, n_heads=4, n_blocks=2, d_ff=256, vocab_size=256, max_len=64
    ),
    "transformer-tiny": ModelConfig(
        arch=ARCH_TRANSFORMER,
        d_model=64,
        n_heads=4,
        n_blocks=2,
        d_ff=256,
        vocab_size=256,
        max_len=64,
        swap_prob=0.0,
    ),
}


def preset(name: str, **overrides) -> ModelConfig:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return replace(PRESETS[name], **overrides) if overrides else PRESETS[name]


# ---------------------------------------------------------------------------
# parameter construction
# ---------------------------------------------------------------------------


class ParamStore:
    """Lays out a model's parameters. The model declares each storage leaf
    once (``leaf``), in the shape it computes with and with its init rule,
    then names each checkpoint parameter, in checkpoint order, as an index
    into a leaf (``name``): a per-head weight is a column view of its gate,
    a per-branch one a slice of the branch axis.

    ``finish`` lays the leaves out, in declaration order, as contiguous
    slices of the flat arenas ``data`` and ``grad``, then fills each named
    view, in naming order, straight into the arena: a draw from ``rng`` by
    its leaf's rule at the view's own shape or, given ``stored`` arrays (a
    loaded checkpoint), the array of that name. ``places`` maps each name
    to where it sits, so that ``arena_view`` cuts the same view out of any
    buffer of that layout. Parameter arrays are written in place, never
    rebound."""

    def __init__(self, dtype, rng: Rng | None = None, stored: dict[str, np.ndarray] | None = None):
        self.dtype = np.dtype(dtype)
        self.rng = rng
        self.stored = stored
        self.leaves: dict[int, tuple[Tensor, str]] = {}  # id -> (storage leaf, init rule), in arena order
        self.views: dict[str, tuple[Tensor, tuple]] = {}  # name -> (its leaf, its index in it)
        self.params: dict[str, Tensor] = {}  # set by finish, as are the rest
        self.places: dict[str, tuple[int, tuple, tuple]] = {}
        self.data = self.grad = None

    def leaf(self, shape: tuple, init: str, name: str | None = None) -> Tensor:
        """A storage leaf of ``shape`` whose views ``init`` ("xavier",
        "embedding", "zeros" or "ones") draws; ``name`` names all of it.
        Its array, unwritten, only carries the shape until ``finish``."""
        t = Tensor(np.empty(shape, self.dtype), requires_grad=True)
        self.leaves[id(t)] = (t, init)
        if name is not None:
            self.name(name, t)
        return t

    def name(self, name: str, leaf: Tensor, index: tuple = ()):
        if name in self.views:
            raise ValueError(f"duplicate parameter name {name!r}")
        self.views[name] = (leaf, index)

    def _initial(self, name: str, init: str, shape: tuple):
        if self.stored is None:
            if init in ("zeros", "ones"):
                return float(init == "ones")
            limit = np.sqrt(6.0 / sum(shape)) if init == "xavier" else np.sqrt(3.0 / shape[1])
            return self.rng.uniform_range(-limit, limit, shape)
        if name not in self.stored:
            raise DataError(f"checkpoint parameters do not match the model: {[name]}")
        data = self.stored[name]
        if data.shape != shape:
            raise DataError(f"checkpoint shape mismatch for {name}: {data.shape} vs {shape}")
        return data

    def finish(self) -> dict[str, Tensor]:
        """The named parameters in naming order, filled into the arenas;
        stored arrays no parameter took raise."""
        size = sum(leaf.data.size for leaf, _ in self.leaves.values())
        self.data, self.grad = np.empty(size, self.dtype), np.zeros(size, self.dtype)
        at, lo = {}, 0
        for key, (leaf, _) in self.leaves.items():
            at[key] = place = (lo, leaf.data.shape, ())
            lo += leaf.data.size
            leaf.data, leaf.grad = arena_view(self.data, place), arena_view(self.grad, place)
        for name, (leaf, index) in self.views.items():
            self.places[name] = (*at[id(leaf)][:2], index)
            p = self.params[name] = Tensor(leaf.data[index], requires_grad=True, name=name)
            p.grad = leaf.grad[index]
            p.data[...] = self._initial(name, self.leaves[id(leaf)][1], p.data.shape)
        extra = set(self.stored or ()) - set(self.params)
        if extra:
            raise DataError(f"checkpoint parameters do not match the model: {sorted(extra)[:5]}")
        return self.params


def arena_view(flat: np.ndarray, place: tuple[int, tuple, tuple]) -> np.ndarray:
    """The view of ``flat``, a buffer in an arena layout, at ``place``: the
    storage leaf of that shape from offset ``lo``, indexed by ``index``."""
    lo, shape, index = place
    return flat[lo : lo + math.prod(shape)].reshape(shape)[index]


@dataclass
class NormParams:
    gain: Tensor
    bias: Tensor


@dataclass
class FeedForwardParams:
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor


def _make_norm(store: ParamStore, d: int, lead: tuple = ()) -> NormParams:
    return NormParams(store.leaf((*lead, d), "ones"), store.leaf((*lead, d), "zeros"))


def _make_ffn(store: ParamStore, d: int, d_ff: int, lead: tuple = ()) -> FeedForwardParams:
    return FeedForwardParams(
        store.leaf((*lead, d, d_ff), "xavier"),
        store.leaf((*lead, d_ff), "zeros"),
        store.leaf((*lead, d_ff, d), "xavier"),
        store.leaf((*lead, d), "zeros"),
    )


def _make_mha(store: ParamStore, d: int, n_heads: int, lead: tuple = ()) -> MultiHeadParams:
    w_q, w_k, w_v, w_o = (store.leaf((*lead, d, d), "xavier") for _ in "qkvo")
    return MultiHeadParams(w_q, w_k, w_v, w_o, n_heads)


def _name(*pieces) -> str:
    """Dotted parameter name; the transformer's empty branch name drops out."""
    return ".".join(str(p) for p in pieces if p != "")


def _name_views(store: ParamStore, prefixes: list[str], sub: dict):
    """Name the parameters of each sublayer in ``sub`` ``{prefix}.{key}.*``,
    once per branch prefix; with two, prefix j names slice j of the branch
    axis. Gate weight ``h{j}.w{q,k,v}`` is head j's block of columns."""
    for b, prefix in enumerate(prefixes):
        at = (b,) if len(prefixes) > 1 else ()
        for key, p in sub.items():
            base = _name(prefix, key)
            if not isinstance(p, MultiHeadParams):
                for f in fields(p):
                    store.name(f"{base}.{f.name}", getattr(p, f.name), at)
                continue
            d_k = p.w_q.shape[-1] // p.n_heads
            for j in range(p.n_heads):
                cols = (*at, ..., slice(j * d_k, (j + 1) * d_k))
                for g, w in zip("qkv", (p.w_q, p.w_k, p.w_v)):
                    store.name(f"{base}.h{j}.w{g}", w, cols)
            store.name(f"{base}.wo", p.w_o, at)


def _make_attn_ffn(store: ParamStore, prefixes: list, attn: str, d: int, n_heads: int, d_ff: int) -> dict:
    """An attention sublayer named ``attn`` followed by a feed-forward
    sublayer, one per branch prefix, on the branch axis when there are two."""
    lead = (len(prefixes),) if len(prefixes) > 1 else ()
    sub = {
        attn: _make_mha(store, d, n_heads, lead),
        f"{attn}_norm": _make_norm(store, d, lead),
        "ffn": _make_ffn(store, d, d_ff, lead),
        "ffn_norm": _make_norm(store, d, lead),
    }
    _name_views(store, prefixes, sub)
    return sub


# ---------------------------------------------------------------------------
# shared forward pieces
# ---------------------------------------------------------------------------


def sinusoidal_positions(max_len: int, d: int) -> np.ndarray:
    """PE[pos, 2i] = sin(pos / 10000^(2i/d)); PE[pos, 2i+1] = cos of the same angle."""
    pos = np.arange(max_len, dtype=np.float64)[:, None]
    i2 = np.arange(0, d, 2, dtype=np.float64)
    angle = pos / np.power(10000.0, i2 / d)
    pe = np.zeros((max_len, d), dtype=np.float64)
    pe[:, 0::2] = np.sin(angle)
    pe[:, 1::2] = np.cos(angle[:, : d // 2])
    return pe


def _ffn(x: Tensor, p: FeedForwardParams) -> Tensor:
    return linear(relu(linear(x, p.w1, p.b1)), p.w2, p.b2)


def _norm(x: Tensor, p: NormParams) -> Tensor:
    return layer_norm(x, p.gain, p.bias, LAYER_NORM_EPS)


def _log_softmax64(logits: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis, computed in float64."""
    x = logits.astype(np.float64)
    x -= x.max(axis=-1, keepdims=True)
    return x - np.log(np.exp(x).sum(axis=-1, keepdims=True))


@dataclass
class EncoderMemory:
    """The final encoder states, behind the branch axis for THM, and the
    (batch, 1, source length) bias that masks the source pad keys."""

    state: Tensor
    key_bias: np.ndarray


@dataclass
class DecodeState:
    """The decoder's state over a batch of rows (sentences or hypotheses).

    ``cross[i]`` holds decoder block i's cross-attention (keys, values),
    projected once from the encoder memory; ``past[i]`` holds its
    self-attention (keys, values) of the ``length`` positions fed so far
    (None before the first). Arrays are (rows, heads, positions, d_k), in
    ``cross`` behind THM's branch axis; ``key_bias`` is the encoder memory's
    source-key bias.
    """

    key_bias: np.ndarray
    cross: list[tuple[Tensor, Tensor]]
    past: list[tuple[Tensor, Tensor] | None]
    length: int = 0


class Seq2SeqModel:
    """One encoder-decoder skeleton over the branches of ``config.arch``:
    THM's ("left", "right"), or the transformer's one branch named "",
    which keeps its unprefixed parameter names (``enc.0.attn``)."""

    def __init__(self, config: ModelConfig, store: ParamStore):
        self.config = config
        self.dtype = store.dtype
        self.branches = (LEFT, RIGHT) if config.arch == ARCH_THM else ("",)
        self.positions = sinusoidal_positions(config.max_len, config.d_model).astype(self.dtype)
        # leaves are declared in arena order, parameters named in checkpoint order
        d, f, h = config.d_model, config.d_ff, config.n_heads
        self.embed_table = store.leaf((config.vocab_size, d), "embedding", name="embedding.table")
        self.enc_blocks = [
            _make_attn_ffn(store, [_name("enc", i, b) for b in self.branches], "attn", d, h, f)
            for i in range(config.n_blocks)
        ]
        self.dec_blocks = []
        for i in range(config.n_blocks):
            p = f"dec.{i}"
            block = {"self_attn": _make_mha(store, d, h), "self_norm": _make_norm(store, d)}
            _name_views(store, [p], block)
            block["branch"] = _make_attn_ffn(store, [_name(p, b) for b in self.branches], "cross", d, h, f)
            if len(self.branches) == 2:
                block["merge_w"] = store.leaf((2 * d, d), "xavier", name=f"{p}.merge.w")
                block["merge_b"] = store.leaf((d,), "zeros", name=f"{p}.merge.b")
                shared = {"merge_norm": _make_norm(store, d), "ffn": _make_ffn(store, d, f),
                          "ffn_norm": _make_norm(store, d)}
                _name_views(store, [p], shared)
                block |= shared
            self.dec_blocks.append(block)
        if config.n_blocks:
            lead = (2,) if len(self.branches) == 2 else ()
            self.enc_final, self.dec_final = _make_norm(store, d, lead), _make_norm(store, d)
            names = [f"enc.final_{b}_norm" if b else "enc.final_norm" for b in self.branches]
            _name_views(store, names, {"": self.enc_final})
            _name_views(store, ["dec.final_norm"], {"": self.dec_final})
        self.params = store.finish()
        self.param_arena, self.grad_arena = store.data, store.grad
        self.places = store.places

    def arena_views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Per-parameter views of ``flat``, a buffer laid out like ``param_arena``."""
        return {n: arena_view(flat, place) for n, place in self.places.items()}

    def param_count(self) -> int:
        return sum(p.data.size for p in self.params.values())

    def zero_grads(self):
        self.grad_arena.fill(0)

    def _check_len(self, length: int, what: str):
        if length > self.config.max_len:
            raise DataError(f"{what} length {length} exceeds max_len {self.config.max_len}")

    def embed_tokens(self, ids: np.ndarray, rng: Rng | None = None, start: int = 0) -> Tensor:
        """Shared-table lookup scaled by sqrt(d) plus sinusoidal positions;
        ``ids`` sit at positions ``start``, ``start + 1``, ..."""
        ids = np.asarray(ids)
        self._check_len(start + ids.shape[-1], "sequence")
        x = scale(embedding(self.embed_table, ids), float(np.sqrt(self.config.d_model)))
        x = add(x, Tensor(self.positions[start : start + ids.shape[-1]]))
        return dropout(x, self.config.dropout_p, rng)

    def _sublayer(self, x: Tensor, sub_out: Tensor, norm: NormParams, rng) -> Tensor:
        """Post-norm residual: layer_norm(x + dropout(sub_out)), one tape op."""
        return residual_norm(x, sub_out, self.config.dropout_p, rng, norm.gain, norm.bias, LAYER_NORM_EPS)

    def _ffn_sublayer(self, x: Tensor, sub: dict, rng) -> Tensor:
        return self._sublayer(x, _ffn(x, sub["ffn"]), sub["ffn_norm"], rng)

    def project_vocab(self, h: Tensor) -> Tensor:
        """Output projection tied to the transposed embedding table."""
        return matmul(h, transpose(self.embed_table))

    def encode(self, *srcs: np.ndarray, rng: Rng | None = None, routing: tuple | None = None) -> EncoderMemory:
        """Run every branch over its own padded source batch.

        THM takes two (possibly differently corrupted) copies of the same
        batch, stacks them on the branch axis and routes its gates crossed;
        the transformer takes one batch and attends to itself. ``routing``,
        one GateRouting per branch, overrides the default gate routing
        (testing hook for the degradation identity).
        """
        if len(srcs) != len(self.branches):
            raise ShapeError(
                f"{self.config.arch} takes {len(self.branches)} source batch(es), got {len(srcs)}"
            )
        srcs = [np.atleast_2d(np.asarray(s)) for s in srcs]
        if len({s.shape for s in srcs}) != 1:
            raise ShapeError(f"branch inputs must align: {[s.shape for s in srcs]}")
        if routing is None:
            routing = crossed_routing() if len(self.branches) == 2 else (self_routing(LEFT),)
        key_bias = padding_mask(srcs[0] == PAD_ID, self.dtype)
        x = self.embed_tokens(np.stack(srcs) if len(srcs) > 1 else srcs[0], rng)
        for block in self.enc_blocks:
            y = routed_attention(x, routing, block["attn"], key_bias)
            x = self._sublayer(x, y, block["attn_norm"], rng)
            x = self._ffn_sublayer(x, block, rng)
        if self.enc_blocks:
            x = _norm(x, self.enc_final)
        return EncoderMemory(x, key_bias)

    def _decode_state(self, memory: EncoderMemory) -> DecodeState:
        """An empty decode state over ``memory``: every decoder block's
        cross-attention (keys, values) of it, projected once."""
        cross = [block["branch"]["cross"] for block in self.dec_blocks]
        kv = [(split_heads(memory.state, c, "w_k"), split_heads(memory.state, c, "w_v")) for c in cross]
        return DecodeState(memory.key_bias, kv, [None] * len(self.dec_blocks))

    def _feed(self, state: DecodeState, ids, rng: Rng | None = None) -> Tensor:
        """Run the decoder blocks over target ``ids`` (rows, m) at positions
        ``state.length`` onward, each position attending to itself and every
        position before it; returns the final hidden states. Appends each
        block's self-attention (keys, values) of ``ids`` to ``state.past``
        and advances ``state.length`` by m. THM folds its branch outputs
        into one (rows, m, 2d) input of the merge."""
        ids = np.atleast_2d(np.asarray(ids))
        m = ids.shape[-1]
        self._check_len(state.length + m, "target")
        t = self.embed_tokens(ids, rng, start=state.length)
        self_mask = causal_mask(state.length + m, self.dtype)[state.length :] if m > 1 else None
        present = []
        for block, kv, past in zip(self.dec_blocks, state.cross, state.past):
            sa = block["self_attn"]
            kh, vh = split_heads(t, sa, "w_k"), split_heads(t, sa, "w_v")
            if past is not None:
                kh, vh = (concat([old, new], axis=-2) for old, new in zip(past, (kh, vh)))
            present.append((kh, vh))
            attn = attend_heads(split_heads(t, sa, "w_q"), kh, vh, sa, self_mask)
            s = self._sublayer(t, attn, block["self_norm"], rng)
            # every branch at once: the shared state is their query and residual
            sub = block["branch"]
            attn = attend_heads(split_heads(s, sub["cross"], "w_q"), *kv, sub["cross"], state.key_bias)
            c = self._sublayer(s, attn, sub["cross_norm"], rng)
            t = self._ffn_sublayer(c, sub, rng)
            if len(self.branches) == 2:
                merged = linear(fold_branches(t), block["merge_w"], block["merge_b"])
                u = self._sublayer(s, merged, block["merge_norm"], rng)
                t = self._ffn_sublayer(u, block, rng)
        state.past, state.length = present, state.length + m
        return _norm(t, self.dec_final) if self.dec_blocks else t

    def decode(self, memory: EncoderMemory, tgt_in, rng: Rng | None = None) -> Tensor:
        """Teacher-forced logits of every position of ``tgt_in``."""
        return self.project_vocab(self._feed(self._decode_state(memory), tgt_in, rng))

    def forward_logits(self, batch, rng: Rng | None = None) -> Tensor:
        srcs = (batch.src_corrupt_left, batch.src_corrupt_right) if len(self.branches) == 2 else (batch.src,)
        return self.decode(self.encode(*srcs, rng=rng), batch.tgt_in, rng)

    def loss_on_batch(self, batch, rng: Rng | None = None) -> Tensor:
        """Label-smoothed cross-entropy of a batch; dropout is on exactly
        when ``rng`` is given."""
        logits = self.forward_logits(batch, rng)
        return cross_entropy(
            logits, batch.tgt_out, smoothing=self.config.label_smoothing, pad_id=PAD_ID
        )

    # -- decode-time helpers ------------------------------------------------

    def next_logprobs(self, memory: EncoderMemory, prefix: list[int]) -> np.ndarray:
        """Log-probabilities of the next token after a [BOS, ...] prefix.

        Re-runs the decoder over the whole prefix: the reference that the
        cached ``step_logprobs`` is tested against.
        """
        ids = np.asarray(prefix, dtype=np.int64)[None, :]
        return _log_softmax64(self.decode(memory, ids).data[0, -1])

    def start_decode(self, sources: list[list[int]]) -> DecodeState:
        """Encode ``sources`` as one batch padded with PAD_ID, and project each
        decoder block's cross-attention keys and values once."""
        if not sources:
            raise DataError("no sources to decode")
        if any(not len(s) for s in sources):
            raise DataError("cannot decode an empty source")
        ids = np.full((len(sources), max(len(s) for s in sources)), PAD_ID, dtype=np.int64)
        for row, s in zip(ids, sources):
            row[: len(s)] = s
        # no tape: the state outlives the call, and a tape would chain every step
        with no_grad():
            # every branch reads the clean source at inference
            return self._decode_state(self.encode(*[ids] * len(self.branches)))

    def step_logprobs(self, state: DecodeState, tokens) -> np.ndarray:
        """Feed one token per row at the next position; (rows, V) float64
        log-probabilities of the token after it."""
        with no_grad():
            t = self._feed(state, np.asarray(tokens, dtype=np.int64).reshape(-1, 1))
            return _log_softmax64(self.project_vocab(t).data[:, -1])

    def reorder(self, state: DecodeState, rows) -> None:
        """Keep only ``rows`` of ``state``, in that order; a row may repeat."""
        rows = np.asarray(rows, dtype=np.intp)

        def gather(kv):
            # (..., rows, heads, positions, d_k): the rows sit behind any branch axis
            return tuple(Tensor(x.data[..., rows, :, :, :]) for x in kv)

        state.key_bias = state.key_bias[rows]
        state.cross = [gather(kv) for kv in state.cross]
        state.past = [None if kv is None else gather(kv) for kv in state.past]


# perfbench/spans.py wraps methods through these names when it is imported
CrossedCoAttentionModel = TransformerModel = Seq2SeqModel


def build_model(config: ModelConfig, rng: Rng, dtype=np.float32) -> Seq2SeqModel:
    return Seq2SeqModel(config, ParamStore(dtype, rng=rng.fork("init")))


# ---------------------------------------------------------------------------
# analytic parameter counting (no allocation)
# ---------------------------------------------------------------------------


def count_parameters(config: ModelConfig) -> tuple[int, dict[str, int]]:
    """Closed-form parameter totals per component for a config."""
    d, f, v, n = config.d_model, config.d_ff, config.vocab_size, config.n_blocks
    attn = 4 * d * d
    ffn = d * f + f + f * d + d
    norm = 2 * d
    breakdown = {"embedding": v * d}
    if config.arch == ARCH_THM:
        enc_block = 2 * attn + 2 * ffn + 4 * norm
        dec_block = 3 * attn + 3 * ffn + (2 * d * d + d) + 7 * norm
        finals = 3 * norm if n else 0
    else:
        enc_block = attn + ffn + 2 * norm
        dec_block = 2 * attn + ffn + 3 * norm
        finals = 2 * norm if n else 0
    breakdown["encoder"] = n * enc_block
    breakdown["decoder"] = n * dec_block
    breakdown["final_norms"] = finals
    return sum(breakdown.values()), breakdown
