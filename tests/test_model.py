"""Model contracts: shapes, symmetries, causality, determinism, checkpoints,
parameter counting, positional encodings."""

import gc
import re
import struct
import weakref
from dataclasses import replace

import numpy as np
import pytest

from ccn import attention, kernels, tensor
from ccn import model as model_module
from ccn.attention import (
    LEFT,
    RIGHT,
    AttentionHeadParams,
    MultiHeadParams,
    causal_mask,
    coattention,
    crossed_routing,
    multi_head,
    padding_mask,
    self_routing,
)
from ccn.bpe import BOS_ID, PAD_ID, learn_bpe
from ccn.checkpoint import load_checkpoint, model_from_checkpoint, save_checkpoint, save_model
from ccn.data import gen_synthetic, make_batches
from ccn.errors import DataError, MaskError, ShapeError, VocabError
from ccn.model import (
    EncoderMemory,
    ModelConfig,
    build_model,
    count_parameters,
    preset,
    sinusoidal_positions,
)
from ccn.rng import Rng
from ccn.tensor import Tensor, add, concat, fold_branches, layer_norm, linear, mean_all, no_grad
from oracles import FailingArray, fuse_heads, graph_nodes, relu, tape_ops


def tiny_cfg(arch="thm", **over):
    base = dict(
        arch=arch,
        d_model=16,
        n_heads=2,
        n_blocks=2,
        d_ff=32,
        vocab_size=20,
        dropout_p=0.0,
        swap_prob=0.0,
        max_len=32,
        label_smoothing=0.1,
    )
    base.update(over)
    return ModelConfig(**base)


def _copy_params(dst, src_values: dict[str, np.ndarray], mapping: dict[str, str]):
    for dst_name, src_name in mapping.items():
        dst.params[dst_name].data[...] = src_values[src_name]


# ---------------------------------------------------------------------------
# embeddings and positions
# ---------------------------------------------------------------------------


def test_positional_encoding_known_values():
    pe = sinusoidal_positions(4, 8)
    assert np.allclose(pe[0, 0::2], 0.0)
    assert np.allclose(pe[0, 1::2], 1.0)
    assert abs(pe[1, 0] - np.sin(1.0)) < 1e-12
    assert abs(pe[1, 1] - np.cos(1.0)) < 1e-12
    assert abs(pe[2, 2] - np.sin(2.0 / 10000 ** (2.0 / 8.0))) < 1e-12


def test_embed_is_scaled_row_plus_position():
    model = build_model(tiny_cfg(), Rng(0), dtype=np.float64)
    out = model.embed_tokens(np.array([[5]])).data
    want = model.embed_table.data[5] * np.sqrt(model.config.d_model) + model.positions[0]
    assert np.array_equal(out[0, 0], want)


def test_embed_rejects_out_of_vocab_and_overlong():
    model = build_model(tiny_cfg(), Rng(0))
    with pytest.raises(VocabError):
        model.embed_tokens(np.array([[99]]))
    with pytest.raises(DataError):
        model.embed_tokens(np.zeros((1, 33), dtype=np.int64))


# ---------------------------------------------------------------------------
# encoder / decoder contracts
# ---------------------------------------------------------------------------


def test_thm_encoder_output_shapes():
    model = build_model(tiny_cfg(), Rng(1), dtype=np.float64)
    src = np.array([[5, 6, 7, 2], [8, 9, 2, 0]])
    memory = model.encode(src, src)
    assert [m.shape for m in memory.state.data] == [(2, 4, 16), (2, 4, 16)]
    logits = model.decode(memory, np.array([[1, 5, 6], [1, 8, 9]]))
    assert logits.data.shape == (2, 3, 20)


def test_thm_branch_symmetry_with_tied_parameters():
    model = build_model(tiny_cfg(), Rng(2), dtype=np.float64)
    values = {n: p.data for n, p in model.params.items()}
    # copy every left-branch tensor onto its right-branch twin
    mapping = {
        n: n.replace(".right.", ".left.")
        for n in model.params
        if ".right." in n and n.startswith("enc.")
    }
    mapping["enc.final_right_norm.gain"] = "enc.final_left_norm.gain"
    mapping["enc.final_right_norm.bias"] = "enc.final_left_norm.bias"
    _copy_params(model, values, mapping)
    src = np.array([[5, 6, 7, 2]])
    memory = model.encode(src, src)
    assert np.array_equal(memory.state.data[0], memory.state.data[1])


def test_thm_zero_blocks_returns_embedded_inputs():
    model = build_model(tiny_cfg(n_blocks=0), Rng(3), dtype=np.float64)
    src = np.array([[5, 6, 2]])
    memory = model.encode(src, src)
    want = model.embed_tokens(src).data
    assert np.array_equal(memory.state.data[0], want)
    assert np.array_equal(memory.state.data[1], want)


def test_thm_encoder_rejects_misaligned_branch_inputs():
    model = build_model(tiny_cfg(), Rng(4))
    with pytest.raises(ShapeError):
        model.encode(np.array([[5, 6, 2]]), np.array([[5, 6, 7, 2]]))


@pytest.mark.parametrize("arch, n_sources", [("thm", 1), ("thm", 3), ("transformer", 2)])
def test_encoder_rejects_wrong_number_of_sources(arch, n_sources):
    model = build_model(tiny_cfg(arch), Rng(4))
    src = np.array([[5, 6, 2]])
    with pytest.raises(ShapeError, match="source batch"):
        model.encode(*[src] * n_sources)


def test_decoder_branch_halves_equal_with_tied_params_and_memories(monkeypatch):
    model = build_model(tiny_cfg(n_blocks=1), Rng(5), dtype=np.float64)
    values = {n: p.data for n, p in model.params.items()}
    mapping = {
        n: n.replace(".right.", ".left.")
        for n in model.params
        if ".right." in n and n.startswith("dec.")
    }
    _copy_params(model, values, mapping)
    src = np.array([[5, 6, 7, 2]])
    memory = model.encode(src, src)
    # identical memories for both branches
    mem = memory.state.data[0]
    tied = EncoderMemory(Tensor(np.stack([mem, mem])), memory.key_bias)
    # the stacked branch outputs, as the merge reads them
    outs = []
    monkeypatch.setattr(model_module, "fold_branches", lambda t: outs.append(t) or fold_branches(t))
    model.decode(tied, np.array([[1, 5, 6]]))
    left, right = map(Tensor, outs[0].data)
    assert np.array_equal(left.data, right.data)


def test_causality_future_tokens_do_not_move_past_logits():
    model = build_model(tiny_cfg(), Rng(6), dtype=np.float64)
    rng = np.random.default_rng(0)
    src = np.array([[5, 6, 7, 2]])
    memory = model.encode(src, src)
    tgt = np.array([[1, 5, 6, 7, 8]])
    base = model.decode(memory, tgt).data.copy()
    for _ in range(10):
        i = int(rng.integers(0, 4))
        perturbed = tgt.copy()
        perturbed[0, i + 1 :] = rng.integers(4, 20, size=4 - i)
        out = model.decode(memory, perturbed).data
        assert np.array_equal(out[0, : i + 1], base[0, : i + 1])


def test_transformer_shapes_and_causality():
    model = build_model(tiny_cfg(arch="transformer"), Rng(7), dtype=np.float64)
    src = np.array([[5, 6, 2, 0]])
    memory = model.encode(src)
    logits = model.decode(memory, np.array([[1, 5, 6]]))
    assert logits.data.shape == (1, 3, 20)
    base = logits.data.copy()
    bumped = model.decode(memory, np.array([[1, 5, 9]])).data
    assert np.array_equal(bumped[0, :2], base[0, :2])
    assert not np.array_equal(bumped[0, 2], base[0, 2])


def test_determinism_same_seed_same_logits():
    cfg = tiny_cfg(dropout_p=0.1, swap_prob=0.5)
    corpus = gen_synthetic("copy", 12, 4, (3, 5), Rng(0))
    bpe = learn_bpe(corpus.lines(), 16)
    cfg = replace(cfg, vocab_size=bpe.vocab_size)
    outs = []
    for _ in range(2):
        model = build_model(cfg, Rng(11))
        batch = make_batches(corpus, bpe, 64, Rng(5), swap_prob=0.5)[0]
        logits = model.forward_logits(batch, rng=Rng(13))
        outs.append(logits.data.copy())
    assert np.array_equal(outs[0], outs[1])


@pytest.mark.parametrize("arch", ["thm", "transformer"])
def test_dropout_is_on_exactly_when_an_rng_is_given(arch):
    corpus = gen_synthetic("copy", 12, 4, (3, 5), Rng(0))
    bpe = learn_bpe(corpus.lines(), 16)
    cfg = tiny_cfg(arch, dropout_p=0.3, vocab_size=bpe.vocab_size)
    batch = make_batches(corpus, bpe, 64, Rng(5))[0]
    model = build_model(cfg, Rng(11), dtype=np.float64)
    plain = build_model(replace(cfg, dropout_p=0.0), Rng(11), dtype=np.float64)
    want = plain.loss_on_batch(batch).data
    assert model.loss_on_batch(batch).data == want
    assert model.loss_on_batch(batch, Rng(13)).data != want
    rng = Rng(13)
    assert plain.loss_on_batch(batch, rng).data == want
    assert rng.uniform() == Rng(13).uniform()


def test_baseline_encoder_matches_thm_left_branch_under_all_left_routing():
    # construction test: tie the transformer encoder onto the THM left branch,
    # route both THM gates to their own channels, discard the right branch
    thm = build_model(tiny_cfg(n_blocks=2), Rng(8), dtype=np.float64)
    base = build_model(tiny_cfg(arch="transformer", n_blocks=2), Rng(9), dtype=np.float64)
    values = {n: p.data for n, p in base.params.items()}
    mapping = {"embedding.table": "embedding.table"}
    for i in range(2):
        for suffix in (
            *(f"attn.h{j}.{w}" for j in range(2) for w in ("wq", "wk", "wv")),
            "attn.wo",
            "attn_norm.gain",
            "attn_norm.bias",
            "ffn.w1",
            "ffn.b1",
            "ffn.w2",
            "ffn.b2",
            "ffn_norm.gain",
            "ffn_norm.bias",
        ):
            mapping[f"enc.{i}.left.{suffix}"] = f"enc.{i}.{suffix}"
    mapping["enc.final_left_norm.gain"] = "enc.final_norm.gain"
    mapping["enc.final_left_norm.bias"] = "enc.final_norm.bias"
    _copy_params(thm, values, mapping)
    src = np.array([[5, 6, 7, 2, 0]])
    with no_grad():
        thm_mem = thm.encode(src, src, routing=(self_routing(LEFT), self_routing(RIGHT)))
        base_mem = base.encode(src)
    assert np.abs(thm_mem.state.data[0] - base_mem.state.data).max() < 1e-12


def _per_branch_thm(model, src, tgt):
    """THM's eval-mode encoder memories and decoder logits computed one
    branch at a time from the parameters by name: crossed ``coattention``
    in the encoder, ``multi_head`` per decoder branch, a ``concat`` merge,
    and ``layer_norm`` for every norm."""
    P = model.params

    def mha(prefix):
        heads = [AttentionHeadParams(*(P[f"{prefix}.h{j}.w{g}"] for g in "qkv")) for j in range(2)]
        return fuse_heads(heads, P[f"{prefix}.wo"])

    def norm(x, prefix):
        return layer_norm(x, P[f"{prefix}.gain"], P[f"{prefix}.bias"])

    def ffn_sublayer(x, prefix, norm_prefix):
        h = relu(linear(x, P[f"{prefix}.w1"], P[f"{prefix}.b1"]))
        return norm(add(x, linear(h, P[f"{prefix}.w2"], P[f"{prefix}.b2"])), norm_prefix)

    key_bias = padding_mask(src == PAD_ID, np.float64)
    xs = [model.embed_tokens(src)] * 2
    for i in range(model.config.n_blocks):
        ys = coattention(*xs, *crossed_routing(), mha(f"enc.{i}.left.attn"), mha(f"enc.{i}.right.attn"),
                         key_bias, key_bias)
        xs = [norm(add(x, y), f"enc.{i}.{b}.attn_norm") for b, x, y in zip((LEFT, RIGHT), xs, ys)]
        xs = [ffn_sublayer(x, f"enc.{i}.{b}.ffn", f"enc.{i}.{b}.ffn_norm") for b, x in zip((LEFT, RIGHT), xs)]
    mems = [norm(x, f"enc.final_{b}_norm") for b, x in zip((LEFT, RIGHT), xs)]
    t = model.embed_tokens(tgt)
    for i in range(model.config.n_blocks):
        p = f"dec.{i}"
        s = norm(add(t, multi_head(t, t, t, mha(f"{p}.self_attn"), causal_mask(tgt.shape[-1], np.float64))),
                 f"{p}.self_norm")
        outs = []
        for b, mem in zip((LEFT, RIGHT), mems):
            c = norm(add(s, multi_head(s, mem, mem, mha(f"{p}.{b}.cross"), key_bias)), f"{p}.{b}.cross_norm")
            outs.append(ffn_sublayer(c, f"{p}.{b}.ffn", f"{p}.{b}.ffn_norm"))
        merged = linear(concat(outs, axis=-1), P[f"{p}.merge.w"], P[f"{p}.merge.b"])
        u = norm(add(s, merged), f"{p}.merge_norm")
        t = ffn_sublayer(u, f"{p}.ffn", f"{p}.ffn_norm")
    t = norm(t, "dec.final_norm")
    return [m.data for m in mems], model.project_vocab(t).data


def test_stacked_thm_matches_a_per_branch_reference():
    model = build_model(tiny_cfg(), Rng(40), dtype=np.float64)
    src = np.array([[5, 6, 7, 2], [8, 9, 2, 0]])
    tgt = np.array([[1, 5, 6], [1, 8, 9]])
    with no_grad():
        memory = model.encode(src, src)
        logits = model.decode(memory, tgt).data
        mems, want = _per_branch_thm(model, src, tgt)
    for got, ref in zip(memory.state.data, mems, strict=True):
        assert np.abs(got - ref).max() < 1e-12
    assert np.abs(logits - want).max() < 1e-12


# ---------------------------------------------------------------------------
# incremental decoding against the full-recompute oracle (next_logprobs)
# ---------------------------------------------------------------------------

# sources of different lengths, so the batch is padded
DECODE_SOURCES = [[5, 6, 7, 8, 2], [9, 2], [10, 11, 12, 2]]


def _memory(model, src):
    ids = np.asarray(src)[None, :]
    return model.encode(*[ids] * len(model.branches))


def _token_columns(rng, rows: int, steps: int) -> np.ndarray:
    """(steps, rows) tokens to feed, BOS first."""
    cols = rng.integers(4, 20, size=(steps, rows))
    cols[0] = BOS_ID
    return cols


@pytest.mark.parametrize("arch", ["thm", "transformer"])
@pytest.mark.parametrize("n_blocks", [0, 1, 2])
@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-10), (np.float32, 1e-5)], ids=["float64", "float32"])
def test_step_logprobs_match_full_recompute(arch, n_blocks, dtype, tol):
    model = build_model(tiny_cfg(arch, n_blocks=n_blocks), Rng(21), dtype=dtype)
    cols = _token_columns(np.random.default_rng(3), len(DECODE_SOURCES), 7)
    state = model.start_decode(DECODE_SOURCES)
    with no_grad():
        memories = [_memory(model, s) for s in DECODE_SOURCES]
    for step, col in enumerate(cols):
        got = model.step_logprobs(state, col)
        assert got.shape == (len(DECODE_SOURCES), 20) and got.dtype == np.float64
        for row, memory in enumerate(memories):
            with no_grad():
                want = model.next_logprobs(memory, list(cols[: step + 1, row]))
            assert np.abs(got[row] - want).max() < tol, (step, row)


@pytest.mark.parametrize("arch", ["thm", "transformer"])
def test_step_row_ignores_the_other_rows(arch):
    # the batched analogue of acceptance 5: another row's source and tokens
    # do not move a row's log-probabilities
    model = build_model(tiny_cfg(arch), Rng(22), dtype=np.float64)
    rng = np.random.default_rng(4)
    kept, other, changed = (_token_columns(rng, 1, 6)[:, 0] for _ in range(3))

    def first_row(other_src, other_tokens):
        state = model.start_decode([[5, 6, 7, 2], other_src])
        return np.stack([model.step_logprobs(state, [a, b])[0] for a, b in zip(kept, other_tokens)])

    base = first_row([8, 9, 10, 2], other)
    # same padded width: bit for bit
    assert np.array_equal(first_row([11, 12, 13, 2], changed), base)
    # a longer source widens everyone's padding: equal up to rounding
    assert np.abs(first_row([11, 12, 13, 14, 15, 16, 17, 2], changed) - base).max() < 1e-12


@pytest.mark.parametrize("arch", ["thm", "transformer"])
@pytest.mark.parametrize("rows", [[2, 0, 0], [1], [2, 1]], ids=["repeat", "drop", "permute"])
def test_reordered_rows_continue_the_rows_they_were_gathered_from(arch, rows):
    model = build_model(tiny_cfg(arch), Rng(23), dtype=np.float64)
    cols = _token_columns(np.random.default_rng(5), len(DECODE_SOURCES), 6)
    state, ref = model.start_decode(DECODE_SOURCES), model.start_decode(DECODE_SOURCES)
    for col in cols[:3]:
        model.step_logprobs(state, col)
        model.step_logprobs(ref, col)
    model.reorder(state, rows)
    for col in cols[3:]:
        got = model.step_logprobs(state, col[rows])
        assert np.abs(got - model.step_logprobs(ref, col)[rows]).max() < 1e-12


def test_a_cached_thm_decode_step_runs_eleven_layer_norms(monkeypatch):
    # per block the self-attention norm, the branches' cross and FFN norms
    # (one call each for both branches), the merge and FFN norms; then the final norm
    model = build_model(tiny_cfg(), Rng(41))
    state = model.start_decode(DECODE_SOURCES)
    calls = []

    def counting(*args, fwd=kernels.layer_norm_fwd):
        calls.append(args[0].shape)
        return fwd(*args)

    monkeypatch.setattr(kernels, "layer_norm_fwd", counting)
    model.step_logprobs(state, [BOS_ID] * len(DECODE_SOURCES))
    assert len(calls) == 11


def test_step_past_max_len_raises():
    model = build_model(tiny_cfg(max_len=4), Rng(24))
    state = model.start_decode([[5, 2]])
    for token in (1, 5, 6, 7):
        model.step_logprobs(state, [token])
    with pytest.raises(DataError, match="target length 5 exceeds max_len 4"):
        model.step_logprobs(state, [8])


def test_start_decode_rejects_an_empty_source():
    model = build_model(tiny_cfg(), Rng(25))
    with pytest.raises(DataError, match="cannot decode an empty source"):
        model.start_decode([[5, 2], []])


# ---------------------------------------------------------------------------
# fused attention weights: per-head parameters are column views
# ---------------------------------------------------------------------------


def _branch_view(model, mha, j):
    """Branch j's MultiHeadParams: views of the stacked gates' slice j, or
    the gates themselves where there is no branch axis."""
    if len(model.branches) == 1:
        return mha

    def view(w):
        t = Tensor(w.data[j])
        t.grad = w.grad[j]
        return t

    return MultiHeadParams(*map(view, (mha.w_q, mha.w_k, mha.w_v, mha.w_o)), n_heads=mha.n_heads)


def _attention_sublayers(model):
    """(parameter prefix, MultiHeadParams) of every attention sublayer."""
    for i, block in enumerate(model.enc_blocks):
        for j, b in enumerate(model.branches):
            yield ".".join(filter(None, ("enc", str(i), b, "attn"))), _branch_view(model, block["attn"], j)
    for i, block in enumerate(model.dec_blocks):
        yield f"dec.{i}.self_attn", block["self_attn"]
        for j, b in enumerate(model.branches):
            cross = _branch_view(model, block["branch"]["cross"], j)
            yield ".".join(filter(None, ("dec", str(i), b, "cross"))), cross


@pytest.mark.parametrize("arch", ["thm", "transformer"])
def test_per_head_parameters_share_memory_with_their_gate(arch):
    model = build_model(tiny_cfg(arch), Rng(25))
    sublayers = dict(_attention_sublayers(model))
    per_head = [n for n in model.params if re.search(r"\.h\d+\.w[qkv]$", n)]
    assert len(per_head) == len(sublayers) * 2 * 3
    d_k = 16 // 2
    for name in per_head:
        prefix, head, gate = name.rsplit(".", 2)
        fused = getattr(sublayers[prefix], f"w_{gate[1]}")
        cols = slice(int(head[1:]) * d_k, (int(head[1:]) + 1) * d_k)
        p = model.params[name]
        assert np.shares_memory(p.data, fused.data) and np.shares_memory(p.grad, fused.grad), name
        assert np.array_equal(p.data, fused.data[:, cols]), name


def test_in_place_write_through_a_per_head_name_changes_encode():
    model = build_model(tiny_cfg(), Rng(26), dtype=np.float64)
    src = np.array([[5, 6, 7, 2]])
    with no_grad():
        before = model.encode(src, src)
        model.params["enc.0.left.attn.h1.wv"].data[...] *= 2.0
        after = model.encode(src, src)
    assert not np.allclose(after.state.data[0], before.state.data[0])


@pytest.mark.parametrize("arch", ["thm", "transformer"])
def test_all_pad_source_row_raises_mask_error(arch):
    model = build_model(tiny_cfg(arch), Rng(31))
    src = np.array([[5, 6, 2], [0, 0, 0]])
    with pytest.raises(MaskError):
        model.encode(*[src] * len(model.branches))
    with pytest.raises(MaskError):
        model.start_decode([[5, 6, 2], [0, 0]])


def test_a_forward_pass_builds_each_mask_bias_once(monkeypatch):
    # one source-key bias per encode, one causal bias per decode, none per step
    built = []

    def counting(disallowed, dtype, bias=attention._bias):
        built.append(disallowed.shape)
        return bias(disallowed, dtype)

    monkeypatch.setattr(attention, "_bias", counting)
    corpus = gen_synthetic("copy", 12, 4, (3, 5), Rng(0))
    bpe = learn_bpe(corpus.lines(), 16)
    model = build_model(tiny_cfg(dropout_p=0.1, vocab_size=bpe.vocab_size), Rng(32))
    batch = make_batches(corpus, bpe, 64, Rng(5), swap_prob=0.5)[0]
    model.loss_on_batch(batch, rng=Rng(13))
    b, n, m = *batch.src.shape, batch.tgt_in.shape[-1]
    assert built == [(b, 1, n), (m, m)]
    state = model.start_decode(DECODE_SOURCES)
    built.clear()
    model.step_logprobs(state, [BOS_ID] * len(DECODE_SOURCES))
    assert built == []


@pytest.mark.parametrize("arch", ["thm", "transformer"])
def test_zero_grads_zeroes_every_fused_gradient(arch):
    model = build_model(tiny_cfg(arch), Rng(27), dtype=np.float64)
    src = np.array([[5, 6, 7, 2]])
    memory = model.encode(*[src] * len(model.branches))
    mean_all(model.decode(memory, np.array([[1, 5, 6]]))).backward()
    fused = [getattr(mha, g) for _, mha in _attention_sublayers(model) for g in ("w_q", "w_k", "w_v")]
    assert all(np.any(w.grad) for w in fused)
    model.zero_grads()
    assert not any(np.any(w.grad) for w in fused)


@pytest.mark.parametrize("source", ["built", "loaded"])
@pytest.mark.parametrize("arch", ["thm", "transformer"])
def test_every_parameter_is_a_view_of_the_arenas(tmp_path, arch, source):
    model = build_model(tiny_cfg(arch), Rng(29))
    if source == "loaded":
        save_model(tmp_path / "m.ckpt", model)
        built, (model, _) = model, model_from_checkpoint(tmp_path / "m.ckpt")
        assert all(np.array_equal(p.data, model.params[n].data) for n, p in built.params.items())
    assert model.param_arena.ndim == model.grad_arena.ndim == 1
    assert model.param_arena.size == model.grad_arena.size == model.param_count()
    for name, p in model.params.items():
        assert np.shares_memory(p.data, model.param_arena), name
        assert np.shares_memory(p.grad, model.grad_arena), name
        assert p.data.shape == p.grad.shape, name
    # the views tile the arena: writing each name's own index lands exactly once
    tags = np.zeros(model.param_arena.size)
    for i, (name, view) in enumerate(model.arena_views(tags).items(), 1):
        assert not np.any(view), name
        view[...] = i
    assert np.all(tags > 0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", ["tiny", "transformer-tiny"])
def test_initial_parameters_are_drawn_by_their_rules_in_checkpoint_order(name, dtype):
    # the definition, parameter by parameter: the embedding U(+-sqrt(3/d)),
    # gains 1, biases 0, each 2-d weight Xavier at its own shape, every
    # draw from one init stream in checkpoint order
    model = build_model(preset(name), Rng(41), dtype=dtype)
    rng = Rng(41).fork("init")
    for pname, p in model.params.items():
        shape = p.data.shape
        if pname == "embedding.table":
            limit = np.sqrt(3.0 / shape[1])
            want = rng.uniform_range(-limit, limit, shape)
        elif len(shape) == 1:
            want = np.full(shape, 1.0 if pname.endswith(".gain") else 0.0)
        else:
            limit = np.sqrt(6.0 / (shape[0] + shape[1]))
            want = rng.uniform_range(-limit, limit, shape)
        assert p.data.dtype == dtype, pname
        assert p.data.tobytes() == want.astype(dtype).tobytes(), pname


@pytest.mark.parametrize("arch, merges", [("thm", 0), ("transformer", 0)])
def test_the_only_concat_in_a_training_step_is_the_decoder_merge(arch, merges):
    # the gates are projected by their fused weights and THM folds its branch
    # outputs into the merge by a transpose: no concat at all
    corpus = gen_synthetic("copy", 12, 4, (3, 5), Rng(0))
    bpe = learn_bpe(corpus.lines(), 16)
    model = build_model(tiny_cfg(arch, dropout_p=0.1, vocab_size=bpe.vocab_size), Rng(28))
    batch = make_batches(corpus, bpe, 64, Rng(5), swap_prob=0.5)[0]
    concats = 0
    for node in graph_nodes(model.loss_on_batch(batch, rng=Rng(13))):
        backward = node.backward
        concats += backward is not None and backward.__qualname__.startswith("concat.")
    assert concats == merges


def _recording(backward, dtypes: list):
    """``backward`` that also notes the dtype of every gradient it hands on."""

    def wrapped(g):
        pgs = tuple(backward(g))
        dtypes.extend(pg.dtype for pg in pgs if pg is not None)
        return pgs

    return wrapped


@pytest.mark.parametrize("arch", ["thm", "transformer"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
def test_training_step_computes_in_the_model_dtype(arch, dtype, monkeypatch):
    # only the scalar loss is float64; every other node and every gradient
    # keeps the model dtype, forward and backward
    corpus = gen_synthetic("copy", 12, 4, (3, 5), Rng(0))
    bpe = learn_bpe(corpus.lines(), 16)
    cfg = tiny_cfg(arch, dropout_p=0.1, swap_prob=0.5, vocab_size=bpe.vocab_size)
    model = build_model(cfg, Rng(29), dtype=dtype)
    batch = make_batches(corpus, bpe, 64, Rng(5), swap_prob=0.5)[0]
    # nodes hold no data: note each op's output and operands as the op makes them
    outputs, operands, make = [], [], tensor._make

    def noting(data, parents, backward):
        outputs.append(np.asarray(data).dtype)
        operands.extend(p.data.dtype for p in parents)
        return make(data, parents, backward)

    monkeypatch.setattr(tensor, "_make", noting)
    loss = model.loss_on_batch(batch, rng=Rng(13))
    assert loss.data.dtype == np.float64
    assert set(outputs[:-1]) | set(operands) == {np.dtype(dtype)}  # the loss is made last
    handed = []
    for node in graph_nodes(loss):
        if node.backward is not None:
            node.backward = _recording(node.backward, handed)
    loss.backward()
    assert handed and set(handed) == {np.dtype(dtype)}


@pytest.mark.parametrize("arch", ["thm", "transformer"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
def test_decode_state_stays_in_the_model_dtype(arch, dtype):
    model = build_model(tiny_cfg(arch), Rng(30), dtype=dtype)
    state = model.start_decode(DECODE_SOURCES)
    for col in _token_columns(np.random.default_rng(6), len(DECODE_SOURCES), 3):
        assert model.step_logprobs(state, col).dtype == np.float64
        cached = [x for kv in state.cross for x in kv]
        cached += [x for kv in state.past for x in kv]
        assert {x.data.dtype for x in cached} == {np.dtype(dtype)}


@pytest.mark.parametrize("name, expected", [("tiny", 67), ("transformer-tiny", 57)])
def test_tape_ops_per_tiny_training_step(name, expected):
    # one node per linear, feed-forward network, head projection, attention core and residual + norm
    rng = Rng(1)
    train = gen_synthetic("copy", 20, 50, (3, 12), rng.fork("train"))
    bpe = learn_bpe(train.lines(), 28)
    cfg = replace(preset(name), vocab_size=bpe.vocab_size)
    batch = make_batches(train, bpe, 512, Rng(4), swap_prob=cfg.swap_prob)[0]
    loss = build_model(cfg, Rng(3)).loss_on_batch(batch, rng=Rng(5))
    ops = tape_ops(loss)
    assert ops <= 180
    assert ops == expected


def _owner(a: np.ndarray) -> np.ndarray:
    """The array that owns ``a``'s memory: freeing it frees the memory."""
    while a.base is not None:
        a = a.base
    return a


@pytest.mark.parametrize("name, expected", [("tiny", 67), ("transformer-tiny", 57)])
def test_the_tape_keeps_only_what_backward_reads_and_releases_it(name, expected, monkeypatch):
    rng = Rng(1)
    train = gen_synthetic("copy", 20, 50, (3, 12), rng.fork("train"))
    bpe = learn_bpe(train.lines(), 28)
    cfg = replace(preset(name), vocab_size=bpe.vocab_size)
    batch = make_batches(train, bpe, 512, Rng(4), swap_prob=cfg.swap_prob)[0]
    model = build_model(cfg, Rng(3))
    dead, masks = [], []  # weakrefs to outputs no backward reads, and the masks drawn

    def noted(fn):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            dead.append(weakref.ref(_owner(out.data)))
            return out

        return wrapped

    def noted_mask(*args):
        mask = mask_of(*args)
        masks.append(mask)
        return mask

    mask_of, seq2seq = tensor._dropout_mask, model_module.Seq2SeqModel
    monkeypatch.setattr(seq2seq, "project_vocab", noted(seq2seq.project_vocab))
    monkeypatch.setattr(attention, "linear", noted(attention.linear))  # each attention sublayer's output
    monkeypatch.setattr(tensor, "_dropout_mask", noted_mask)
    loss = model.loss_on_batch(batch, rng=Rng(5))
    assert len(dead) == 1 + 3 * cfg.n_blocks  # the logits; per block, encoder, self and cross attention
    assert [ref() is None for ref in dead] == [True] * len(dead)
    assert masks and all(keep.dtype == bool and scale.dtype == model.dtype for keep, scale in masks)
    saved = weakref.ref(_owner(masks[0][0]))
    del masks
    assert saved() is not None  # the embedding dropout's backward holds it
    nodes = graph_nodes(loss)
    assert sum(node.leaf is None for node in nodes) == expected
    loss.backward()
    assert saved() is None
    assert all(node.parents == () and node.backward is None for node in nodes if node.leaf is None)
    with pytest.raises(RuntimeError, match="released"):
        loss.backward()


@pytest.mark.parametrize("arch", ["thm", "transformer"])
def test_a_dropped_model_frees_its_arenas_without_the_cycle_collector(arch):
    # a parameter's leaf node refers to it weakly: no parameter is in a reference cycle
    model = build_model(tiny_cfg(arch), Rng(31))
    src = np.array([[5, 6, 7, 2]])
    logits = model.decode(model.encode(*[src] * len(model.branches)), np.array([[1, 5, 6]]))
    mean_all(logits).backward()
    arenas = [weakref.ref(model.param_arena), weakref.ref(model.grad_arena)]
    gc.disable()
    try:
        del model, logits
        assert [ref() is None for ref in arenas] == [True, True]
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_round_trip_bit_exact(tmp_path):
    cfg = tiny_cfg(dropout_p=0.1, swap_prob=0.5)
    model = build_model(cfg, Rng(21))  # float32: the serialized precision
    src = np.array([[5, 6, 7, 2]])
    tgt = np.array([[1, 5, 6]])
    with no_grad():
        before = model.decode(model.encode(src, src), tgt).data.copy()
    path = tmp_path / "model.ckpt"
    save_model(path, model, step=17)
    loaded, step = model_from_checkpoint(path)
    assert step == 17
    assert loaded.config == cfg
    with no_grad():
        after = loaded.decode(loaded.encode(src, src), tgt).data
    assert np.array_equal(before, after)
    for name, p in model.params.items():
        assert np.array_equal(p.data, loaded.params[name].data)


@pytest.mark.parametrize("change", ["missing", "extra", "reshape"])
def test_checkpoint_not_matching_the_model_raises_naming_the_parameter(tmp_path, change):
    model = build_model(tiny_cfg(), Rng(33))
    params = {n: p.data for n, p in model.params.items()}
    name = "dec.1.left.cross.h1.wk"
    if change == "missing":
        del params[name]
    elif change == "extra":
        name = "dec.2.ffn.w1"
        params[name] = np.zeros((16, 32))
    else:
        params[name] = params[name][:, :-1]
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model.config, 0, params)
    with pytest.raises(DataError, match=re.escape(name)) as err:
        model_from_checkpoint(path)
    assert str(err.value).startswith(f"{path}: checkpoint ")


def test_checkpoint_write_failing_midway_leaves_the_previous_file(tmp_path):
    path, blob, model = _saved_blob(tmp_path)
    items = [(n, p.data) for n, p in model.params.items()]
    failing = FailingArray(tmp_path)
    items.insert(len(items) // 2, ("fails", failing))
    with pytest.raises(OSError, match="No space left"):
        save_checkpoint(path, model.config, 4, dict(items))
    assert len(failing.seen) == 2  # the checkpoint and a temporary file beside it
    assert path.read_bytes() == blob
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_checkpoint_magic_and_config_block(tmp_path):
    model = build_model(tiny_cfg(), Rng(0))
    path = tmp_path / "m.ckpt"
    save_model(path, model, step=3)
    blob = path.read_bytes()
    assert blob[:4] == b"THM1"
    assert blob[4] == 1
    header = blob[5 : blob.index(b"\n\n")].decode()
    assert "arch=thm" in header and "d_model=16" in header and "step=3" in header
    config, step, params = load_checkpoint(path)
    assert step == 3 and config.d_model == 16
    # construction order is preserved on disk
    assert list(params) == list(model.params)
    assert all(v.dtype == np.float32 for v in params.values())


def test_loaded_checkpoint_arrays_are_writable_float32(tmp_path):
    # each payload is read straight into its own array, which building the
    # model copies into the arena: the only copy
    path, _, model = _saved_blob(tmp_path)
    _, _, params = load_checkpoint(path)
    for name, a in params.items():
        assert a.flags.writeable and a.dtype == np.float32, name
        assert np.array_equal(a, model.params[name].data), name


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + bytes([1]) + b"\n\n")
    with pytest.raises(DataError):
        load_checkpoint(path)


def _saved_blob(tmp_path) -> tuple:
    path = tmp_path / "m.ckpt"
    model = build_model(tiny_cfg(n_blocks=1), Rng(0))
    save_model(path, model, step=3)
    return path, path.read_bytes(), model


def test_checkpoint_truncated_payload_names_path_and_offset(tmp_path):
    path, blob, model = _saved_blob(tmp_path)
    path.write_bytes(blob[:-5])
    # the last record's float32 payload ends the file
    payload_at = len(blob) - 4 * list(model.params.values())[-1].data.size
    with pytest.raises(DataError, match=rf"{path.name}: byte {payload_at}: payload of .* truncated"):
        load_checkpoint(path)


def test_checkpoint_trailing_bytes_rejected(tmp_path):
    path, blob, _ = _saved_blob(tmp_path)
    path.write_bytes(blob + b"\x01\x02")
    with pytest.raises(DataError, match=rf"{path.name}: byte {len(blob)}: 2 trailing bytes"):
        load_checkpoint(path)


def test_checkpoint_empty_name_record_rejected(tmp_path):
    # 12 zero bytes parse as a whole record: name length 0, rank 0, one float
    path, blob, _ = _saved_blob(tmp_path)
    path.write_bytes(blob + bytes(12))
    with pytest.raises(DataError, match=rf"{path.name}: byte {len(blob)}: record has an empty parameter name"):
        load_checkpoint(path)


def test_checkpoint_duplicate_record_rejected(tmp_path):
    # a second embedding.table record, full of 7s, must not replace the first
    path, blob, model = _saved_blob(tmp_path)
    table = np.full(model.embed_table.data.shape, 7.0, dtype="<f4")
    name = b"embedding.table"
    record = struct.pack("<I", len(name)) + name + struct.pack("<3I", 2, *table.shape) + table.tobytes()
    path.write_bytes(blob + record)
    with pytest.raises(DataError, match=rf"{path.name}: byte {len(blob)}: duplicate record of parameter embedding.table"):
        load_checkpoint(path)


def test_checkpoint_missing_config_key_rejected(tmp_path):
    path, blob, _ = _saved_blob(tmp_path)
    path.write_bytes(blob.replace(b"n_heads=2\n", b""))
    with pytest.raises(DataError, match=rf"{path.name}: bytes 5-\d+: config block lacks key 'n_heads'"):
        load_checkpoint(path)


def test_checkpoint_malformed_config_value_rejected(tmp_path):
    path, blob, _ = _saved_blob(tmp_path)
    at = blob.index(b"d_ff=")
    path.write_bytes(blob.replace(b"d_ff=32\n", b"d_ff=3x\n"))
    with pytest.raises(DataError, match=rf"{path.name}: byte {at}: malformed config value d_ff='3x'"):
        load_checkpoint(path)


# ---------------------------------------------------------------------------
# parameter counting
# ---------------------------------------------------------------------------


def test_count_matches_allocation_on_small_configs():
    for arch in ("thm", "transformer"):
        for n_blocks in (0, 1, 3):
            cfg = tiny_cfg(arch=arch, n_blocks=n_blocks)
            model = build_model(cfg, Rng(1))
            total, breakdown = count_parameters(cfg)
            assert total == model.param_count(), (arch, n_blocks)
            assert total == sum(breakdown.values())


def test_count_reference_values_both_scales():
    base_t, _ = count_parameters(replace(preset("transformer-base"), vocab_size=33712))
    base_m, _ = count_parameters(replace(preset("thm-base"), vocab_size=33712))
    big_t, _ = count_parameters(replace(preset("transformer-big"), vocab_size=33712))
    big_m, _ = count_parameters(replace(preset("thm-big"), vocab_size=33712))
    assert base_t == 61_364_224
    assert base_m == 114_928_640
    assert big_t == 210_808_832
    assert big_m == 424_892_416
    assert 1.80 <= base_m / base_t <= 2.05
    assert 1.80 <= big_m / big_t <= 2.05


def test_count_single_linear_and_embedding_pieces():
    # a biased linear 2 -> 3 holds 9 numbers; an embedding 10 x 4 holds 40
    assert 2 * 3 + 3 == 9
    _, breakdown = count_parameters(tiny_cfg(vocab_size=10, d_model=4, n_heads=1, n_blocks=0, d_ff=8))
    assert breakdown["embedding"] == 40


def test_count_strictly_monotonic():
    base = tiny_cfg()
    total0, _ = count_parameters(base)
    for field, bigger in (
        ("d_model", 32),
        ("n_blocks", 3),
        ("vocab_size", 40),
        ("d_ff", 64),
    ):
        total1, _ = count_parameters(replace(base, **{field: bigger}))
        assert total1 > total0, field


def test_parameter_names_unique_and_order_deterministic():
    a = build_model(tiny_cfg(), Rng(3))
    b = build_model(tiny_cfg(), Rng(3))
    assert list(a.params) == list(b.params)
    assert len(set(a.params)) == len(a.params)


# parameter names, order and shapes of tiny_cfg(n_blocks=1): the THM1 checkpoint layout
THM_PARAMS_1_BLOCK = """
embedding.table 20x16
enc.0.left.attn.h0.wq 16x8
enc.0.left.attn.h0.wk 16x8
enc.0.left.attn.h0.wv 16x8
enc.0.left.attn.h1.wq 16x8
enc.0.left.attn.h1.wk 16x8
enc.0.left.attn.h1.wv 16x8
enc.0.left.attn.wo 16x16
enc.0.left.attn_norm.gain 16
enc.0.left.attn_norm.bias 16
enc.0.left.ffn.w1 16x32
enc.0.left.ffn.b1 32
enc.0.left.ffn.w2 32x16
enc.0.left.ffn.b2 16
enc.0.left.ffn_norm.gain 16
enc.0.left.ffn_norm.bias 16
enc.0.right.attn.h0.wq 16x8
enc.0.right.attn.h0.wk 16x8
enc.0.right.attn.h0.wv 16x8
enc.0.right.attn.h1.wq 16x8
enc.0.right.attn.h1.wk 16x8
enc.0.right.attn.h1.wv 16x8
enc.0.right.attn.wo 16x16
enc.0.right.attn_norm.gain 16
enc.0.right.attn_norm.bias 16
enc.0.right.ffn.w1 16x32
enc.0.right.ffn.b1 32
enc.0.right.ffn.w2 32x16
enc.0.right.ffn.b2 16
enc.0.right.ffn_norm.gain 16
enc.0.right.ffn_norm.bias 16
dec.0.self_attn.h0.wq 16x8
dec.0.self_attn.h0.wk 16x8
dec.0.self_attn.h0.wv 16x8
dec.0.self_attn.h1.wq 16x8
dec.0.self_attn.h1.wk 16x8
dec.0.self_attn.h1.wv 16x8
dec.0.self_attn.wo 16x16
dec.0.self_norm.gain 16
dec.0.self_norm.bias 16
dec.0.left.cross.h0.wq 16x8
dec.0.left.cross.h0.wk 16x8
dec.0.left.cross.h0.wv 16x8
dec.0.left.cross.h1.wq 16x8
dec.0.left.cross.h1.wk 16x8
dec.0.left.cross.h1.wv 16x8
dec.0.left.cross.wo 16x16
dec.0.left.cross_norm.gain 16
dec.0.left.cross_norm.bias 16
dec.0.left.ffn.w1 16x32
dec.0.left.ffn.b1 32
dec.0.left.ffn.w2 32x16
dec.0.left.ffn.b2 16
dec.0.left.ffn_norm.gain 16
dec.0.left.ffn_norm.bias 16
dec.0.right.cross.h0.wq 16x8
dec.0.right.cross.h0.wk 16x8
dec.0.right.cross.h0.wv 16x8
dec.0.right.cross.h1.wq 16x8
dec.0.right.cross.h1.wk 16x8
dec.0.right.cross.h1.wv 16x8
dec.0.right.cross.wo 16x16
dec.0.right.cross_norm.gain 16
dec.0.right.cross_norm.bias 16
dec.0.right.ffn.w1 16x32
dec.0.right.ffn.b1 32
dec.0.right.ffn.w2 32x16
dec.0.right.ffn.b2 16
dec.0.right.ffn_norm.gain 16
dec.0.right.ffn_norm.bias 16
dec.0.merge.w 32x16
dec.0.merge.b 16
dec.0.merge_norm.gain 16
dec.0.merge_norm.bias 16
dec.0.ffn.w1 16x32
dec.0.ffn.b1 32
dec.0.ffn.w2 32x16
dec.0.ffn.b2 16
dec.0.ffn_norm.gain 16
dec.0.ffn_norm.bias 16
enc.final_left_norm.gain 16
enc.final_left_norm.bias 16
enc.final_right_norm.gain 16
enc.final_right_norm.bias 16
dec.final_norm.gain 16
dec.final_norm.bias 16
"""


TRANSFORMER_PARAMS_1_BLOCK = """
embedding.table 20x16
enc.0.attn.h0.wq 16x8
enc.0.attn.h0.wk 16x8
enc.0.attn.h0.wv 16x8
enc.0.attn.h1.wq 16x8
enc.0.attn.h1.wk 16x8
enc.0.attn.h1.wv 16x8
enc.0.attn.wo 16x16
enc.0.attn_norm.gain 16
enc.0.attn_norm.bias 16
enc.0.ffn.w1 16x32
enc.0.ffn.b1 32
enc.0.ffn.w2 32x16
enc.0.ffn.b2 16
enc.0.ffn_norm.gain 16
enc.0.ffn_norm.bias 16
dec.0.self_attn.h0.wq 16x8
dec.0.self_attn.h0.wk 16x8
dec.0.self_attn.h0.wv 16x8
dec.0.self_attn.h1.wq 16x8
dec.0.self_attn.h1.wk 16x8
dec.0.self_attn.h1.wv 16x8
dec.0.self_attn.wo 16x16
dec.0.self_norm.gain 16
dec.0.self_norm.bias 16
dec.0.cross.h0.wq 16x8
dec.0.cross.h0.wk 16x8
dec.0.cross.h0.wv 16x8
dec.0.cross.h1.wq 16x8
dec.0.cross.h1.wk 16x8
dec.0.cross.h1.wv 16x8
dec.0.cross.wo 16x16
dec.0.cross_norm.gain 16
dec.0.cross_norm.bias 16
dec.0.ffn.w1 16x32
dec.0.ffn.b1 32
dec.0.ffn.w2 32x16
dec.0.ffn.b2 16
dec.0.ffn_norm.gain 16
dec.0.ffn_norm.bias 16
enc.final_norm.gain 16
enc.final_norm.bias 16
dec.final_norm.gain 16
dec.final_norm.bias 16
"""


@pytest.mark.parametrize(
    "arch, want",
    [("thm", THM_PARAMS_1_BLOCK), ("transformer", TRANSFORMER_PARAMS_1_BLOCK)],
    ids=["thm", "transformer"],
)
def test_parameter_names_order_and_shapes_are_pinned(arch, want):
    model = build_model(tiny_cfg(arch, n_blocks=1), Rng(0))
    got = [f"{n} {'x'.join(map(str, p.data.shape))}" for n, p in model.params.items()]
    assert got == want.strip().splitlines()
