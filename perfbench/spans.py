"""Layer tracing by attribute replacement.

``Tracer.install()`` swaps the public functions of the ``ccn`` layer modules
for timing wrappers, at every module attribute that names them, so no file
under ``src/`` changes; ``uninstall()`` puts the originals back. Tensor ops
are wrapped only at the names ``ccn.model`` and ``ccn.attention`` import,
which is where the models call them.

Spans are aggregated as they close instead of being stored one by one: a
traced ``decode-tiny`` pass opens hundreds of thousands of them. Each closing span
adds its duration to its name's total, its duration minus its children's to
its name's self time, and its duration to its parent's child time. Spans
opened while no other span is open are top-level, and their time is also
kept per phase (set-up or job). The job time that the top-level
``training.*`` phases do not cover is reported as ``trace.unaccounted_s``,
and the phases' set-up share as ``trace.setup_phases_s``, so that the
phases' totals minus that share plus ``trace.unaccounted_s`` equal the job
time.
"""

from __future__ import annotations

import os
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from ccn import (
    attention,
    bpe,
    checkpoint,
    data,
    evaluation,
    kernels,
    model,
    rng,
    tensor,
    training,
)

LAYER_MODULES = (rng, kernels, tensor, attention, model, data, bpe, checkpoint, training, evaluation)

# (module, function name, span name); wrapped at every layer-module attribute bound to it
FUNCTIONS = [
    (kernels, "softmax_rows_fwd", "kernels.softmax_rows_fwd"),
    (kernels, "softmax_rows_bwd", "kernels.softmax_rows_bwd"),
    (kernels, "layer_norm_fwd", "kernels.layer_norm_fwd"),
    (kernels, "layer_norm_bwd", "kernels.layer_norm_bwd"),
    (kernels, "adam_update", "kernels.adam_update"),
    (attention, "coattention", "attention.coattention"),
    (attention, "multi_head", "attention.multi_head"),
    (attention, "scaled_dot_attention", "attention.scaled_dot_attention"),
    (data, "make_batches", "data.make_batches"),
    (bpe, "learn_bpe", "bpe.learn"),
    (bpe, "apply_bpe", "bpe.apply"),
    (checkpoint, "save_checkpoint", "checkpoint.save"),
    (checkpoint, "load_checkpoint", "checkpoint.load"),
    (training, "train_step", "training.train_step"),
    (training, "valid_loss", "training.valid_loss"),
    (training, "evaluate_bleu", "training.evaluate_bleu"),
    (evaluation, "translate_corpus", "evaluation.translate_corpus"),
    (evaluation, "greedy_decode", "evaluation.greedy_decode"),
    (evaluation, "beam_search", "evaluation.beam_search"),
    (evaluation, "corpus_bleu", "evaluation.corpus_bleu"),
]

# (class, method name, span name)
METHODS = [
    (rng.Rng, "uniform", "rng.uniform"),
    (rng.Rng, "permutation", "rng.permutation"),
    (tensor.Tensor, "backward", "tensor.backward"),
    (model.Seq2SeqModel, "project_vocab", "model.project_vocab"),
    (model.Seq2SeqModel, "loss_on_batch", "model.loss_on_batch"),
    (model.Seq2SeqModel, "next_logprobs", "model.next_logprobs"),
    (model.CrossedCoAttentionModel, "encode", "model.encode"),
    (model.CrossedCoAttentionModel, "decode", "model.decode"),
    (model.TransformerModel, "encode", "model.encode"),
    (model.TransformerModel, "decode", "model.decode"),
    (training.TrainState, "save", "training.state_save"),
]

# calls made by run_experiment into other layers, traced a second time at the
# ccn.training attribute so the epoch split shows them as training phases
TRAINING_SITES = [("make_batches", "training.make_batches"), ("save_model", "training.save_model")]

# the tensor ops ccn.model and ccn.attention import
TENSOR_OPS = [
    "add", "apply_attention_mask", "concat", "cross_entropy", "dropout", "embedding",
    "layer_norm", "matmul", "relu", "scale", "softmax_rows", "transpose",
]

# time a span spends while the given span is open, reported under a third name
UNDER = {
    "model.loss_on_batch": ("training.train_step", "training.forward"),
    "tensor.backward": ("training.train_step", "training.backward"),
    "kernels.adam_update": ("training.train_step", "training.adam"),
}

STEP = "training.train_step"

# the top-level spans of run_experiment's epoch
PHASES = (
    "training.make_batches", "training.train_step", "training.valid_loss",
    "training.evaluate_bleu", "training.save_model", "training.state_save",
)


class Tracer:
    """Aggregated spans and counts for one traced pass."""

    def __init__(self):
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.top_level: dict[tuple[str, str], float] = defaultdict(float)  # (phase, span name)
        self._phase = ""
        self._open: Counter[str] = Counter()
        self._stack: list[list] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        """Time ``fn`` as span ``name``; ``after(args, result)`` records counts."""
        stack, is_open = self._stack, self._open
        under = UNDER.get(name)
        is_op = name.startswith("tensor.") and name.endswith("_fwd")

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            is_open[name] += 1
            if is_op and is_open[STEP]:
                self.counts["tensor.ops_in_step"] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                is_open[name] -= 1
                stack.pop()
                self.total[name] += elapsed
                self.self_time[name] += elapsed - frame[0]
                self.calls[name] += 1
                if stack:
                    stack[-1][0] += elapsed
                else:
                    self.top_level[self._phase, name] += elapsed
                if under is not None and is_open[under[0]]:
                    self.total[under[1]] += elapsed
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _replace(self, owner, attr: str, new):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        after = {
            "model.next_logprobs": self._count_positions,
            "evaluation.greedy_decode": self._count_emitted,
            "evaluation.beam_search": self._count_emitted,
            "data.make_batches": self._count_batches,
            "checkpoint.save": self._count_bytes,
        }
        for module, fname, span in FUNCTIONS:
            original = getattr(module, fname)
            wrapped = self.wrap(span, original, after.get(span))
            for site in LAYER_MODULES:
                if site.__dict__.get(fname) is original:
                    self._replace(site, fname, wrapped)
        for cls, mname, span in METHODS:
            self._replace(cls, mname, self.wrap(span, cls.__dict__[mname], after.get(span)))
        for fname, span in TRAINING_SITES:
            self._replace(training, fname, self.wrap(span, training.__dict__[fname]))
        for site in (model, attention):
            for op in TENSOR_OPS:
                if op in site.__dict__:
                    self._replace(site, op, self.wrap(f"tensor.{op}_fwd", site.__dict__[op]))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def phase(self, name: str):
        """Trace the block, keeping its top-level span time under phase ``name``."""
        self._phase = name
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- counts --------------------------------------------------------------

    def _count_positions(self, args, result):
        self.counts["evaluation.decoder_positions"] += len(args[2])

    def _count_emitted(self, args, result):
        self.counts["evaluation.tokens_emitted"] += len(result)

    def _count_batches(self, args, result):
        self.counts["data.batches"] += len(result)
        self.counts["data.live_slots"] += sum(b.n_tokens for b in result)
        self.counts["data.padded_slots"] += sum(b.src.size + b.tgt_out.size for b in result)

    def _count_bytes(self, args, result):
        self.counts["checkpoint.bytes"] += os.path.getsize(args[0])

    # -- results -------------------------------------------------------------

    def layer_metrics(self, job_s: float) -> dict[str, float]:
        """Per-layer metrics of this pass; ``job_s`` is the traced job's wall time."""
        t, st, n, c = self.total, self.self_time, self.calls, self.counts
        out: dict[str, float] = {}
        for name in (
            "training.train_step", "training.forward", "training.backward", "training.adam",
            "training.make_batches", "training.valid_loss", "training.evaluate_bleu",
            "training.save_model", "training.state_save", "tensor.backward",
            "attention.multi_head", "attention.coattention", "attention.scaled_dot_attention",
            "model.encode", "model.decode", "model.project_vocab", "model.loss_on_batch",
            "model.next_logprobs", "evaluation.greedy_decode", "evaluation.beam_search",
            "evaluation.corpus_bleu", "data.make_batches", "bpe.learn", "bpe.apply",
            "checkpoint.save", "checkpoint.load", "rng.uniform", "rng.permutation",
        ):
            out[f"{name}_s"] = t[name]
        for op in ("matmul", "softmax_rows", "layer_norm", "embedding", "dropout", "cross_entropy", "concat", "add"):
            out[f"tensor.{op}_fwd_s"] = t[f"tensor.{op}_fwd"]
        out["tensor.ops_fwd_self_s"] = sum(v for k, v in st.items() if k.startswith("tensor.") and k.endswith("_fwd"))
        out["tensor.ops_per_step"] = c["tensor.ops_in_step"] / n[STEP] if n[STEP] else 0.0
        for name in ("attention.coattention", "attention.multi_head", "attention.scaled_dot_attention"):
            out[f"{name}_self_s"] = st[name]
        for name in ("attention.multi_head", "attention.scaled_dot_attention", "model.next_logprobs",
                     "rng.uniform", "rng.permutation", "bpe.apply"):
            out[f"{name}_calls"] = n[name]
        for k in ("softmax_rows_fwd", "softmax_rows_bwd", "layer_norm_fwd", "layer_norm_bwd", "adam_update"):
            out[f"kernels.{k}_s"] = t[f"kernels.{k}"]
            out[f"kernels.{k}_calls"] = n[f"kernels.{k}"]
        emitted, positions = c["evaluation.tokens_emitted"], c["evaluation.decoder_positions"]
        out["evaluation.tokens_emitted"] = emitted
        out["evaluation.decoder_positions"] = positions
        out["evaluation.recompute_ratio"] = positions / emitted if emitted else 0.0
        out["data.batches"] = c["data.batches"]
        padded = c["data.padded_slots"]
        out["data.pad_efficiency"] = c["data.live_slots"] / padded if padded else 0.0
        out["checkpoint.bytes"] = c["checkpoint.bytes"]
        out["trace.job_s"] = job_s
        out["trace.unaccounted_s"] = job_s - sum(self.top_level["job", p] for p in PHASES)
        out["trace.setup_phases_s"] = sum(self.top_level["setup", p] for p in PHASES)
        return out
