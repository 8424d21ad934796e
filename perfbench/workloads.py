"""The workloads: set-up, one timed job, and the checks of its outputs.

``--seed`` makes the dev and test corpora, which are the inputs the
workloads decode. The training corpus and the program's own seed (model
init, batch order, dropout) are fixed by ``FIXED_SEED``, as a fixed dataset
and a seed given on the command line would be. Every seed then trains the
same model, and decodes inputs of the same distribution. With a training
corpus per seed, the one-epoch model of ``epoch-tiny`` stopped early on a
different share of sentences for each seed, and its BLEU evaluation time
moved by 30% from seed to seed.

``train-w256`` has no dev or test set: its seed makes the training corpus,
whose two full batches cover the same length halves for every seed.

Every workload measures a main and an alternative unit operation:

    workload      main operation          alternative operation
    epoch-tiny    THM train_step          evaluate_bleu of the dev or test set
    train-w256    THM train_step          transformer train_step
    decode-tiny   greedy sentence         beam-4 sentence
"""

from __future__ import annotations

import math
import shutil
import statistics
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from ccn import bpe, checkpoint, data, evaluation, model, training
from ccn.bpe import EOS_ID
from ccn.errors import CcnError
from ccn.rng import Rng

FIXED_SEED = 1


@dataclass
class Samples:
    """Timings, token counts and check outcomes of one pass."""

    main_op: list[float] = field(default_factory=list)
    alt_op: list[float] = field(default_factory=list)
    main_tokens: int = 0
    bleu_sentences: int = 0
    jobs: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def median(times: list[float]) -> float:
    """Median of the successful operations; 0 when all failed, which also fails the run."""
    return statistics.median(times) if times else 0.0


def rate(count: int, times: list[float]) -> float:
    return count / sum(times) if times else 0.0


@contextmanager
def timing(owner, attr: str, record):
    """Replace ``owner.attr`` by a timer calling ``record(seconds, args, result)``."""
    fn = owner.__dict__[attr]

    def timed(*args, **kwargs):
        start = perf_counter()
        result = fn(*args, **kwargs)
        record(perf_counter() - start, args, result)
        return result

    setattr(owner, attr, timed)
    try:
        yield
    finally:
        setattr(owner, attr, fn)


def _copy_corpora(seed: int):
    """Acceptance-7 shape: copy task over 20 word types, lengths 3-12."""
    make = data.gen_synthetic
    train = make("copy", 20, 2000, (3, 12), Rng(FIXED_SEED).fork("train"))
    dev = make("copy", 20, 100, (3, 12), Rng(seed).fork("dev"))
    test = make("copy", 20, 100, (3, 12), Rng(seed).fork("test"))
    return train, dev, test


def _decode_len(cfg: model.ModelConfig, dev: data.ParallelCorpus) -> int:
    # run_experiment's length cap
    return min(cfg.max_len - 1, 2 * max(len(t.split()) for t in dev.targets()) + 8)


def _same_bits(a: model.Seq2SeqModel, b: model.Seq2SeqModel) -> bool:
    return list(a.params) == list(b.params) and all(
        a.params[n].data.dtype == b.params[n].data.dtype
        and a.params[n].data.tobytes() == b.params[n].data.tobytes()
        for n in a.params
    )


class EpochTiny:
    """One run_experiment epoch of the tiny THM preset."""

    name = "epoch-tiny"
    hp = training.TrainParams(warmup=400, batch_tokens=512)

    def setup(self, seed: int, tmp: Path):
        train, dev, test = _copy_corpora(seed)
        vocab = bpe.learn_bpe(train.lines(), 28)
        cfg = replace(model.preset("tiny"), vocab_size=vocab.vocab_size)
        # warm-up on a throwaway model: one step and one sentence
        warm = model.build_model(cfg, Rng(FIXED_SEED))
        batches = data.make_batches(train, vocab, self.hp.batch_tokens, Rng(FIXED_SEED).fork("warm-up"))
        training.train_step(warm, batches[0], training.TrainState.for_model(warm), self.hp, Rng(FIXED_SEED))
        evaluation.translate_corpus(warm, vocab, dev.sources()[:1], max_len=_decode_len(cfg, dev))
        return {"cfg": cfg, "bundle": training.DataBundle(train, dev, test, vocab), "tmp": tmp}

    def job(self, st, out: Samples) -> float:
        run_dir = Path(tempfile.mkdtemp(dir=st["tmp"]))
        st["run_dir"], st["saved"], st["steps"] = run_dir, None, 0

        def step(dt, args, loss):
            out.main_op.append(dt)
            out.main_tokens += args[1].n_tokens
            st["steps"] += 1
            out.check(math.isfinite(loss), f"step {st['steps']}: loss {loss}")

        def scored(dt, args, bleu):
            out.alt_op.append(dt)
            out.bleu_sentences += len(args[1])
            out.attempted += len(args[1])

        def saved(dt, args, result):
            st["saved"] = (args[0], args[1])

        start = perf_counter()
        try:
            with timing(training, "train_step", step), timing(training, "evaluate_bleu", scored), \
                    timing(training, "save_model", saved):
                training.run_experiment(st["cfg"], st["bundle"], 1, run_dir, FIXED_SEED, self.hp)
        except CcnError as exc:  # DivergenceError included: counted, not raised
            out.check(False, f"run_experiment: {type(exc).__name__}: {exc}")
        return perf_counter() - start

    def check(self, st, out: Samples):
        run_dir = st["run_dir"]
        try:
            rows = training.RunRecord.from_log((run_dir / "loss.log").read_text(encoding="utf-8")).rows
        except (OSError, ValueError, CcnError) as exc:
            rows = []
            out.check(False, f"loss.log does not parse: {exc}")
        else:
            out.check(len(rows) == 1 and all(math.isfinite(v) for v in rows[0][1:]), f"loss.log rows {rows}")
        if rows:
            out.check(all(0.0 <= bleu <= 100.0 for bleu in rows[0][3:]), f"BLEU out of [0, 100]: {rows[0]}")
        if st["saved"] is None:
            out.check(False, "no checkpoint written")
        else:
            path, trained = st["saved"]
            loaded, step = checkpoint.model_from_checkpoint(path)
            out.check(
                loaded.config == trained.config and step == st["steps"] and _same_bits(loaded, trained),
                f"{path.name} does not reload bit-exact",
            )
        shutil.rmtree(run_dir)

    def named(self, out: Samples) -> dict:
        return {
            "epoch_s": (statistics.median(out.jobs), "s"),
            "train_tok_s": (rate(out.main_tokens, out.main_op), "tok/s"),
            "step_ms_p50": (1e3 * median(out.main_op), "ms"),
            "greedy_sent_s": (rate(out.bleu_sentences, out.alt_op), "sent/s"),
        }


class TrainW256:
    """A fixed sequence of width-256 train steps of THM and the transformer on the same batches."""

    name = "train-w256"
    hp = training.TrainParams(batch_tokens=2048)
    full_batches = 2  # 195 pairs of 8-16 words fill two batches and part of a third
    warm_rows = 8

    def setup(self, seed: int, tmp: Path):
        corpus = data.gen_synthetic("reverse", 700, 195, (8, 16), Rng(seed).fork("train"))
        vocab = bpe.learn_bpe(corpus.lines(), 730)
        batches = data.make_batches(corpus, vocab, self.hp.batch_tokens, Rng(seed).fork("batches"), swap_prob=0.5)
        full = [b for b in batches if b.n_tokens > 0.9 * self.hp.batch_tokens]
        if len(full) != self.full_batches:
            raise RuntimeError(f"{len(full)} full batches, expected {self.full_batches}")
        rest = min(batches, key=lambda b: b.n_tokens)
        warm = data.Batch(*(getattr(rest, f.name)[: self.warm_rows] for f in fields(data.Batch)))
        runs = []
        for arch, swap in ((model.ARCH_THM, 0.5), (model.ARCH_TRANSFORMER, 0.0)):
            cfg = model.ModelConfig(arch=arch, d_model=256, n_heads=8, n_blocks=2, d_ff=1024,
                                    vocab_size=vocab.vocab_size, max_len=64, swap_prob=swap)
            m = model.build_model(cfg, Rng(FIXED_SEED))
            state = training.TrainState.for_model(m)
            training.train_step(m, warm, state, self.hp, Rng(FIXED_SEED).fork("warm-up"))
            runs.append((m, state))
        return {"batches": full, "runs": runs}

    def prime(self, st):
        """Step each model once on the full batch with the most padded slots.

        The first full-size step of a process allocates the largest buffers,
        and can be slower than later ones; this keeps it out of the job. It
        is not timed, so that the three set-ups of a run do not cost three
        of these steps.
        """
        warm = max(st["batches"], key=lambda b: b.src.size + b.tgt_out.size)
        for m, state in st["runs"]:
            training.train_step(m, warm, state, self.hp, Rng(FIXED_SEED).fork("prime"))

    def job(self, st, out: Samples) -> float:
        runs = [(m, state, Rng(FIXED_SEED).fork(("dropout", state.step)), times)
                for (m, state), times in zip(st["runs"], (out.main_op, out.alt_op))]
        start = perf_counter()
        # interleaved, so that both models sample the same stretch of machine time
        for b in st["batches"]:
            for m, state, dropout, times in runs:
                t0 = perf_counter()
                try:
                    loss = training.train_step(m, b, state, self.hp, dropout)
                except CcnError as exc:  # DivergenceError included: counted, not raised
                    out.check(False, f"{m.config.arch} step {state.step}: {type(exc).__name__}: {exc}")
                    continue
                times.append(perf_counter() - t0)
                out.check(math.isfinite(loss), f"{m.config.arch} step {state.step}: loss {loss}")
        out.main_tokens += sum(b.n_tokens for b in st["batches"])
        return perf_counter() - start

    def check(self, st, out: Samples):
        for m, state in st["runs"]:
            out.check(all(np.isfinite(p.data).all() for p in m.params.values()),
                      f"{m.config.arch}: non-finite parameter after step {state.step}")

    def named(self, out: Samples) -> dict:
        return {
            "train_tok_s": (rate(out.main_tokens, out.main_op), "tok/s"),
            "step_ms_p50": (1e3 * median(out.main_op), "ms"),
            "baseline_train_tok_s": (rate(out.main_tokens, out.alt_op), "tok/s"),
            "baseline_step_ms_p50": (1e3 * median(out.alt_op), "ms"),
        }


class DecodeTiny:
    """Checkpoint-loaded tiny THM: greedy over the dev set, beam 4 over a subset."""

    name = "decode-tiny"
    beam_every = 10  # beam 4 on every tenth dev sentence
    beam1_subset = slice(0, 3)

    def setup(self, seed: int, tmp: Path):
        train, dev, _ = _copy_corpora(seed)
        vocab = bpe.learn_bpe(train.lines(), 28)
        cfg = replace(model.preset("tiny"), vocab_size=vocab.vocab_size)
        seeded = model.build_model(cfg, Rng(FIXED_SEED))
        path = tmp / f"decode-tiny-{seed}.ckpt"
        checkpoint.save_model(path, seeded)
        loaded, _ = checkpoint.model_from_checkpoint(path)
        path.unlink()
        max_len = _decode_len(cfg, dev)
        evaluation.translate_corpus(loaded, vocab, dev.sources()[:1], max_len=max_len)
        return {"seeded": seeded, "model": loaded, "bpe": vocab, "dev": dev, "max_len": max_len}

    def _decode(self, st, sentence: str, beam: int, times: list[float], out: Samples) -> str | None:
        out.attempted += 1
        start = perf_counter()
        try:
            (hyp,) = evaluation.translate_corpus(st["model"], st["bpe"], [sentence], max_len=st["max_len"], beam=beam)
        except CcnError as exc:
            out.failed += 1
            out.failures.append(f"beam {beam} decode of {sentence!r}: {type(exc).__name__}: {exc}")
            return None
        times.append(perf_counter() - start)
        return hyp

    def job(self, st, out: Samples) -> float:
        # interleaved, so that both operations sample the same stretch of machine time
        st["greedy"], st["beam4"] = [], []
        start = perf_counter()
        for i, s in enumerate(st["dev"].sources()):
            st["greedy"].append(self._decode(st, s, 1, out.main_op, out))
            if i % self.beam_every == 0:
                st["beam4"].append(self._decode(st, s, 4, out.alt_op, out))
        return perf_counter() - start

    def check(self, st, out: Samples):
        m, vocab, dev = st["model"], st["bpe"], st["dev"]
        out.check(_same_bits(st["seeded"], m), "checkpoint does not reload bit-exact")
        for s in dev.sources()[self.beam1_subset]:
            ids = bpe.apply_bpe(vocab, s) + [EOS_ID]
            greedy = evaluation.greedy_decode(m, ids, st["max_len"])
            beam1 = evaluation.beam_search(m, ids, 1, st["max_len"])
            out.check(greedy == beam1, f"greedy {greedy} != beam-1 {beam1} for {s!r}")
        refs = dev.targets()
        for label, hyps, targets in (("greedy", st["greedy"], refs), ("beam-4", st["beam4"], refs[:: self.beam_every])):
            if None not in hyps:
                bleu = evaluation.corpus_bleu(hyps, targets)
                out.check(0.0 <= bleu <= 100.0, f"{label} BLEU {bleu} out of [0, 100]")

    def named(self, out: Samples) -> dict:
        p90 = statistics.quantiles(out.main_op, n=10)[-1] if len(out.main_op) > 1 else median(out.main_op)
        return {
            "greedy_sent_s": (rate(len(out.main_op), out.main_op), "sent/s"),
            "greedy_sent_ms_p50": (1e3 * median(out.main_op), "ms"),
            "greedy_sent_ms_p90": (1e3 * p90, "ms"),
            "beam4_sent_s": (rate(len(out.alt_op), out.alt_op), "sent/s"),
        }


WORKLOADS = {w.name: w for w in (EpochTiny(), TrainW256(), DecodeTiny())}
