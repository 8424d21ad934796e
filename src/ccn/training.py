"""Optimization loop: warmup/inverse-sqrt schedule, Adam updates (one pass
over the model's flat parameter, gradient and moment arenas per step),
per-epoch checkpoints, the dev-BLEU selection rule, and the top-k selection
metric.

Per-epoch randomness (batch order, corruption, dropout) is derived from
(seed, epoch) alone, so resuming from the checkpoint written at any epoch
boundary reproduces the remaining loss log bit for bit.
"""

from __future__ import annotations

import ctypes
import functools
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import kernels
from .bpe import BpeModel
from .checkpoint import model_from_checkpoint, save_model
from .data import Batch, ParallelCorpus, make_batches
from .errors import DataError, DivergenceError, atomic_write, read_text
from .evaluation import corpus_bleu, translate_corpus
from .model import ARCH_THM, ModelConfig, Seq2SeqModel, build_model
from .rng import Rng
from .tensor import no_grad


def lr_at(step: int, d_model: int, warmup: int) -> float:
    """d^-0.5 * min(step^-0.5, step * warmup^-1.5); linear warmup then inverse sqrt."""
    if step < 1:
        raise ValueError(f"schedule step must be >= 1, got {step}")
    return d_model**-0.5 * min(step**-0.5, step * warmup**-1.5)


@dataclass
class TrainParams:
    beta1: float = 0.9
    beta2: float = 0.98
    eps: float = 1e-9
    warmup: int = 4000
    batch_tokens: int = 6528
    accum_steps: int = 1
    lr_scale: float = 1.0


@dataclass
class TrainState:
    """Step counters and the Adam moments, each moment one flat buffer in
    the model's arena layout (``m_arena``, ``v_arena``) with ``m`` and ``v``
    its per-name views. ``for_model`` and ``load`` make the only two kinds:
    zero moments, or the moments of a state file read straight into the
    views."""

    m_arena: np.ndarray
    v_arena: np.ndarray
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0
    epoch: int = 0
    best_dev_bleu: float = -1.0

    @classmethod
    def for_model(cls, model: Seq2SeqModel) -> "TrainState":
        """Zero moments in ``model``'s arena layout."""
        m, v = np.zeros_like(model.param_arena), np.zeros_like(model.param_arena)
        return cls(m=model.arena_views(m), v=model.arena_views(v), m_arena=m, v_arena=v)

    def save(self, path):
        arrays = {f"m/{n}": a for n, a in self.m.items()}
        arrays |= {f"v/{n}": a for n, a in self.v.items()}
        arrays["meta"] = np.array([self.step, self.epoch, self.best_dev_bleu], dtype=np.float64)
        with atomic_write(path) as fh:
            np.savez(fh, **arrays)

    @classmethod
    def load(cls, path, model: Seq2SeqModel) -> "TrainState":
        """Read a state file into a ``for_model(model)`` state, copying each
        stored moment into its arena view as it is read, so only one stored
        array is held at a time. A truncated or malformed file, or one whose
        moments do not hold exactly the names and shapes of ``model.params``,
        raises DataError naming it and the first name (``m`` before ``v``)
        that differs."""
        state = cls.for_model(model)
        try:
            with np.load(path) as zf:
                meta = zf["meta"].astype(np.float64)
                finite = meta.shape == (3,) and np.isfinite(meta).all()
                if not (finite and meta[0] >= 0 and meta[1] >= 0 and meta[0] % 1 == meta[1] % 1 == 0):
                    raise DataError(
                        f"{path}: malformed training state: meta {meta.ravel()[:4].tolist()} of shape "
                        f"{meta.shape} is not a whole non-negative step and epoch and a finite best dev BLEU"
                    )
                for kind, views in (("m", state.m), ("v", state.v)):
                    stored = {k[2:] for k in zf.files if k.startswith(f"{kind}/")}
                    for name in sorted(stored | views.keys()):
                        a = zf[f"{kind}/{name}"] if name in stored else None
                        got = None if a is None else a.shape
                        want = views[name].shape if name in views else None
                        if got != want:
                            state_has, model_has = (
                                "no such array" if s is None else f"shape {s}" for s in (got, want)
                            )
                            raise DataError(
                                f"{path}: training state does not match the model: "
                                f"{kind}/{name} has {state_has} in the state, {model_has} in the model"
                            )
                        views[name][...] = a
        except (zipfile.BadZipFile, EOFError, KeyError, ValueError, OSError, RuntimeError) as exc:
            # some corrupt zip headers raise OSError or NotImplementedError (a RuntimeError)
            raise DataError(f"{path}: not a readable training state: {exc}") from None
        state.step, state.epoch, state.best_dev_bleu = int(meta[0]), int(meta[1]), float(meta[2])
        return state


# glibc's mallopt parameters, and the largest mmap threshold it accepts on
# a 64-bit build (32 MiB)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_MAX = 32 << 20


@functools.cache
def _keep_freed_heap() -> None:
    """Ask glibc, once per process, to keep the memory a training step frees.

    By default glibc returns the tape's freed activations to the OS after
    every backward pass, and the next forward pass faults them back in page
    by page. Blocks up to 32 MiB then come from the heap, and the heap is
    never trimmed. Both thresholds are set, because any mallopt call turns
    off glibc's adaptive mmap threshold. Only ``train_step`` calls this, so
    a process that only decodes keeps glibc's defaults and its smaller
    footprint. Without glibc's ``mallopt`` it does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX)
    mallopt(_M_TRIM_THRESHOLD, -1)


def train_step(
    model: Seq2SeqModel,
    batches: Batch | list[Batch],
    state: TrainState,
    hp: TrainParams,
    rng: Rng,
) -> float:
    """One optimizer update over a batch (or accumulated micro-batches).

    The gradients of micro-batches add up in the model's gradient arena,
    which is scaled to their mean in place; Adam is one pass over the
    arenas. ``state`` must come from ``TrainState.for_model(model)`` or
    ``TrainState.load(path, model)``.
    """
    _keep_freed_heap()
    micro = [batches] if isinstance(batches, Batch) else list(batches)
    model.zero_grads()
    total_loss, total_tokens = 0.0, 0
    for b in micro:
        loss = model.loss_on_batch(b, rng)
        value = float(loss.data)
        if not np.isfinite(value):
            raise DivergenceError(f"non-finite loss at step {state.step + 1}", step=state.step + 1)
        loss.backward()
        total_loss += value * b.n_tokens
        total_tokens += b.n_tokens
    state.step += 1
    lr = hp.lr_scale * lr_at(state.step, model.config.d_model, hp.warmup)
    if len(micro) > 1:
        model.grad_arena *= 1.0 / len(micro)
    kernels.adam_update(
        model.param_arena, model.grad_arena, state.m_arena, state.v_arena,
        lr, hp.beta1, hp.beta2, hp.eps, state.step,
    )
    return total_loss / total_tokens


# ---------------------------------------------------------------------------
# run records and model selection
# ---------------------------------------------------------------------------


@dataclass
class RunRecord:
    """Per-epoch (train_loss, valid_loss, dev_bleu, test_bleu) rows, epochs from 1."""

    rows: list[tuple[int, float, float, float, float]] = field(default_factory=list)

    def add(self, epoch, train_loss, valid_loss, dev_bleu, test_bleu):
        if epoch != len(self.rows) + 1:
            raise DataError(f"epochs must be contiguous from 1, got {epoch} after {len(self.rows)}")
        self.rows.append((epoch, train_loss, valid_loss, dev_bleu, test_bleu))

    def dev_bleus(self):
        return [r[3] for r in self.rows]

    def test_bleus(self):
        return [r[4] for r in self.rows]

    @staticmethod
    def log_row(epoch, train_loss, valid_loss, dev_bleu, test_bleu) -> str:
        """One loss-log line: the epoch, then each number to 6 significant digits."""
        return f"{epoch} {train_loss:.6g} {valid_loss:.6g} {dev_bleu:.6g} {test_bleu:.6g}\n"

    def to_log(self) -> str:
        return "".join(self.log_row(*row) for row in self.rows)

    @classmethod
    def from_log(cls, text: str, path=None) -> "RunRecord":
        """Parse ``to_log`` text; a malformed or out-of-order row raises
        DataError naming ``path`` (when given) and the line."""
        rec = cls()
        for n, line in enumerate(text.splitlines(), 1):
            if not line.strip():
                continue
            try:
                e, t, v, d, b = line.split()
                rec.add(int(e), float(t), float(v), float(d), float(b))
            except (ValueError, DataError) as exc:
                where = f"{path}: line {n}" if path is not None else f"line {n}"
                raise DataError(f"{where}: malformed loss-log row {line!r}: {exc}") from None
        return rec


def select_best(records: RunRecord) -> int:
    """Epoch with the highest dev BLEU; ties go to the earliest epoch."""
    if not records.rows:
        raise DataError("cannot select from an empty run record")
    dev = records.dev_bleus()
    return int(np.argmax(dev)) + 1


def topk_selection(records: RunRecord, k: int) -> bool:
    """Whether the dev-selected epoch ranks in the top k by test BLEU.

    Competition ranking: tied test scores share the better rank.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    test = records.test_bleus()
    chosen = test[select_best(records) - 1]
    rank = 1 + sum(1 for t in test if t > chosen)
    return rank <= k


# ---------------------------------------------------------------------------
# full experiment driver
# ---------------------------------------------------------------------------


@dataclass
class DataBundle:
    train: ParallelCorpus
    dev: ParallelCorpus
    test: ParallelCorpus
    bpe: BpeModel


def _ckpt_path(out_dir: Path, epoch: int) -> Path:
    return out_dir / f"epoch{epoch:03d}.ckpt"


def _state_path(out_dir: Path, epoch: int) -> Path:
    return out_dir / f"epoch{epoch:03d}.state.npz"


def valid_loss(model: Seq2SeqModel, batches: list[Batch]) -> float:
    total, tokens = 0.0, 0
    with no_grad():
        for b in batches:
            total += float(model.loss_on_batch(b).data) * b.n_tokens
            tokens += b.n_tokens
    return total / tokens


def evaluate_bleu(model: Seq2SeqModel, corpus: ParallelCorpus, bpe: BpeModel, max_len: int) -> float:
    hyps = translate_corpus(model, bpe, corpus.sources(), max_len=max_len)
    return corpus_bleu(hyps, corpus.targets())


def run_experiment(
    config: ModelConfig,
    data: DataBundle,
    epochs: int,
    out_dir,
    seed: int,
    hp: TrainParams | None = None,
    resume: bool = False,
    quiet: bool = True,
) -> RunRecord:
    """Train, checkpoint, and score one model; append one loss-log line per epoch.

    With ``resume=True`` the run continues after the last epoch that has a
    checkpoint, a state file and a loss-log row in ``out_dir``; log rows
    beyond that epoch are dropped. A state file whose step or epoch is not
    its checkpoint's raises DataError naming both files. An epoch writes its
    log row last, so a crash before that append leaves the epoch to be run
    again.
    """
    hp = hp or TrainParams()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    log_path = out_dir / "loss.log"
    base_rng = Rng(seed)

    start_epoch = 0
    if resume and log_path.exists():
        text = read_text(log_path)
        # a torn last row does not count
        records = RunRecord.from_log(text[: text.rfind("\n") + 1], log_path)
        saved = (e for e in range(1, len(records.rows) + 1) if _ckpt_path(out_dir, e).exists())
        start_epoch = max((e for e in saved if _state_path(out_dir, e).exists()), default=0)
    if start_epoch:
        ckpt_path, state_path = _ckpt_path(out_dir, start_epoch), _state_path(out_dir, start_epoch)
        model, step = model_from_checkpoint(ckpt_path)
        state = TrainState.load(state_path, model)
        if (state.step, state.epoch) != (step, start_epoch):
            raise DataError(
                f"{state_path}: training state at step {state.step}, epoch {state.epoch} does not "
                f"belong to checkpoint {ckpt_path} at step {step}, epoch {start_epoch}"
            )
        records.rows = records.rows[:start_epoch]
        with atomic_write(log_path, text=True) as fh:
            fh.write(records.to_log())
    else:
        model = build_model(config, base_rng)
        state = TrainState.for_model(model)
        records = RunRecord()
        log_path.write_text("", encoding="utf-8")

    swap = config.swap_prob if config.arch == ARCH_THM else 0.0
    eval_batches = make_batches(
        data.dev, data.bpe, hp.batch_tokens, Rng(seed).fork("dev"), swap_prob=0.0, shuffle=False
    )
    decode_len = min(config.max_len - 1, 2 * max(len(t.split()) for t in data.dev.targets()) + 8)

    for epoch in range(start_epoch + 1, epochs + 1):
        epoch_rng = base_rng.fork(("epoch", epoch))
        batches = make_batches(
            data.train, data.bpe, hp.batch_tokens, epoch_rng.fork("batches"), swap_prob=swap
        )
        dropout_rng = epoch_rng.fork("dropout")
        losses, weights = [], []
        for i in range(0, len(batches), hp.accum_steps):
            group = batches[i : i + hp.accum_steps]
            loss = train_step(model, group if len(group) > 1 else group[0], state, hp, dropout_rng)
            losses.append(loss)
            weights.append(sum(b.n_tokens for b in group))
        train_loss = float(np.average(losses, weights=weights))
        vloss = valid_loss(model, eval_batches)
        dev_bleu = evaluate_bleu(model, data.dev, data.bpe, decode_len)
        test_bleu = evaluate_bleu(model, data.test, data.bpe, decode_len)
        state.epoch = epoch
        state.best_dev_bleu = max(state.best_dev_bleu, dev_bleu)
        records.add(epoch, train_loss, vloss, dev_bleu, test_bleu)
        save_model(_ckpt_path(out_dir, epoch), model, step=state.step)
        state.save(_state_path(out_dir, epoch))
        with open(log_path, "a", encoding="utf-8") as fh:
            fh.write(records.log_row(*records.rows[-1]))
        if not quiet:
            print(
                f"epoch {epoch}: train {train_loss:.4f} valid {vloss:.4f} "
                f"dev BLEU {dev_bleu:.2f} test BLEU {test_bleu:.2f}"
            )
    return records
