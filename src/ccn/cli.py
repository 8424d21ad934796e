"""Command-line entry point.

Exit codes: 0 success, 1 usage error, 2 data/shape error, 3 divergence.
Stochastic commands require --seed. A --config file supplies key=value
defaults whose keys mirror the flag names (without the leading dashes);
explicit flags win over the file.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .bpe import learn_bpe, apply_bpe, load_bpe, save_bpe
from .checkpoint import model_from_checkpoint
from .data import gen_synthetic, length_filter, load_corpus, make_batches, save_corpus
from .errors import CcnError, DivergenceError, atomic_write, read_text
from .evaluation import corpus_bleu, translate_corpus
from .gradcheck import finite_diff_check
from .model import PRESETS, build_model, count_parameters, preset
from .rng import Rng
from .training import DataBundle, RunRecord, TrainParams, run_experiment, select_best, topk_selection

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_DIVERGED = 0, 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


# flag table per command: (name, kwargs); config-file keys mirror flag names
_PRESET_NAMES = sorted(PRESETS)

_COMMANDS: dict[str, list[tuple[str, dict]]] = {
    "make-synth": [
        ("--task", dict(choices=["copy", "reverse", "sort"], default="copy", help="synthetic transform")),
        ("--seed", dict(type=int, required=True, help="rng seed (required)")),
        ("--out", dict(required=True, help="output directory for train/dev/test files")),
        ("--vocab-size", dict(type=int, default=20, help="distinct tokens")),
        ("--n-train", dict(type=int, default=2000, help="training pairs")),
        ("--n-dev", dict(type=int, default=200, help="dev pairs")),
        ("--n-test", dict(type=int, default=200, help="test pairs")),
        ("--min-len", dict(type=int, default=3, help="shortest sentence")),
        ("--max-len", dict(type=int, default=12, help="longest sentence")),
    ],
    "learn-bpe": [
        ("--src", dict(required=True, help="source side of the corpus")),
        ("--tgt", dict(required=True, help="target side of the corpus")),
        ("--vocab-size", dict(type=int, required=True, help="total vocabulary size")),
        ("--out", dict(required=True, help="directory for the bpe.vocab file")),
    ],
    "apply-bpe": [
        ("--bpe", dict(required=True, help="learned BPE vocabulary file")),
        ("--src", dict(required=True, help="text file to segment")),
        ("--out", dict(default=None, help="write segmented text here instead of stdout")),
    ],
    "train": [
        ("--preset", dict(choices=_PRESET_NAMES, required=True, help="model configuration")),
        ("--seed", dict(type=int, required=True, help="rng seed (required)")),
        ("--epochs", dict(type=int, required=True, help="training epochs")),
        ("--out", dict(required=True, help="run directory: checkpoints and loss.log")),
        ("--src", dict(required=True, help="training source file")),
        ("--tgt", dict(required=True, help="training target file")),
        ("--dev-src", dict(required=True, help="dev source file")),
        ("--dev-tgt", dict(required=True, help="dev target file")),
        ("--test-src", dict(required=True, help="test source file")),
        ("--test-tgt", dict(required=True, help="test target file")),
        ("--bpe", dict(required=True, help="learned BPE vocabulary file")),
        ("--batch-tokens", dict(type=int, default=None, help="per-batch token budget")),
        ("--warmup", dict(type=int, default=None, help="schedule warmup steps")),
        ("--lr-scale", dict(type=float, default=1.0, help="multiplier on the schedule")),
        ("--accum", dict(type=int, default=1, help="gradient accumulation steps")),
        ("--filter-max-len", dict(type=int, default=250, help="drop training pairs longer than this")),
        ("--filter-ratio", dict(type=float, default=1.5, help="drop pairs with a worse length ratio")),
        ("--resume", dict(action="store_true", help="continue after the last finished epoch")),
        ("--quiet", dict(action="store_true", help="suppress per-epoch progress lines")),
    ],
    "translate": [
        ("--ckpt", dict(required=True, help="model checkpoint")),
        ("--bpe", dict(required=True, help="learned BPE vocabulary file")),
        ("--src", dict(required=True, help="source sentences, one per line")),
        ("--out", dict(default=None, help="write translations here instead of stdout")),
        ("--beam", dict(type=int, default=1, help="beam width (1 = greedy)")),
        ("--alpha", dict(type=float, default=0.0, help="length-penalty exponent")),
        ("--max-len", dict(type=int, default=64, help="decoding length cap")),
    ],
    "bleu": [
        ("--hyp", dict(required=True, help="hypothesis file")),
        ("--ref", dict(required=True, help="reference file")),
    ],
    "gradcheck": [
        ("--preset", dict(choices=_PRESET_NAMES, default="tiny", help="model configuration")),
        ("--seed", dict(type=int, required=True, help="rng seed (required)")),
        ("--entries", dict(type=int, default=4, help="sampled entries per parameter")),
        ("--exhaustive", dict(action="store_true", help="check every entry (slow)")),
        ("--tol", dict(type=float, default=1e-4, help="max relative error allowed")),
    ],
    "param-count": [
        ("--preset", dict(choices=_PRESET_NAMES, required=True, help="model configuration")),
        ("--vocab", dict(type=int, default=None, help="override the preset vocabulary size")),
    ],
    "select-model": [
        ("--log", dict(required=True, help="loss log written by train")),
        ("--k", dict(type=int, default=None, help="also report top-k selection at this k")),
    ],
    "plot-loss": [
        ("--log", dict(required=True, help="loss log written by train")),
        ("--out", dict(required=True, help="directory for loss.dat / loss.gp")),
    ],
}

def build_parser() -> _Parser:
    parser = _Parser(prog="ccn", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command", parser_class=_Parser)
    for name, flags in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="key=value defaults file; flags override")
        for flag, kwargs in flags:
            kwargs = dict(kwargs)
            if kwargs.pop("required", False):
                kwargs["default"] = None
                kwargs["help"] = kwargs.get("help", "") + " [required]"
            p.add_argument(flag, **kwargs)
    return parser


_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _config_value(spec: dict, value: str):
    """A config-file value converted and checked as its flag's would be."""
    if spec.get("action") == "store_true":
        if value.lower() not in _BOOLEANS:
            raise ValueError(f"{value!r} is not one of {'/'.join(_BOOLEANS)}")
        return _BOOLEANS[value.lower()]
    converted = spec.get("type", str)(value)
    if "choices" in spec and converted not in spec["choices"]:
        raise ValueError(f"{value!r} is not one of {', '.join(map(str, spec['choices']))}")
    return converted


def _apply_config_file(command: str, args: argparse.Namespace, argv: list[str]):
    """Fill flags the user did not pass from the key=value config file."""
    if not args.config:
        return
    known = {flag.lstrip("-"): flag for flag, _ in _COMMANDS[command]}
    given = {a.split("=")[0].lstrip("-") for a in argv if a.startswith("--")}
    text = read_text(args.config)
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or key not in known:
            raise ValueError(f"{args.config}:{lineno}: unknown config key {key!r}")
        if key in given:
            continue
        spec = dict(_COMMANDS[command])[known[key]]
        try:
            setattr(args, key.replace("-", "_"), _config_value(spec, value.strip()))
        except ValueError as exc:
            raise ValueError(f"{args.config}:{lineno}: bad value for {key}: {exc}") from None


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------


def _cmd_make_synth(args) -> int:
    rng = Rng(args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sizes = {"train": args.n_train, "dev": args.n_dev, "test": args.n_test}
    for split, n in sizes.items():
        corpus = gen_synthetic(
            args.task, args.vocab_size, n, (args.min_len, args.max_len), rng.fork(split)
        )
        save_corpus(corpus, out / f"{split}.src", out / f"{split}.tgt")
    print(f"wrote {sum(sizes.values())} pairs under {out}")
    return EXIT_OK


def _cmd_learn_bpe(args) -> int:
    corpus = load_corpus(args.src, args.tgt)
    model = learn_bpe(corpus.lines(), args.vocab_size)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_bpe(model, out / "bpe.vocab")
    print(f"learned {len(model.merges)} merges, vocab {model.vocab_size} -> {out / 'bpe.vocab'}")
    return EXIT_OK


def _cmd_apply_bpe(args) -> int:
    model = load_bpe(args.bpe)
    lines = read_text(args.src).splitlines()
    segmented = [
        " ".join(model.id_to_token[i] for i in apply_bpe(model, line)) for line in lines
    ]
    text = "\n".join(segmented) + "\n"
    if args.out:
        with atomic_write(args.out, text=True) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


_TRAIN_DEFAULTS = {
    # preset -> (warmup, batch_tokens); desk-scale presets ramp much faster
    "tiny": (400, 512),
    "transformer-tiny": (400, 512),
}


def _cmd_train(args) -> int:
    bpe = load_bpe(args.bpe)
    config = preset(args.preset, vocab_size=bpe.vocab_size)
    warmup_default, batch_default = _TRAIN_DEFAULTS.get(args.preset, (4000, 6528))
    hp = TrainParams(
        warmup=args.warmup or warmup_default,
        batch_tokens=args.batch_tokens or batch_default,
        accum_steps=args.accum,
        lr_scale=args.lr_scale,
    )
    train_corpus = length_filter(
        load_corpus(args.src, args.tgt), max_len=args.filter_max_len, ratio_limit=args.filter_ratio
    )
    data = DataBundle(
        train=train_corpus,
        dev=load_corpus(args.dev_src, args.dev_tgt),
        test=load_corpus(args.test_src, args.test_tgt),
        bpe=bpe,
    )
    records = run_experiment(
        config,
        data,
        epochs=args.epochs,
        out_dir=args.out,
        seed=args.seed,
        hp=hp,
        resume=args.resume,
        quiet=args.quiet,
    )
    best = select_best(records)
    print(f"finished {len(records.rows)} epochs; best dev BLEU at epoch {best}")
    return EXIT_OK


def _cmd_translate(args) -> int:
    model, _ = model_from_checkpoint(args.ckpt)
    bpe = load_bpe(args.bpe)
    lines = read_text(args.src).splitlines()
    hyps = translate_corpus(
        model, bpe, lines, max_len=args.max_len, beam=args.beam, length_penalty_alpha=args.alpha
    )
    text = "\n".join(hyps) + "\n"
    if args.out:
        with atomic_write(args.out, text=True) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_bleu(args) -> int:
    hyp = read_text(args.hyp).splitlines()
    ref = read_text(args.ref).splitlines()
    print(f"{corpus_bleu(hyp, ref):.2f}")
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    # gradient checking always runs in float64 on a reduced copy of the preset
    config = replace(
        preset(args.preset), dropout_p=0.0, swap_prob=0.0, vocab_size=16, max_len=16
    )
    rng = Rng(args.seed)
    model = build_model(config, rng, dtype=np.float64)
    corpus = gen_synthetic("copy", 12, 2, (3, 5), rng.fork("data"))
    bpe = learn_bpe(corpus.lines(), 16)
    batch = make_batches(corpus, bpe, 64, rng.fork("batch"))[0]

    report = finite_diff_check(
        lambda: model.loss_on_batch(batch),
        model.params,
        max_entries_per_param=None if args.exhaustive else args.entries,
        rng=rng.fork("entries"),
    )
    name, worst = report.worst()
    print(f"checked {report.checked_entries} entries over {len(report.per_param)} tensors")
    print(f"max_rel_error {report.max_rel_error:.3e} ({name})")
    if not report.ok(args.tol):
        print(f"gradient check FAILED at tolerance {args.tol}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


def _cmd_param_count(args) -> int:
    config = preset(args.preset)
    if args.vocab:
        config = replace(config, vocab_size=args.vocab)
    total, breakdown = count_parameters(config)
    for component, count in breakdown.items():
        print(f"{component} {count}")
    print(f"total {total}")
    return EXIT_OK


def _cmd_select_model(args) -> int:
    records = RunRecord.from_log(read_text(args.log), args.log)
    best = select_best(records)
    print(f"best_epoch {best}")
    if args.k is not None:
        print(f"top{args.k} {'true' if topk_selection(records, args.k) else 'false'}")
    return EXIT_OK


_GNUPLOT_SCRIPT = """\
set terminal png size 900,600
set output 'loss.png'
set xlabel 'Epoch'
set ylabel 'Loss'
set key top right
plot 'loss.dat' using 1:2 with linespoints title 'train loss', \\
     'loss.dat' using 1:3 with linespoints title 'valid loss'
"""


def _cmd_plot_loss(args) -> int:
    records = RunRecord.from_log(read_text(args.log), args.log)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with atomic_write(out / "loss.dat", text=True) as fh:
        fh.write("# epoch train_loss valid_loss dev_bleu test_bleu\n")
        fh.write(records.to_log())
    with atomic_write(out / "loss.gp", text=True) as fh:
        fh.write(_GNUPLOT_SCRIPT)
    print(f"wrote {out / 'loss.dat'} and {out / 'loss.gp'}")
    return EXIT_OK


_HANDLERS = {
    "make-synth": _cmd_make_synth,
    "learn-bpe": _cmd_learn_bpe,
    "apply-bpe": _cmd_apply_bpe,
    "train": _cmd_train,
    "translate": _cmd_translate,
    "bleu": _cmd_bleu,
    "gradcheck": _cmd_gradcheck,
    "param-count": _cmd_param_count,
    "select-model": _cmd_select_model,
    "plot-loss": _cmd_plot_loss,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.command:
        parser.print_help(sys.stderr)
        return EXIT_USAGE
    try:
        _apply_config_file(args.command, args, argv)
        for flag, kwargs in _COMMANDS[args.command]:
            if kwargs.get("required") and getattr(args, flag.lstrip("-").replace("-", "_")) is None:
                raise ValueError(f"{flag} is required")
        return _HANDLERS[args.command](args)
    except DivergenceError as exc:
        print(f"ccn {args.command}: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except CcnError as exc:
        print(f"ccn {args.command}: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, FileNotFoundError) as exc:
        print(f"ccn {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # the message names exc.filename
        print(f"ccn {args.command}: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
