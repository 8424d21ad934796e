"""The benchmark's start-up (perfbench/run.py's machine fingerprint and
perfbench/workloads.py) and its layer tracer (perfbench/spans.py) still
find every ccn name they use, and the bit-identity tool
(tools/fingerprint.py) still runs and is deterministic, so a refactor that
breaks any of them fails here first."""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "tools"))

import fingerprint  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_perfbench_starts_up_with_the_declared_workloads():
    """Every benchmark run records the machine fingerprint, which asks
    ccn.kernels for its backend, before it measures anything."""
    assert run.fingerprint(1)["nproc"] == 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert sorted(workloads.WORKLOADS) == sorted(w["name"] for w in spec["workloads"])


def test_perfbench_tracer_installs_and_uninstalls():
    owners = list(spans.LAYER_MODULES) + [cls for cls, _, _ in spans.METHODS]
    before = [dict(vars(owner)) for owner in owners]
    tracer = spans.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    for owner, attrs in zip(owners, before):
        assert all(vars(owner)[k] is v for k, v in attrs.items()), owner


def test_fingerprint_model_digests_are_complete_and_repeat(capsys, tmp_path):
    outputs = []
    for run in ("a", "b"):
        (tmp_path / run / "ckpt").mkdir(parents=True)
        fingerprint.model_digests(tmp_path / run, None)
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    keys = {tuple(line.split()[:2]) for line in outputs[0].splitlines()}
    for arch in ("thm", "transformer"):
        for n_blocks in (0, 1, 2):
            for dtype in ("float32", "float64"):
                name = f"{arch}-{n_blocks}-{dtype}"
                for key in ("init", "losses", "params", "grads", "moments", "checkpoint"):
                    assert (name, key) in keys, (name, key)
