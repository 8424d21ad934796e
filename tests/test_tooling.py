"""The benchmark's layer tracer (perfbench/spans.py) still finds every ccn
name it wraps, so a refactor that removes one fails here first."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402


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
