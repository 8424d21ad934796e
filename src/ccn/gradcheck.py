"""Central finite-difference verification of analytic gradients.

The checker perturbs parameter entries in place, re-evaluates a scalar loss,
and compares (f(x+h) - f(x-h)) / 2h against the gradient the tape produced.
Relative error per entry uses max(|analytic|, |numeric|, 1e-6) as the
denominator so entries with near-zero true gradient are judged on an
absolute scale where central differences bottom out in roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DeterminismError
from .rng import Rng
from .tensor import Tensor, no_grad

_DENOM_FLOOR = 1e-6
_ZERO_BOTH = 1e-12


@dataclass
class GradCheckReport:
    per_param: dict[str, float] = field(default_factory=dict)
    checked_entries: int = 0

    @property
    def max_rel_error(self) -> float:
        return max(self.per_param.values()) if self.per_param else 0.0

    def ok(self, tol: float) -> bool:
        return self.max_rel_error < tol

    def worst(self) -> tuple[str, float]:
        name = max(self.per_param, key=self.per_param.get)
        return name, self.per_param[name]


def finite_diff_check(
    f,
    params: dict[str, Tensor],
    h: float = 1e-5,
    max_entries_per_param: int | None = None,
    rng: Rng | None = None,
) -> GradCheckReport:
    """Compare analytic gradients of a scalar loss against central differences.

    ``f`` takes no arguments, must be deterministic, and returns the loss as
    a scalar Tensor built from the live ``params``. One taped evaluation
    supplies the analytic gradients; all perturbed evaluations run under
    ``no_grad``. Two baseline evaluations guard against hidden randomness.
    When ``max_entries_per_param`` is given, a deterministic rng-chosen
    subset of entries is probed per parameter, which keeps large models
    tractable.
    """
    if h <= 0:
        raise ValueError(f"finite-difference step must be positive, got {h}")
    if max_entries_per_param is not None and rng is None:
        raise ValueError("entry sampling needs an rng for reproducibility")

    for p in params.values():
        p.zero_grad()
    loss = f()
    base1 = float(loss.data)
    loss.backward()
    analytic = {name: p.grad.copy() for name, p in params.items()}

    report = GradCheckReport()
    with no_grad():
        base2 = float(f().data)
        if base1 != base2:
            raise DeterminismError(
                f"loss function is not deterministic: {base1!r} vs {base2!r} on repeat evaluation"
            )
        for name, p in params.items():
            n = p.data.size
            if max_entries_per_param is not None and n > max_entries_per_param:
                idx = np.unique(rng.integers(n, (max_entries_per_param,)))
            else:
                idx = np.arange(n)
            worst = 0.0
            a_flat = analytic[name].reshape(-1)
            for i in idx:
                # an index, not a reshaped copy: p.data may be a view of a fused leaf
                at = np.unravel_index(i, p.data.shape)
                orig = p.data[at]
                p.data[at] = orig + h
                f_plus = float(f().data)
                p.data[at] = orig - h
                f_minus = float(f().data)
                p.data[at] = orig
                numeric = (f_plus - f_minus) / (2.0 * h)
                a = float(a_flat[i])
                report.checked_entries += 1
                if abs(a) < _ZERO_BOTH and abs(numeric) < _ZERO_BOTH:
                    continue
                rel = abs(a - numeric) / max(abs(a), abs(numeric), _DENOM_FLOOR)
                if rel > worst:
                    worst = rel
            report.per_param[name] = worst
    return report
