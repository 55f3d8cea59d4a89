"""Proper scoring rules used as agent payments and as the value of a belief.

Higher scores mean better predictions.  The quadratic rule is
``S(p, y) = 2 p(y) - ||p||^2`` and its self-expected value is ``||p||^2``;
the logarithmic rule is ``S(p, y) = ln p(y)``.  Both are strictly proper:
the expected score under a belief ``b`` is uniquely maximized by predicting
``p = b``.  A positive ``scale`` multiplies every score, which matters when
scores are traded off against effort costs measured in other units.
"""
import math
from dataclasses import dataclass

import numpy as np

KINDS = ("quadratic", "logarithmic")


@dataclass(frozen=True)
class ScoringRule:
    kind: str = "quadratic"
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown scoring rule kind {self.kind!r}, try one of {KINDS}")
        if not 0 < self.scale < math.inf:
            raise ValueError(f"scale must be finite and positive, got {self.scale}")


def _probs(p) -> np.ndarray:
    probs = getattr(p, "probs", p)
    return np.asarray(probs, dtype=float)


def _outcome_sum(a: np.ndarray, square: bool = False) -> np.ndarray:
    """Sum of ``a`` (of ``a**2`` if ``square``) over the last axis, left to right.

    Several times faster than numpy's reduction over a short last axis, and
    bitwise equal to ``np.sum(..., axis=-1)`` for d < 8: numpy adds blocks
    shorter than eight left to right too, longer ones pairwise.  Squaring
    one outcome at a time keeps the scratch to one column.
    """
    total = np.square(a[..., 0]) if square else a[..., 0].copy()
    for i in range(1, a.shape[-1]):
        total += np.square(a[..., i]) if square else a[..., i]
    return total


def score(rule: ScoringRule, p, y) -> float | np.ndarray:
    """Score of prediction ``p`` when outcome ``y`` realizes.

    ``p`` may be a single belief (shape ``(d,)``) or a batch (shape
    ``(..., T, d)`` with ``y`` of shape ``(T,)``, shared by the leading
    axes).  The logarithmic rule returns ``-inf`` when ``p(y) = 0``;
    callers that integrate scores must reject the sentinel.
    """
    probs = _probs(p)
    y = np.asarray(y, dtype=int)
    d = probs.shape[-1]
    if y.size and (y.min() < 0 or y.max() >= d):
        raise ValueError(f"outcome index outside 0..{d - 1}")
    if probs.ndim == 1:
        p_y = probs[y]
    else:
        # one gather from the flattened (T, d) block of each leading index,
        # not a broadcast index array along the short outcome axis
        T = probs.shape[-2]
        flat = probs.reshape(-1, T * d)
        p_y = np.take(flat, np.arange(0, T * d, d) + y, axis=1).reshape(probs.shape[:-1])
    if rule.kind == "quadratic":
        raw = p_y  # a fresh gather: updating it in place spares two temporaries
        raw *= 2.0
        raw -= _outcome_sum(probs, square=True)
    else:
        with np.errstate(divide="ignore"):
            raw = np.log(p_y)
    raw *= rule.scale
    return float(raw) if np.ndim(raw) == 0 else raw


def expected_score(rule: ScoringRule, p) -> float | np.ndarray:
    """Self-expected score ``E_{Y~p}[S(p, Y)]``; ``scale * ||p||^2`` for quadratic."""
    probs = _probs(p)
    if rule.kind == "quadratic":
        raw = _outcome_sum(probs, square=True)
    else:
        # 0 * ln 0 is treated as 0
        with np.errstate(divide="ignore", invalid="ignore"):
            raw = _outcome_sum(np.where(probs > 0, probs * np.log(probs), 0.0))
    out = rule.scale * raw
    return float(out) if out.ndim == 0 else out
