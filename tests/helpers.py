"""Shared test utilities (not a test module)."""
import math

import numpy as np

from infomarkets.montecarlo import _TABLE_ENTRIES
from infomarkets.numerics import _log_factorials
from infomarkets.scoring import _outcome_sum, expected_score, score


def welfare_foc_root(welfare, hi: float = 1.0, rel_step: float = 1e-5,
                     lo: float = 1e-12) -> float:
    """Independent welfare maximizer: bisect the finite-difference derivative.

    Deliberately avoids the package's solver so the comparison between
    best-response roots and welfare optima has two separate code paths.
    The central difference steps ``rel_step * c`` either side of c, so
    its relative error is the same at every effort: a fixed step of 1e-6
    read efforts near 2e-5 up to 1.3e-3 off.
    """
    def deriv(c):
        step = rel_step * c
        return (welfare(c + step) - welfare(c - step)) / (2 * step)

    if deriv(lo) <= 0:
        return 0.0
    while deriv(hi) > 0:
        hi *= 2
        assert hi < 1e6, "welfare derivative never turns negative"
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if deriv(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class BlockMoments:
    """The per-block oracle of ``montecarlo._Moments``: trial-major parts
    are copied into a ``(rows, block)`` buffer, and each full buffer merges
    into the running sums by the pairwise update of Chan, Golub and LeVeque
    (1979), one Python merge per block."""

    def __init__(self, rows: int, trials: int, block: int = 1024):
        self._size = min(block, max(trials, 1))
        self._block = np.empty((rows, self._size))
        self._fill = 0
        self._count = 0
        self._sum = np.zeros(rows)
        self._m2 = np.zeros(rows)

    def add(self, *parts: np.ndarray) -> None:
        """Append the trials of ``parts``: trial-major ``(T, k)`` or ``(T,)``
        arrays, stacked as rows in order."""
        parts = [p.reshape(p.shape[0], -1) for p in parts]
        trials, done = parts[0].shape[0], 0
        while done < trials:
            take = min(self._size - self._fill, trials - done)
            cols = slice(self._fill, self._fill + take)
            row = 0
            for p in parts:
                self._block[row:row + p.shape[1], cols] = p[done:done + take].T
                row += p.shape[1]
            self._fill += take
            done += take
            if self._fill == self._size:
                self._merge(self._block)

    def _merge(self, block: np.ndarray) -> None:
        nb = block.shape[1]
        total = block.sum(axis=1)
        block -= (total / nb)[:, None]
        np.square(block, out=block)
        m2 = block.sum(axis=1)
        na = self._count
        if na:
            delta = total / nb - self._sum / na
            m2 += delta * delta * (na * nb / (na + nb))
        self._count = na + nb
        self._sum += total
        self._m2 += m2
        self._fill = 0

    def finish(self) -> tuple[int, np.ndarray, np.ndarray]:
        if self._fill:
            self._merge(self._block[:, :self._fill])
        count = self._count
        if count < 2:
            return count, self._sum / count, np.zeros_like(self._sum)
        return (count, self._sum / count,
                np.sqrt(self._m2 / (count - 1)) / math.sqrt(count))


def unique_row_score_table(model, rule, table: np.ndarray):
    """The oracle of ``montecarlo._score_table``: the same ``(steps, scores)``
    or None, built from the whole flat ``(n (m + 1), d)`` column table, one
    row per agent and state, with ``np.unique`` over all of its rows."""
    d, states = model.num_outcomes, model.num_signal_values + 1
    columns, kind = np.unique(table, axis=0, return_inverse=True)
    held = np.sort(kind.reshape(-1, states), axis=1)  # each agent's columns
    first = np.insert(held[:, 1:] != held[:, :-1], 0, True, axis=1)
    ones = np.all(columns == 1.0, axis=1)
    radices = np.where(ones, 1, 1 + np.bincount(held[first], minlength=len(columns)))
    if math.prod(radices.tolist()) * d > _TABLE_ENTRIES:
        return None
    probs = np.empty((*radices, d))
    probs[(0,) * len(columns)] = model.prior
    with np.errstate(invalid="ignore"):  # a disjoint support folds to NaN
        for axis, column in enumerate(columns):
            block = np.moveaxis(probs[(slice(None),) * (axis + 1)
                                      + (0,) * (len(columns) - axis - 1)], axis, 0)
            for k in range(1, radices[axis]):
                weights = np.multiply(block[k - 1], column, out=block[k])
                weights /= _outcome_sum(weights)[..., None]
    strides = np.array(probs.strides[:-1]) // probs.itemsize
    probs = probs.reshape(-1, d)
    scores = np.empty(probs.shape)
    for y in range(d):
        scores[:, y] = score(rule, probs, np.full(len(probs), y))
    return np.where(ones[kind], 0, strides[kind]).reshape(-1), scores.ravel()


def lexicographic_count_vectors(m: int, n: int) -> np.ndarray:
    """Every vector of m nonnegative counts with total at most n, one per
    row, in lexicographic order: the rows of ``info_model._count_vectors``,
    which lists them by total first."""
    counts = np.zeros((1, 0), dtype=np.int64)
    for _ in range(m):
        room = n + 1 - counts.sum(axis=1)
        rows = np.repeat(np.arange(len(counts)), room)
        nxt = np.arange(rows.size) - np.repeat(np.cumsum(room) - room, room)
        counts = np.column_stack([counts[rows], nxt])
    return counts


def lexicographic_v_values(model, rule, n: int) -> np.ndarray:
    """The oracle of ``v_sequence``: v_0..v_n over the lexicographic count
    vectors, each row's log-multinomial weight computed on the spot.  Each
    k's rows are summed in the same order as from the shared table, so the
    two agree bit for bit."""
    counts = lexicographic_count_vectors(model.num_signal_values, n)
    lik = model.likelihood
    k = counts.sum(axis=1)
    log_fact = _log_factorials(int(k.max()))
    log_multinomial = log_fact[k] - log_fact[counts].sum(axis=1)
    log_lik = counts @ np.log(np.where(lik > 0, lik, 1.0)).T
    weights = np.exp(log_multinomial[:, None] + log_lik)
    weights[counts @ (lik == 0).T > 0] = 0.0
    joint = weights * model.prior
    mass = _outcome_sum(joint)
    scores = expected_score(rule, joint / np.where(mass > 0, mass, 1.0)[:, None])
    means = (np.bincount(k, weights=mass * scores, minlength=n + 1)
             / np.bincount(k, weights=mass, minlength=n + 1))
    return means - means[0]
