"""Probabilistic record linkage (Fellegi–Sunter with EM estimation).

The intruder compares every (original, masked) record pair on the
quasi-identifier attributes, producing a binary *agreement pattern*.
Under the Fellegi–Sunter model, attribute ``k`` agrees with probability
``m_k`` among true matches and ``u_k`` among non-matches; the matching
weight of a pattern is the log-likelihood ratio

    w(pattern) = sum_k  log(m_k / u_k)            if attribute k agrees
                      + log((1-m_k) / (1-u_k))    if it disagrees.

``m``, ``u`` and the match proportion are estimated by EM over the
pattern counts (the intruder does not know the true matching), then each
original record is linked to the masked record with the highest weight.
The measure is the percentage of records whose true match wins, with
fractional credit on ties as in :mod:`repro.linkage.dbrl`.

Since the weight of a pair depends only on its agreement pattern, all
computations aggregate over the ``2^a`` patterns instead of the ``n^2``
pairs, which keeps EM instant even for thousands of records.

The EM update rule is written once, over per-pattern and per-attribute
*lists*, and runs two ways.  A small batch (the GA's 1–3 offspring) runs
it per candidate on Python floats, where a few hundred float operations
per iteration cost less than the numpy calls they would replace.  A
large batch runs it with each list element a ``(B,)`` numpy column, so
one numpy call serves every candidate.  Both ways use only IEEE basic
arithmetic in the same order, sum over patterns sequentially, and send
every logarithm through ``np.log``, whose result for a value does not
depend on where it sits in an array.  A candidate therefore gets the
same bits whichever way its batch ran, which is what keeps
``compute_many(batch)[i] == compute(batch[i])`` for PRL.
"""

from __future__ import annotations

import math
import operator
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import NamedTuple

import numpy as np

from repro.data.dataset import CategoricalDataset
from repro.data.validation import require_attributes, require_masked_pair
from repro.exceptions import LinkageError
from repro.linkage.dbrl import fractional_correct_links
from repro.obs.registry import get_registry

_EPS = 1e-9
_ONE_MINUS_EPS = 1 - _EPS

#: Largest batch fitted candidate by candidate on Python floats; larger
#: batches run the same rule on ``(B,)`` numpy columns.  Set from the
#: measured crossover on Flare counts (a = 3, 2-core x86-64 VM): the row
#: path costs ~3.5 ms per candidate, the column path 20–30 ms per fit
#: almost independently of ``B``.
_ROW_PATH_MAX_BATCH = 8

#: EM iteration counts are count-shaped, not latency-shaped; the default
#: ``max_iterations`` of 200 gets its own bucket edge so fits stopped by
#: the cap stand out.
EM_ITERATION_BUCKETS = (5, 10, 25, 50, 100, 150, 175, 199, 200, 500, 1000)
get_registry().declare_histogram("repro_em_iterations", EM_ITERATION_BUCKETS)


def agreement_pattern_matrix(
    original: CategoricalDataset,
    masked: CategoricalDataset,
    attributes: Sequence[str],
) -> np.ndarray:
    """Pattern index of every record pair, shape ``(n, n)``, dtype int.

    Attribute ``k`` (in ``attributes`` order) contributes bit ``k``:
    the bit is set when the pair *agrees* on that attribute.
    """
    require_masked_pair(original, masked)
    columns = require_attributes(original, attributes)
    if not columns:
        raise LinkageError("agreement patterns need at least one attribute")
    if len(columns) > 20:
        raise LinkageError(f"too many attributes for pattern encoding: {len(columns)}")
    n = original.n_records
    patterns = np.zeros((n, n), dtype=np.int64)
    for bit, col in enumerate(columns):
        agree = original.column(col)[:, None] == masked.column(col)[None, :]
        patterns |= agree.astype(np.int64) << bit
    return patterns


@dataclass(frozen=True)
class FellegiSunterModel:
    """Estimated Fellegi–Sunter parameters and per-pattern weights.

    ``iterations`` counts the EM updates applied; ``converged`` is true
    only when the log-likelihood change fell below the tolerance (a fit
    stopped by the iteration cap or by a degenerate mixture is not).
    """

    m: np.ndarray
    u: np.ndarray
    match_proportion: float
    pattern_weights: np.ndarray
    iterations: int
    converged: bool

    @property
    def n_attributes(self) -> int:
        return self.m.shape[0]


@dataclass(frozen=True)
class BatchFellegiSunterModel:
    """Fellegi–Sunter parameters for a whole batch of candidate files."""

    m: np.ndarray  # (B, a)
    u: np.ndarray  # (B, a)
    match_proportion: np.ndarray  # (B,)
    pattern_weights: np.ndarray  # (B, 2^a)
    iterations: np.ndarray  # (B,) int
    converged: np.ndarray  # (B,) bool

    def __len__(self) -> int:
        return self.m.shape[0]

    def single(self, index: int) -> FellegiSunterModel:
        """The scalar view of one batch member."""
        return FellegiSunterModel(
            m=self.m[index],
            u=self.u[index],
            match_proportion=float(self.match_proportion[index]),
            pattern_weights=self.pattern_weights[index],
            iterations=int(self.iterations[index]),
            converged=bool(self.converged[index]),
        )


# -- the update rule ---------------------------------------------------------
#
# The rule below is written against an :class:`_Arithmetic`: its lists
# hold Python floats (one candidate) or (B,) float64 columns (one value
# per candidate), and it uses only +, -, *, / and the context's ``clip``
# and ``log``.  Nothing may call a numpy reduction: its summation order
# depends on the array's length and layout, which would tie a result to
# its batch.


class _Arithmetic(NamedTuple):
    """The constants and list-wise functions one way of running the rule uses."""

    one: float
    eps: float
    clip: Callable[[list], list]  # into [eps, 1 - eps], elementwise
    log: Callable[[list], list]  # np.log, elementwise


def _sequential_sum(values):
    """``((v0 + v1) + v2) + ...`` — a fixed order for floats and columns alike."""
    return reduce(operator.add, values)


@lru_cache(maxsize=None)
def _agreeing_patterns(n_attributes: int) -> tuple[Callable, ...]:
    """``[k]`` picks, in increasing order, the patterns that agree on attribute ``k``.

    Each pick returns a tuple, even of one pattern (``a == 1``).
    """
    picks = []
    for k in range(n_attributes):
        patterns = [p for p in range(2**n_attributes) if p >> k & 1]
        picks.append(
            operator.itemgetter(*patterns) if len(patterns) > 1
            else lambda values, p=patterns[0]: (values[p],)
        )
    return tuple(picks)


def _class_likelihoods(ops: _Arithmetic, proportion, probabilities: list) -> list:
    """``proportion`` times each pattern's likelihood under one class.

    The likelihood is the product of the per-attribute agree/disagree
    probabilities (with ``eps`` guarding zeros), taken directly rather
    than as ``exp(sum(log))``.  It is built by doubling — attribute
    ``k`` splits every partial product in two — so pattern ``p`` gets
    ``((proportion * x_0) * x_1) * x_2 ...`` with ``x_k`` picked by bit
    ``k`` of ``p``.
    """
    one, eps = ops.one, ops.eps
    first = probabilities[0]
    out = [proportion * ((one - first) + eps), proportion * (first + eps)]
    for x in probabilities[1:]:
        agree = x + eps
        disagree = (one - x) + eps
        out = [y * disagree for y in out] + [y * agree for y in out]
    return out


def _e_step(ops: _Arithmetic, counts: list, m: list, u: list, match_proportion):
    """Weighted match counts, mixture densities and the match-class total."""
    matches = _class_likelihoods(ops, match_proportion, m)
    nonmatches = _class_likelihoods(ops, ops.one - match_proportion, u)
    eps = ops.eps
    densities = [(x + y) + eps for x, y in zip(matches, nonmatches)]
    weighted = [c * (x / d) for c, x, d in zip(counts, matches, densities)]
    return weighted, densities, _sequential_sum(weighted)


def _m_step(ops: _Arithmetic, weighted: list, weight_total, rest_total, total,
            agreeing: tuple, agree_totals: list):
    """Re-estimated ``(m, u, match_proportion)`` from one E-step.

    ``agree_totals[k]`` is the fixed count of pairs agreeing on
    attribute ``k``; its non-match share is what the match share leaves.
    """
    agree_weights = [_sequential_sum(pick(weighted)) for pick in agreeing]
    clipped = ops.clip(
        [x / weight_total for x in agree_weights]
        + [(c - x) / rest_total for c, x in zip(agree_totals, agree_weights)]
        + [weight_total / total]
    )
    a = len(agreeing)
    return clipped[:a], clipped[a:-1], clipped[-1]


def _log_likelihood(ops: _Arithmetic, counts: list, densities: list):
    return _sequential_sum(map(operator.mul, counts, ops.log(densities)))


def _pattern_weights(ops: _Arithmetic, m: list, u: list) -> list:
    """Per-pattern log-likelihood ratios under the fitted parameters.

    Pattern ``p`` sums its per-attribute terms in ``k`` order, built by
    doubling like :func:`_class_likelihoods`.
    """
    one, eps = ops.one, ops.eps
    a = len(m)
    logs = ops.log(
        [x + eps for x in m] + [x + eps for x in u]
        + [(one - x) + eps for x in m] + [(one - x) + eps for x in u]
    )
    out = [logs[2 * a] - logs[3 * a], logs[0] - logs[a]]
    for k in range(1, a):
        agree = logs[k] - logs[a + k]
        disagree = logs[2 * a + k] - logs[3 * a + k]
        out = [y + disagree for y in out] + [y + agree for y in out]
    return out


# -- the two ways to run it ---------------------------------------------------


def _clip_floats(values: list) -> list:
    return [
        _EPS if x < _EPS else _ONE_MINUS_EPS if x > _ONE_MINUS_EPS else x for x in values
    ]


def _clip_columns(columns: list) -> list:
    return list(np.minimum(np.maximum(np.array(columns), _EPS), _ONE_MINUS_EPS))


_FLOATS = _Arithmetic(1.0, _EPS, _clip_floats, lambda values: np.log(values).tolist())
# numpy scalars, not Python floats: a ufunc takes them without conversion.
_COLUMNS = _Arithmetic(
    np.float64(1.0), np.float64(_EPS), _clip_columns, lambda columns: list(np.log(columns))
)


def _fit_row(counts: list, total: float, n_attributes: int,
             max_iterations: int, tolerance: float):
    """EM for one candidate on Python floats; ``counts`` is a float list."""
    agreeing = _agreeing_patterns(n_attributes)
    agree_totals = [_sequential_sum(pick(counts)) for pick in agreeing]
    m = [0.9] * n_attributes
    u = [0.1] * n_attributes
    match_proportion = 0.01
    previous = -math.inf
    iterations = 0
    converged = False
    for _ in range(max_iterations):
        weighted, densities, weight_total = _e_step(_FLOATS, counts, m, u, match_proportion)
        rest_total = total - weight_total
        # A degenerate mixture stops before updating.
        if weight_total <= _EPS or rest_total <= _EPS:
            break
        m, u, match_proportion = _m_step(
            _FLOATS, weighted, weight_total, rest_total, total, agreeing, agree_totals
        )
        iterations += 1
        loglik = _log_likelihood(_FLOATS, counts, densities)
        if abs(loglik - previous) < tolerance * (1.0 + abs(previous)):
            converged = True
            break
        previous = loglik
    return m, u, match_proportion, _pattern_weights(_FLOATS, m, u), iterations, converged


def _fit_columns(columns: list, totals: np.ndarray, n_attributes: int,
                 max_iterations: int, tolerance: float):
    """EM for a batch given as one ``(B,)`` count column per pattern.

    Converged and degenerate candidates are frozen by mask instead of
    leaving the loop: their discarded updates cannot reach the result,
    so each candidate's trajectory is exactly the row path's.
    """
    batch = totals.shape[0]
    agreeing = _agreeing_patterns(n_attributes)
    agree_totals = [_sequential_sum(pick(columns)) for pick in agreeing]
    m = [np.full(batch, 0.9) for _ in range(n_attributes)]
    u = [np.full(batch, 0.1) for _ in range(n_attributes)]
    match_proportion = np.full(batch, 0.01)
    previous = np.full(batch, -np.inf)
    iterations = np.zeros(batch, dtype=np.int64)
    converged = np.zeros(batch, dtype=bool)
    active = np.ones(batch, dtype=bool)
    for _ in range(max_iterations):
        weighted, densities, weight_total = _e_step(_COLUMNS, columns, m, u, match_proportion)
        rest_total = totals - weight_total
        degenerate = (weight_total <= _EPS) | (rest_total <= _EPS)
        if np.count_nonzero(degenerate):
            update = active & ~degenerate
            # Keep the discarded updates of degenerate rows finite.
            weight_total = np.where(degenerate, 1.0, weight_total)
            rest_total = np.where(degenerate, 1.0, rest_total)
        else:
            update = active
        new_m, new_u, new_mp = _m_step(
            _COLUMNS, weighted, weight_total, rest_total, totals, agreeing, agree_totals
        )
        loglik = _log_likelihood(_COLUMNS, columns, densities)
        done = abs(loglik - previous) < tolerance * (1.0 + abs(previous))
        if np.count_nonzero(update) == batch:
            m, u, match_proportion, previous = new_m, new_u, new_mp, loglik
        else:
            m = [np.where(update, new, old) for new, old in zip(new_m, m)]
            u = [np.where(update, new, old) for new, old in zip(new_u, u)]
            match_proportion = np.where(update, new_mp, match_proportion)
            previous = np.where(update, loglik, previous)
        iterations += update
        converged |= update & done
        active = update & ~done
        if not np.count_nonzero(active):
            break
    weights = _pattern_weights(_COLUMNS, m, u)
    return (np.stack(m, axis=1), np.stack(u, axis=1), match_proportion,
            np.stack(weights, axis=1), iterations, converged)


def fit_fellegi_sunter_many(
    pattern_counts: np.ndarray,
    n_attributes: int,
    max_iterations: int = 200,
    tolerance: float = 1e-8,
) -> BatchFellegiSunterModel:
    """EM fit over a ``(B, 2^a)`` batch of aggregated pattern counts.

    This is the primary implementation — :func:`fit_fellegi_sunter` is
    its ``B == 1`` wrapper.  Batches of up to ``_ROW_PATH_MAX_BATCH``
    candidates are fitted one by one on Python floats, larger ones on
    numpy columns; both run the same update rule with the same
    operations in the same order, so each candidate's result is bit for
    bit what a one-candidate fit returns, whatever the batch size.
    """
    counts = np.asarray(pattern_counts, dtype=np.float64)
    if n_attributes < 1 or counts.ndim != 2 or counts.shape[1] != 2**n_attributes:
        raise LinkageError(
            f"expected (B, {2**n_attributes}) pattern counts, got shape {counts.shape}"
        )
    if not np.isfinite(counts).all() or (counts < 0).any():
        raise LinkageError("pattern counts must be finite and non-negative")
    # The EM fit dominates fresh-evaluation time, so it gets its own
    # latency series; the clock is only read when telemetry is on.
    registry = get_registry()
    em_start = time.perf_counter() if registry.enabled else 0.0
    batch = counts.shape[0]
    columns = list(np.ascontiguousarray(counts.T))
    totals = _sequential_sum(columns)
    if batch and totals.min() <= 0:
        raise LinkageError("no record pairs to fit")

    if 0 < batch <= _ROW_PATH_MAX_BATCH:
        rows = [
            _fit_row(row, total, n_attributes, max_iterations, tolerance)
            for row, total in zip(counts.tolist(), totals.tolist())
        ]
        m, u, match_proportion, weights, iterations, converged = (
            np.array(field) for field in zip(*rows)
        )
    else:
        m, u, match_proportion, weights, iterations, converged = _fit_columns(
            columns, totals, n_attributes, max_iterations, tolerance
        )

    if registry.enabled:
        registry.observe("repro_em_fit_seconds", time.perf_counter() - em_start)
        for count in iterations.tolist():
            registry.observe("repro_em_iterations", count)
        registry.inc("repro_em_nonconverged_total", int(batch - converged.sum()))
    return BatchFellegiSunterModel(
        m=m,
        u=u,
        match_proportion=match_proportion,
        pattern_weights=weights,
        iterations=iterations,
        converged=converged,
    )


def fit_fellegi_sunter(
    pattern_counts: np.ndarray,
    n_attributes: int,
    max_iterations: int = 200,
    tolerance: float = 1e-8,
) -> FellegiSunterModel:
    """EM fit of the Fellegi–Sunter mixture from aggregated pattern counts.

    Thin wrapper over :func:`fit_fellegi_sunter_many` with a batch of
    one, so the scalar and batch evaluation paths share one numerical
    trajectory.
    """
    counts = np.asarray(pattern_counts, dtype=np.float64)
    if counts.shape != (2**n_attributes,):
        raise LinkageError(
            f"expected {2**n_attributes} pattern counts, got shape {counts.shape}"
        )
    model = fit_fellegi_sunter_many(
        counts[None, :], n_attributes, max_iterations=max_iterations, tolerance=tolerance
    )
    return model.single(0)


def probabilistic_record_linkage(
    original: CategoricalDataset,
    masked: CategoricalDataset,
    attributes: Sequence[str],
) -> float:
    """Percentage of records re-identified by Fellegi–Sunter linkage (0..100)."""
    patterns = agreement_pattern_matrix(original, masked, attributes)
    n_attributes = len(attributes)
    counts = np.bincount(patterns.ravel(), minlength=2**n_attributes)
    model = fit_fellegi_sunter(counts, n_attributes)
    weights = model.pattern_weights[patterns]
    correct = fractional_correct_links(weights, best_is_max=True)
    return 100.0 * correct / original.n_records
