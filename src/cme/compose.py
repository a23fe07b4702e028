"""View correlation analysis and vector-addition composition.

A view is one matrix: sorted user ids, an n x d float64 row per id, and a
present mask; a user the view has no vector for (the empty-view sentinel)
is not present and has a zero row. Views may differ in width: the Network
view is as wide as its kept components. Views are screened pairwise with
Spearman rank correlation over their leading common columns, then composed
by component-wise addition over the sorted union of their users.
Zero-extension rule: a narrower constituent's present row is extended
with +0.0 to the widest constituent's width. Summation rule: each element
sorts its present values ascending and adds them pairwise (first half's
sum plus second half's, so a + (b + c) for three), so constituent order
never changes a bit and an absent constituent adds nothing.
Scratch-memory rule: beyond its inputs a step holds a few view-sized arrays
at most. The screen ranks one side at a time from its rows; the sum runs in
place on its stack, sorting one copy of the users with three or more values.
A composition is a pure function of its views, so it is never saved: it is
built where it is scored, and its constituents are dropped before the fit.
A caller loads only the views a step names, when the step runs: a screen
holds its pair, a build its tag's constituents.

The screen's decision names its test and what it found: a p-value below
alpha rejects rho = 0, so the views are correlated; otherwise there is no
evidence of correlation. It chooses no operator; composition always adds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

import numpy as np

# a Spearman p-value below this rejects rho = 0
ALPHA = 0.01

VIEW_NAMES = (
    "Tweet",
    "Description",
    "TweetEmoji",
    "DescriptionEmoji",
    "ProfileImage",
    "Network",
)

# canonical composition tags; "E" pairs with the text source it rides on
COMPOSITION_TAGS: dict[str, tuple[str, ...]] = {
    "T+E": ("Tweet", "TweetEmoji"),
    "D+E": ("Description", "DescriptionEmoji"),
    "N+T+E": ("Network", "Tweet", "TweetEmoji"),
    "T+D": ("Tweet", "Description"),  # the text-only baseline
}


class UndefinedCorrelationError(Exception):
    """Correlation is undefined: too few samples or zero rank variance."""


class CompositionError(Exception):
    """A composition request references views that are not available."""


class ViewEmbeddingSet:
    """One view as user_ids, matrix and present, or made from a user -> vector-or-None mapping."""

    def __init__(
        self, name: str, vectors: Optional[Mapping[str, Optional[np.ndarray]]] = None, *,
        user_ids: Sequence[str] = (), matrix: Optional[np.ndarray] = None, present: Optional[np.ndarray] = None,
    ):
        if vectors is not None:
            user_ids = sorted(vectors)
            present = np.array([vectors[u] is not None for u in user_ids], dtype=bool)
            rows = [vectors[u] for u in user_ids if vectors[u] is not None]
            matrix = np.zeros((len(user_ids), len(rows[0]) if rows else 0))
            matrix[present] = rows
        self.name, self.user_ids, self.matrix, self.present = name, list(user_ids), matrix, present

    @property
    def dimension(self) -> int:
        return int(self.matrix.shape[1])

    @property
    def sentinel_count(self) -> int:
        return int((~self.present).sum())

    @property
    def vectors(self) -> Mapping[str, Optional[np.ndarray]]:
        """Read-only user -> row, None for a sentinel."""
        rows = self.matrix.view()
        rows.flags.writeable = False
        return MappingProxyType({u: r if p else None for u, r, p in zip(self.user_ids, rows, self.present)})

    def take(self, users: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        """(rows, present) of distinct users, in order; a user outside the view is absent, a zero row."""
        rows, present = np.zeros((len(users), self.dimension)), np.zeros(len(users), dtype=bool)
        at, source = _align(users, self.user_ids)
        rows[at], present[at] = self.matrix[source], self.present[source]
        return rows, present


def _align(a: Sequence[str], b: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Positions in a and in b (each of distinct ids) of the ids both hold, in sorted id order."""
    return np.intersect1d(np.asarray(a, str), np.asarray(b, str), assume_unique=True, return_indices=True)[1:]


@dataclass
class CorrelationResult:
    rho: float
    p_value: float
    n: int
    decision: str


@dataclass
class CMEVector:
    tag: str
    vector: Optional[np.ndarray]


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks starting at 1 of values' elements in C order, ties getting the average of their positions.

    Every member of a run of equal values gets the same rank, so the order
    the sort leaves inside a run does not matter and it need not be stable.
    A NaN or infinite value, which the sort puts at an end, is an
    UndefinedCorrelationError. A temporary argument is freed once sorted.
    """
    order = np.argsort(values, axis=None)
    values = np.ravel(values)[order]
    if values.size and not (np.isfinite(values[0]) and np.isfinite(values[-1])):
        raise UndefinedCorrelationError("a sample is NaN or infinite")
    # [start, start + count) of each run of equal values in sorted order
    starts = np.flatnonzero(np.r_[True, values[1:] != values[:-1]])
    del values
    counts = np.diff(starts, append=order.size)
    starts += starts + counts + 1  # twice a run's average rank: (start + 1) + (start + count)
    twice = np.repeat(starts, counts)
    del starts, counts
    ranks = np.empty(order.size)
    ranks[order] = twice
    ranks /= 2.0
    return ranks


# modified Lentz: floor for a vanishing denominator, stopping test on the
# last factor, and a term cap (the tests' df <= 1e6 grid needs at most 45)
_CF_TINY = 1e-300
_CF_EPS = 1e-15
_CF_MAX_TERMS = 1000


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b), by the modified Lentz method."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
    h = d
    for m in range(1, _CF_MAX_TERMS + 1):
        m2 = 2 * m
        # one even and one odd term per step
        for num in (
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
            c = 1.0 + num / c
            c = c if abs(c) > _CF_TINY else _CF_TINY
            h *= d * c
        if abs(d * c - 1.0) < _CF_EPS:
            return h
    raise ArithmeticError(f"incomplete beta continued fraction did not converge (a={a}, b={b}, x={x})")


def _t_two_sided_p(t: float, df: float) -> float:
    """P(|T| >= |t|) for a Student-t variable with df degrees of freedom.

    The tail is the regularized incomplete beta I_x(a, b), a = df/2 and
    b = 1/2, at x = df / (df + t^2). Both x and 1 - x = t^2 / (df + t^2) are formed
    directly, so a p-value near 1 keeps its digits at large df; the
    fraction is taken in the symmetric form 1 - I_{1-x}(1/2, df/2) where
    x > (a + 1) / (a + b + 2), the side on which it converges fast.
    """
    t2 = t * t
    if t2 == 0.0:
        return 1.0
    if math.isinf(t2):
        return 0.0
    a, b = df / 2.0, 0.5
    x, y = df / (df + t2), t2 / (df + t2)
    # log(x^a (1-x)^b / B(a, b)); at df = 1e6 the lgamma difference costs ~4e-9 relative in p
    log_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        - a * math.log1p(t2 / df) + b * (math.log(t2) - math.log(df + t2))
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _beta_continued_fraction(a, b, x) / a
    return 1.0 - math.exp(log_front) * _beta_continued_fraction(b, a, y) / b


def spearman(x: Sequence[float], y: Sequence[float], alpha: float = ALPHA) -> CorrelationResult:
    """Spearman rank correlation with a two-sided large-n p-value.

    rho is the Pearson correlation of the rank-transformed samples (average
    ranks for ties). The p-value uses t = rho * sqrt((n-2)/(1-rho^2))
    against a Student-t reference with n-2 degrees of freedom. Its tail is
    _t_two_sided_p, an incomplete beta in plain floats; the tests hold it to
    scipy.special.stdtr within 1e-8 relative error. A NaN or infinite
    sample is an UndefinedCorrelationError.
    """
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-D and the same length")
    return _rank_correlation(_average_ranks(x), _average_ranks(y), alpha)


def _rank_correlation(rx: np.ndarray, ry: np.ndarray, alpha: float) -> CorrelationResult:
    """spearman's rho, p-value and decision from the average ranks of the paired samples; overwrites both."""
    n = int(rx.size)
    if n < 3:
        raise UndefinedCorrelationError(f"need at least 3 paired samples, got {n}")
    rx -= rx.mean()
    ry -= ry.mean()
    var_x, var_y = float(rx @ rx), float(ry @ ry)
    if var_x == 0.0 or var_y == 0.0:
        raise UndefinedCorrelationError("constant input: rank variance is zero")
    rho = min(1.0, max(-1.0, float((rx @ ry) / np.sqrt(var_x * var_y))))
    p_value = 0.0 if abs(rho) >= 1.0 else _t_two_sided_p(float(rho * np.sqrt((n - 2) / (1.0 - rho * rho))), n - 2)

    if p_value < alpha:
        decision = f"rho = 0 rejected (p={p_value:.3g} < {alpha:g}): views correlated"
    else:
        decision = f"rho = 0 not rejected (p={p_value:.3g} >= {alpha:g}): no evidence of correlation"
    return CorrelationResult(rho=rho, p_value=p_value, n=n, decision=decision)


def correlate_views(
    a: ViewEmbeddingSet,
    b: ViewEmbeddingSet,
    alpha: float = ALPHA,
) -> CorrelationResult:
    """Spearman correlation between two views over their shared users.

    Every (user, component) value of one view is paired with the same
    position in the other, users in sorted order, over the leading
    min(a.dimension, b.dimension) components that both views have, so
    n = shared_users * min(a.dimension, b.dimension).
    """
    rows_a, rows_b = _align(a.user_ids, b.user_ids)
    shared = a.present[rows_a] & b.present[rows_b]
    if shared.sum() < 3:
        raise UndefinedCorrelationError(
            f"views {a.name!r} and {b.name!r} share only {shared.sum()} users with vectors"
        )
    width = min(a.dimension, b.dimension)
    rows_a, rows_b = rows_a[shared], rows_b[shared]
    return _rank_correlation(
        _average_ranks(a.matrix[rows_a, :width]), _average_ranks(b.matrix[rows_b, :width]), alpha
    )


def _masked_sum(stack: np.ndarray, present: np.ndarray) -> np.ndarray:
    """The summation rule over a (views, users, d) stack, leaving out absent rows; overwrites stack.

    An absent row is -0.0, which adds nothing exactly, so one pass in view
    order sums users with one or two present values (two add alike either
    way round). Users with more are summed first, from their values sorted
    in one scratch copy per count, and parked in the last view's rows: the
    in-place view-order pass reads those but never writes them.
    """

    def pairwise(values: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        # the sum goes to out, else to values[0]; a single view is its own sum
        mid = len(values) // 2
        return values[0] if mid == 0 else np.add(
            pairwise(values[:mid]), pairwise(values[mid:]), out=values[0] if out is None else out
        )

    counts = present.sum(axis=0)
    stack[~present] = -0.0
    for count in range(3, len(stack) + 1):
        users = counts == count
        ordered = stack[:, users]
        ordered[~present[:, users]] = np.inf  # absent last
        ordered.sort(axis=0)
        stack[-1, users] = pairwise(ordered[:count])
        del ordered  # before the pass allocates its output
    out = pairwise(stack, np.empty(stack.shape[1:]))
    out[counts >= 3] = stack[-1, counts >= 3]
    out[counts == 0] = 0.0
    return out


def compose_add(vectors: Sequence[Optional[np.ndarray]], tag: str = "custom") -> CMEVector:
    """Component-wise sum by the zero-extension and summation rules (one user's row of build_cme).

    Sentinel (None) constituents contribute nothing; if every constituent
    is a sentinel the result is the sentinel.
    """
    rows = [np.asarray(v, dtype=np.float64) for v in vectors if v is not None]
    if not rows:
        return CMEVector(tag=tag, vector=None)
    stack = np.zeros((len(rows), 1, max(len(row) for row in rows)))
    for extended, row in zip(stack, rows):
        extended[0, : len(row)] = row
    return CMEVector(tag=tag, vector=_masked_sum(stack, np.ones((len(rows), 1), bool))[0])


def resolve_tag(tag: str) -> tuple[str, ...]:
    """Map a composition tag to its constituent view names.

    Canonical tags come from the registry; anything else must be a
    '+'-joined list of distinct view names.
    """
    if tag in COMPOSITION_TAGS:
        return COMPOSITION_TAGS[tag]
    parts = tuple(p.strip() for p in tag.split("+"))
    if not all(p in VIEW_NAMES for p in parts):
        raise CompositionError(
            f"tag {tag!r} is not a canonical tag and is not a '+'-joined list of view names"
        )
    if len(set(parts)) < len(parts):
        raise CompositionError(f"tag {tag!r} names a view more than once")
    return parts


def build_cme(
    views: Mapping[str, ViewEmbeddingSet],
    tag: str,
) -> ViewEmbeddingSet:
    """Compose the constituents of tag over the sorted union of their users.

    The composition is as wide as its widest constituent; a narrower one is
    zero-extended. A user absent from one constituent view (or present with
    a sentinel) contributes nothing for that view, and a user no constituent
    covers is a sentinel of the composition.
    """
    names = resolve_tag(tag)
    missing = [name for name in names if name not in views]
    if missing:
        raise CompositionError(
            f"composition {tag!r} needs views {missing} which have not been built"
        )
    parts = [views[name] for name in names]
    users = sorted(set().union(*(part.user_ids for part in parts)))
    stack = np.zeros((len(parts), len(users), max(part.dimension for part in parts)))
    present = np.zeros(stack.shape[:2], dtype=bool)
    for part, rows, mask in zip(parts, stack, present):
        at, source = _align(users, part.user_ids)
        rows[at, : part.dimension], mask[at] = part.matrix[source], part.present[source]
    return ViewEmbeddingSet(tag, user_ids=users, matrix=_masked_sum(stack, present), present=present.any(axis=0))


def write_correlation_report(
    results: Sequence[tuple[str, str, CorrelationResult]], path
) -> None:
    """Write the view-pair correlation table (pair, rho, p, n, decision)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("view_a\tview_b\trho\tp_value\tn\tdecision\n")
        for name_a, name_b, res in results:
            fh.write(
                f"{name_a}\t{name_b}\t{res.rho:.6g}\t{res.p_value:.6g}\t{res.n}\t{res.decision}\n"
            )
