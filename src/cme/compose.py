"""View correlation analysis and vector-addition composition.

A view embedding set maps each user to one vector (or None, the empty-view
sentinel, when the user has no usable content for that view). Views are
screened pairwise with Spearman rank correlation, then composed into
multiview vectors by plain component-wise addition.

Decision rendering note: the composition gate inverts the textbook
hypotheses. Its working null is "the two views are correlated", so a small
p-value is read as license to compose the pair by addition. The number
computed underneath is the standard two-sided test of zero rank
correlation; only the wording of the decision string follows the gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

# a Spearman p-value below this rejects correlation
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


@dataclass
class ViewEmbeddingSet:
    """Per-user vectors for one view; None marks the empty-view sentinel."""

    name: str
    vectors: dict[str, Optional[np.ndarray]]
    dimension: int = 0
    sentinel_counts: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        dims = {int(v.shape[0]) for v in self.vectors.values() if v is not None}
        if len(dims) > 1:
            raise ValueError(f"view {self.name!r} mixes dimensions {sorted(dims)}")
        if dims:
            found = dims.pop()
            if self.dimension and self.dimension != found:
                raise ValueError(
                    f"view {self.name!r}: declared dimension {self.dimension} != {found}"
                )
            self.dimension = found

    @property
    def sentinel_count(self) -> int:
        return sum(1 for v in self.vectors.values() if v is None)

    def users_with_vectors(self) -> list[str]:
        return sorted(u for u, v in self.vectors.items() if v is not None)


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
    """Ranks starting at 1, ties getting the average of their positions.

    Every member of a run of equal values gets the same rank, so the order
    the sort leaves inside a run does not matter and it need not be stable.
    """
    order = np.argsort(values)
    sorted_vals = values[order]
    # [start, end) of each run of equal values in sorted order
    starts = np.flatnonzero(np.r_[True, sorted_vals[1:] != sorted_vals[:-1]])
    ends = np.r_[starts[1:], values.size]
    ranks = np.empty(values.size, dtype=np.float64)
    ranks[order] = np.repeat((starts + ends - 1) / 2.0 + 1.0, ends - starts)
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
    scipy.special.stdtr within 1e-8 relative error.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-D and the same length")
    n = int(x.size)
    if n < 3:
        raise UndefinedCorrelationError(f"need at least 3 paired samples, got {n}")

    rx = _average_ranks(x)
    ry = _average_ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    var_x = float(rx @ rx)
    var_y = float(ry @ ry)
    if var_x == 0.0 or var_y == 0.0:
        raise UndefinedCorrelationError("constant input: rank variance is zero")
    rho = float((rx @ ry) / np.sqrt(var_x * var_y))
    rho = min(1.0, max(-1.0, rho))

    if abs(rho) >= 1.0:
        p_value = 0.0
    else:
        t_stat = rho * np.sqrt((n - 2) / (1.0 - rho * rho))
        p_value = _t_two_sided_p(float(t_stat), n - 2)

    if p_value < alpha:
        decision = (
            f"correlation rejected (p={p_value:.3g} < {alpha:g}): "
            "treat views as uncorrelated; compose by vector addition"
        )
    else:
        decision = (
            f"correlation not rejected (p={p_value:.3g} >= {alpha:g}): "
            "views may be correlated"
        )
    return CorrelationResult(rho=rho, p_value=p_value, n=n, decision=decision)


def correlate_views(
    a: ViewEmbeddingSet,
    b: ViewEmbeddingSet,
    alpha: float = ALPHA,
) -> CorrelationResult:
    """Spearman correlation between two views over their shared users.

    Every (user, component) value of one view is paired with the same
    position in the other, so n = shared_users * dimension.
    """
    shared = sorted(
        u
        for u, v in a.vectors.items()
        if v is not None and b.vectors.get(u) is not None
    )
    if len(shared) < 3:
        raise UndefinedCorrelationError(
            f"views {a.name!r} and {b.name!r} share only {len(shared)} users with vectors"
        )

    xs = np.concatenate([a.vectors[u] for u in shared])
    ys = np.concatenate([b.vectors[u] for u in shared])
    return spearman(xs, ys, alpha=alpha)


def _pairwise_sum(rows: list[np.ndarray]) -> np.ndarray:
    if len(rows) == 1:
        return rows[0].copy()
    mid = len(rows) // 2
    return _pairwise_sum(rows[:mid]) + _pairwise_sum(rows[mid:])


def compose_add(vectors: Sequence[Optional[np.ndarray]], tag: str = "custom") -> CMEVector:
    """Component-wise sum of the given vectors.

    Sentinel (None) constituents contribute nothing, i.e. the zero vector;
    if every constituent is a sentinel the result is the sentinel. The
    non-sentinel vectors are summed in a canonical order (sorted by byte
    representation, pairwise), so any permutation of the argument list
    produces a bit-identical result.
    """
    present = [np.asarray(v, dtype=np.float64) for v in vectors if v is not None]
    if not present:
        return CMEVector(tag=tag, vector=None)
    dims = {v.shape for v in present}
    if len(dims) > 1:
        raise ValueError(f"dimension mismatch among constituents: {sorted(dims)}")
    ordered = sorted(present, key=lambda v: v.tobytes())
    return CMEVector(tag=tag, vector=_pairwise_sum(ordered))


def resolve_tag(tag: str) -> tuple[str, ...]:
    """Map a composition tag to its constituent view names.

    Canonical tags come from the registry; anything else must be a
    '+'-joined list of view names.
    """
    if tag in COMPOSITION_TAGS:
        return COMPOSITION_TAGS[tag]
    parts = tuple(p.strip() for p in tag.split("+"))
    if parts and all(p in VIEW_NAMES for p in parts):
        return parts
    raise CompositionError(
        f"tag {tag!r} is not a canonical tag and is not a '+'-joined list of view names"
    )


def build_cme(
    views: Mapping[str, ViewEmbeddingSet],
    tag: str,
) -> ViewEmbeddingSet:
    """Compose per-user vectors for every user covered by the constituents.

    A user absent from one constituent view (or present with a sentinel)
    contributes zero for that view; the per-view counts of such users are
    kept in sentinel_counts on the returned set, since silently zeroed
    views can bias classes.
    """
    names = resolve_tag(tag)
    missing = [name for name in names if name not in views]
    if missing:
        raise CompositionError(
            f"composition {tag!r} needs views {missing} which have not been built"
        )
    parts = [views[name] for name in names]
    users = sorted({user for part in parts for user in part.vectors})

    sentinel_counts = {name: 0 for name in names}
    composed: dict[str, Optional[np.ndarray]] = {}
    for user in users:
        constituents_for_user = []
        for name, part in zip(names, parts):
            vec = part.vectors.get(user)
            if vec is None:
                sentinel_counts[name] += 1
            constituents_for_user.append(vec)
        composed[user] = compose_add(constituents_for_user, tag=tag).vector

    return ViewEmbeddingSet(name=tag, vectors=composed, sentinel_counts=sentinel_counts)


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
