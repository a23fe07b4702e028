"""Oversampling, classification, and evaluation.

SMOTE balances the training folds by interpolating between same-class
nearest neighbors; the classifier is multinomial logistic regression fit
by limited-memory BFGS (L-BFGS) with an Armijo backtracking line search,
run until the relative loss change meets a tolerance or an iteration cap
is reached. Evaluation reports per-class and aggregate
precision/recall/F1 plus a confusion matrix, with optional deltas against
a named baseline run.

Oversampling is applied to training folds only; evaluation data is never
resampled.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .corpus import ClassLabel


class ClassifierError(Exception):
    """Training or prediction cannot proceed on the given inputs."""


# training stops once one iteration changes the loss by at most this, relative to max(1, loss)
TOLERANCE = 1e-9
# curvature pairs the L-BFGS two-loop recursion keeps
MEMORY = 10
# SMOTE computes within-class distances in row blocks whose difference tensor fits in this
_SMOTE_BLOCK_BYTES = 2**20


@dataclass
class SMOTEConfig:
    k_neighbors: int = 5
    target: Optional[int] = None  # None: oversample up to the majority count
    seed: int = 0
    duplicate_singletons: bool = False

    def __post_init__(self):
        if self.k_neighbors < 1:
            raise ValueError("k_neighbors must be >= 1")


@dataclass
class ClassifierConfig:
    l2_penalty: float = 1e-3
    epochs: int = 1000  # iteration cap

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not self.l2_penalty >= 0:
            raise ValueError(f"l2_penalty must be >= 0, got {self.l2_penalty}")


@dataclass
class ClassifierModel:
    classes: list
    weights: np.ndarray  # classes x (d + 1); last column is the bias
    loss_history: list[float] = field(default_factory=list)
    epochs: int = 0  # iterations taken
    converged: bool = False  # the loss change met the tolerance before the cap was reached

    @property
    def dimension(self) -> int:
        return int(self.weights.shape[1]) - 1


@dataclass
class FeatureMatrix:
    """Row-aligned features and user ids, the classifier's input unit."""

    features: np.ndarray
    user_ids: list[str]
    zero_filled: list[str] = field(default_factory=list)

    @property
    def dimension(self) -> int:
        return int(self.features.shape[1])


def feature_matrix_from_view(view_set, users: Optional[Sequence[str]] = None) -> FeatureMatrix:
    """Stack a view's per-user vectors into a matrix.

    Sentinel users get a zero row and are listed in zero_filled so reports
    can flag them.
    """
    if users is None:
        users = sorted(view_set.vectors.keys())
    dim = view_set.dimension
    rows = np.zeros((len(users), dim), dtype=np.float64)
    zero_filled = []
    for i, user in enumerate(users):
        vec = view_set.vectors.get(user)
        if vec is None:
            zero_filled.append(user)
        else:
            rows[i] = vec
    return FeatureMatrix(features=rows, user_ids=list(users), zero_filled=zero_filled)


def _class_order(labels) -> list:
    distinct = list(dict.fromkeys(labels))
    if all(isinstance(lbl, ClassLabel) for lbl in distinct):
        return [c for c in ClassLabel if c in set(distinct)]
    return sorted(distinct, key=str)


def smote(
    features: np.ndarray,
    labels: Sequence,
    config: Optional[SMOTEConfig] = None,
) -> tuple[np.ndarray, list]:
    """Oversample minority classes up to the target count.

    Each synthetic sample is x_i + u * (x_nn - x_i) with u uniform in
    [0, 1] and x_nn one of the k nearest same-class neighbors of x_i by
    Euclidean distance. Original rows are preserved verbatim, in their
    original order, ahead of the synthetics.
    """
    config = config or SMOTEConfig()
    feats = np.asarray(features, dtype=np.float64)
    labels = list(labels)
    if feats.shape[0] != len(labels):
        raise ValueError("features and labels disagree on sample count")

    order = _class_order(labels)
    counts = {cls: labels.count(cls) for cls in order}
    target = config.target if config.target is not None else max(counts.values())
    rng = np.random.default_rng(config.seed)

    new_rows = [feats]
    new_labels = list(labels)
    for cls in order:
        need = target - counts[cls]
        if need <= 0:
            continue
        idx = np.array([i for i, lbl in enumerate(labels) if lbl == cls])
        members = feats[idx]
        if len(idx) == 1:
            if not config.duplicate_singletons:
                raise ClassifierError(
                    f"class {cls!r} has a single sample; SMOTE needs >= 2 "
                    "(set duplicate_singletons=True to fall back to duplication)"
                )
            new_rows.append(np.repeat(members, need, axis=0))
            new_labels.extend([cls] * need)
            continue

        dists = _pairwise_distances(members)
        np.fill_diagonal(dists, np.inf)  # self is not a neighbor
        k = min(config.k_neighbors, len(idx) - 1)
        neighbor_ids = np.argsort(dists, axis=1, kind="stable")[:, :k]

        synthetic = np.empty((need, feats.shape[1]), dtype=np.float64)
        for s in range(need):
            i = int(rng.integers(len(idx)))
            nn = int(neighbor_ids[i, int(rng.integers(k))])
            u = rng.random()
            synthetic[s] = members[i] + u * (members[nn] - members[i])
        new_rows.append(synthetic)
        new_labels.extend([cls] * need)

    return np.vstack(new_rows), new_labels


def _pairwise_distances(members: np.ndarray) -> np.ndarray:
    """Euclidean distances between rows, one block of rows at a time.

    Each block forms the same differences and sums them along the same axis
    as the whole n x n x d tensor would, so the result is bit-identical.
    """
    n, d = members.shape
    rows = max(1, _SMOTE_BLOCK_BYTES // (8 * n * max(d, 1)))
    dists = np.empty((n, n), dtype=np.float64)
    for a in range(0, n, rows):
        diffs = members[a:a + rows, None, :] - members[None, :, :]
        dists[a:a + rows] = np.sqrt((diffs * diffs).sum(axis=2))
    return dists


def _augment(features: np.ndarray) -> np.ndarray:
    return np.hstack([features, np.ones((features.shape[0], 1))])


def _softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def logistic_loss_and_gradient(
    weights: np.ndarray,
    features_aug: np.ndarray,
    onehot: np.ndarray,
    l2_penalty: float,
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy with an L2 penalty on the non-bias weights."""
    n = features_aug.shape[0]
    probs = _softmax(features_aug @ weights.T)
    clipped = np.clip(probs, 1e-300, None)
    loss = -float((onehot * np.log(clipped)).sum()) / n
    penalized = weights.copy()
    penalized[:, -1] = 0.0  # bias is not penalized
    loss += 0.5 * l2_penalty * float((penalized * penalized).sum())
    grad = (probs - onehot).T @ features_aug / n + l2_penalty * penalized
    return loss, grad


def _lbfgs_direction(grad: np.ndarray, pairs: deque) -> np.ndarray:
    """Two-loop recursion: minus the inverse-Hessian estimate times grad."""
    q = grad.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        alpha = rho * np.vdot(s, q)
        q -= alpha * y
        alphas.append(alpha)
    if pairs:
        s, y, _ = pairs[-1]
        q *= np.vdot(s, y) / np.vdot(y, y)
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - rho * np.vdot(y, q)) * s
    return -q


def train_classifier(
    features: np.ndarray,
    labels: Sequence,
    config: Optional[ClassifierConfig] = None,
) -> ClassifierModel:
    """Fit multinomial logistic regression by L-BFGS (Liu & Nocedal 1989).

    Each iteration takes the two-loop direction over the last MEMORY
    curvature pairs and backtracks from step 1 until the Armijo condition
    holds, so the recorded loss history is non-increasing. A pair is kept
    only when s.y > 0, which keeps the inverse-Hessian estimate positive
    definite along flat directions. Training stops when one iteration
    changes the loss by at most TOLERANCE (converged), when 40 halvings
    find no step that decreases the loss enough, or after config.epochs
    iterations.
    """
    config = config or ClassifierConfig()
    feats = np.asarray(features, dtype=np.float64)
    labels = list(labels)
    classes = _class_order(labels)
    if len(classes) < 2:
        raise ClassifierError(f"need >= 2 classes to train, got {len(classes)}")
    class_index = {cls: i for i, cls in enumerate(classes)}
    y = np.array([class_index[lbl] for lbl in labels])
    x_aug = _augment(feats)
    onehot = np.zeros((len(labels), len(classes)))
    onehot[np.arange(len(labels)), y] = 1.0

    weights = np.zeros((len(classes), x_aug.shape[1]), dtype=np.float64)
    converged = False
    loss, grad = logistic_loss_and_gradient(weights, x_aug, onehot, config.l2_penalty)
    history = [loss]
    pairs: deque = deque(maxlen=MEMORY)
    for _iteration in range(config.epochs):
        direction = _lbfgs_direction(grad, pairs)
        slope = np.vdot(grad, direction)
        step = 1.0
        for _try in range(40):  # Armijo backtracking with c = 1e-4
            candidate = weights + step * direction
            new_loss, new_grad = logistic_loss_and_gradient(
                candidate, x_aug, onehot, config.l2_penalty
            )
            if new_loss <= loss + 1e-4 * step * slope:
                break
            step /= 2.0
        else:
            break
        moved, grad_change = candidate - weights, new_grad - grad
        curvature = np.vdot(moved, grad_change)
        if curvature > 0:
            pairs.append((moved, grad_change, 1.0 / curvature))
        converged = abs(loss - new_loss) <= TOLERANCE * max(1.0, abs(loss))
        weights, loss, grad = candidate, new_loss, new_grad
        history.append(loss)
        if converged:
            break

    if not np.all(np.isfinite(weights)):
        raise ClassifierError("training produced non-finite weights")
    return ClassifierModel(
        classes=classes,
        weights=weights,
        loss_history=history,
        epochs=len(history) - 1,
        converged=converged,
    )


def predict(model: ClassifierModel, features: np.ndarray) -> list:
    """Argmax of class scores; ties break toward the earlier class."""
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[1] != model.dimension:
        raise ClassifierError(
            f"feature dimension {feats.shape[1] if feats.ndim == 2 else feats.shape} "
            f"does not match model dimension {model.dimension}"
        )
    scores = _augment(feats) @ model.weights.T
    return [model.classes[i] for i in np.argmax(scores, axis=1)]


@dataclass
class EvaluationReport:
    classes: list
    precision: dict
    recall: dict
    f1: dict
    support: dict
    macro_precision: float
    macro_recall: float
    macro_f1: float
    micro_f1: float
    accuracy: float
    confusion: np.ndarray  # rows gold, columns predicted
    flags: list[str] = field(default_factory=list)
    comparison: Optional[dict] = None

    def to_dict(self) -> dict:
        out = {
            "classes": [_label_text(c) for c in self.classes],
            "per_class": {
                _label_text(c): {
                    "precision": self.precision[c],
                    "recall": self.recall[c],
                    "f1": self.f1[c],
                    "support": self.support[c],
                }
                for c in self.classes
            },
            "macro_precision": self.macro_precision,
            "macro_recall": self.macro_recall,
            "macro_f1": self.macro_f1,
            "micro_f1": self.micro_f1,
            "accuracy": self.accuracy,
            "confusion": [[int(v) for v in row] for row in self.confusion],
            "flags": list(self.flags),
        }
        if self.comparison is not None:
            out["comparison"] = self.comparison
        return out


def evaluate(predicted: Sequence, gold: Sequence, classes: Optional[list] = None) -> EvaluationReport:
    """Standard per-class precision/recall/F1 with macro and micro pooling.

    Zero-support or never-predicted classes report 0 for the undefined
    rates and are flagged rather than silently averaged away.
    """
    predicted = list(predicted)
    gold = list(gold)
    if len(predicted) != len(gold):
        raise ValueError(f"predicted ({len(predicted)}) and gold ({len(gold)}) lengths differ")
    if classes is None:
        classes = _class_order(gold + predicted)
    index = {cls: i for i, cls in enumerate(classes)}
    unknown = [lbl for lbl in set(predicted) | set(gold) if lbl not in index]
    if unknown:
        raise ValueError(f"labels outside the class alphabet: {unknown}")

    n = len(classes)
    cells = np.array([index[g] * n + index[p] for g, p in zip(gold, predicted)], dtype=np.int64)
    confusion = np.bincount(cells, minlength=n * n).reshape(n, n)
    tp = np.diag(confusion)
    predictions, support = confusion.sum(axis=0), confusion.sum(axis=1)
    precision = np.divide(tp, predictions, out=np.zeros(n), where=predictions > 0)
    recall = np.divide(tp, support, out=np.zeros(n), where=support > 0)
    denom = precision + recall
    f1 = np.divide(2 * precision * recall, denom, out=np.zeros(n), where=denom > 0)
    flags = [
        f"class {_label_text(cls)}: never predicted; precision reported as 0" if gold_count
        else f"class {_label_text(cls)}: zero support; recall reported as 0"
        for cls, predicted_count, gold_count in zip(classes, predictions, support)
        if predicted_count == 0 or gold_count == 0
    ]

    # micro-F1 equals accuracy for single-label data
    accuracy = float(np.trace(confusion)) / max(1, len(gold))
    return EvaluationReport(
        classes=classes,
        precision=dict(zip(classes, precision.tolist())),
        recall=dict(zip(classes, recall.tolist())),
        f1=dict(zip(classes, f1.tolist())),
        support=dict(zip(classes, support.tolist())),
        macro_precision=float(np.mean(precision)),
        macro_recall=float(np.mean(recall)),
        macro_f1=float(np.mean(f1)),
        micro_f1=accuracy,
        accuracy=accuracy,
        confusion=confusion,
        flags=flags,
    )


def _label_text(cls) -> str:
    return cls.name if isinstance(cls, ClassLabel) else str(cls)


def compare_to_baseline(report: EvaluationReport, baseline: EvaluationReport, name: str) -> None:
    """Attach macro-F1 / accuracy deltas against a named baseline run."""
    report.comparison = {
        "baseline": name,
        "macro_f1_delta": report.macro_f1 - baseline.macro_f1,
        "accuracy_delta": report.accuracy - baseline.accuracy,
        "baseline_macro_f1": baseline.macro_f1,
        "baseline_accuracy": baseline.accuracy,
    }


def format_report(report: EvaluationReport, title: str = "") -> str:
    """Human-readable table rendering of an evaluation report."""
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(f"{'class':<18}{'precision':>10}{'recall':>10}{'f1':>10}{'support':>10}")
    for cls in report.classes:
        lines.append(
            f"{_label_text(cls):<18}{report.precision[cls]:>10.4f}"
            f"{report.recall[cls]:>10.4f}{report.f1[cls]:>10.4f}{report.support[cls]:>10d}"
        )
    lines.append(
        f"{'macro':<18}{report.macro_precision:>10.4f}{report.macro_recall:>10.4f}"
        f"{report.macro_f1:>10.4f}{sum(report.support.values()):>10d}"
    )
    lines.append(f"accuracy {report.accuracy:.4f}   micro-f1 {report.micro_f1:.4f}")
    lines.append("confusion (rows gold, cols predicted):")
    header = "        " + "".join(f"{_label_text(c):>10}" for c in report.classes)
    lines.append(header)
    for i, cls in enumerate(report.classes):
        row = "".join(f"{int(v):>10d}" for v in report.confusion[i])
        lines.append(f"{_label_text(cls):<8}" + row)
    for flag in report.flags:
        lines.append(f"note: {flag}")
    if report.comparison:
        cmp = report.comparison
        lines.append(
            f"vs baseline {cmp['baseline']}: macro-f1 {cmp['macro_f1_delta']:+.4f}, "
            f"accuracy {cmp['accuracy_delta']:+.4f}"
        )
    return "\n".join(lines) + "\n"


def stratified_split(
    labels: Sequence,
    ratio: Optional[float] = None,
    folds: Optional[int] = None,
    seed: int = 0,
):
    """Class-proportional splits, deterministic given the seed.

    ratio mode returns (train_indices, test_indices); folds mode returns a
    list of (train_indices, test_indices) pairs, one per fold. Per-class
    proportions are preserved within one sample per split.
    """
    labels = list(labels)
    if (ratio is None) == (folds is None):
        raise ValueError("pass exactly one of ratio or folds")
    rng = np.random.default_rng(seed)
    by_class: dict = {}
    for i, lbl in enumerate(labels):
        by_class.setdefault(lbl, []).append(i)

    if ratio is not None:
        if not 0.0 < ratio < 1.0:
            raise ValueError("ratio must be in (0, 1)")
        train, test = [], []
        for cls in _class_order(labels):
            idx = np.array(by_class[cls])
            rng.shuffle(idx)
            cut = int(round(ratio * len(idx)))
            cut = min(max(cut, 1), len(idx) - 1) if len(idx) >= 2 else cut
            train.extend(idx[:cut].tolist())
            test.extend(idx[cut:].tolist())
        return np.array(sorted(train)), np.array(sorted(test))

    if folds < 2:
        raise ValueError("folds must be >= 2")
    small = [cls for cls, idx in by_class.items() if len(idx) < folds]
    if small:
        raise ValueError(
            f"classes smaller than the fold count {folds}: "
            + ", ".join(_label_text(c) for c in small)
        )
    assignments: list[list[int]] = [[] for _ in range(folds)]
    for cls in _class_order(labels):
        idx = np.array(by_class[cls])
        rng.shuffle(idx)
        for f in range(folds):
            assignments[f].extend(idx[f::folds].tolist())
    splits = []
    for f in range(folds):
        test = np.array(sorted(assignments[f]))
        train = np.array(sorted(set(range(len(labels))) - set(assignments[f])))
        splits.append((train, test))
    return splits
