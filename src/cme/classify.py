"""Oversampling, classification, and evaluation.

SMOTE balances the training folds by interpolating between same-class
nearest neighbors; the classifier is multinomial logistic regression fit
by limited-memory BFGS (L-BFGS) with an Armijo backtracking line search,
run until the relative loss change meets a tolerance or an iteration cap
is reached. Evaluation reports per-class and macro-averaged
precision/recall/F1, accuracy and a confusion matrix for one run;
comparing runs is the report stage's job.

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


@dataclass
class SMOTEConfig:
    k_neighbors: int = 5
    seed: int = 0

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
    loss_history: list[float] = field(default_factory=list)  # the starting loss, then one per iteration
    converged: bool = False  # the loss change met the tolerance before the cap was reached

    @property
    def dimension(self) -> int:
        return int(self.weights.shape[1]) - 1

    @property
    def epochs(self) -> int:
        """Iterations taken."""
        return len(self.loss_history) - 1


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
    """Oversample minority classes up to the majority count.

    Each synthetic sample is x_i + u * (x_nn - x_i) with u uniform in
    [0, 1] and x_nn one of the k nearest same-class neighbors of x_i by
    Euclidean distance. Original rows are preserved verbatim, in their
    original order, ahead of the synthetics. A class with one row has no
    neighbor to interpolate toward and is kept as it is.

    A class's distances are taken one member at a time, so besides the
    n x n distance matrix the scratch is one n x d difference block;
    the n x n x d difference tensor is never formed.
    """
    config = config or SMOTEConfig()
    feats = np.asarray(features, dtype=np.float64)
    labels = list(labels)
    if feats.shape[0] != len(labels):
        raise ValueError("features and labels disagree on sample count")

    order = _class_order(labels)
    counts = {cls: labels.count(cls) for cls in order}
    target = max(counts.values())
    rng = np.random.default_rng(config.seed)

    new_rows = [feats]
    new_labels = list(labels)
    for cls in order:
        need = target - counts[cls]
        if need <= 0 or counts[cls] == 1:
            continue
        idx = np.array([i for i, lbl in enumerate(labels) if lbl == cls])
        members = feats[idx]

        dists = np.empty((len(idx), len(idx)))
        for i, row in enumerate(members):
            dists[i] = np.sqrt(((members - row) ** 2).sum(axis=1))
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
    return ClassifierModel(classes=classes, weights=weights, loss_history=history, converged=converged)


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
    accuracy: float
    confusion: np.ndarray  # rows gold, columns predicted
    flags: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
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
            "accuracy": self.accuracy,
            "confusion": [[int(v) for v in row] for row in self.confusion],
            "flags": list(self.flags),
        }


def evaluate(predicted: Sequence, gold: Sequence, classes: Optional[list] = None) -> EvaluationReport:
    """Standard per-class precision/recall/F1 with their macro averages, and accuracy.

    Zero-support or never-predicted classes report 0 for the undefined
    rates and are flagged. The macro averages run over the classes with
    test support or predictions (scikit-learn's label set); a class with
    neither keeps its per-class entry and is flagged as left out of them.
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
        + ("" if predicted_count else "; left out of the macro averages")
        for cls, predicted_count, gold_count in zip(classes, predictions, support)
        if predicted_count == 0 or gold_count == 0
    ]
    averaged = (predictions > 0) | (support > 0)

    def macro(rates: np.ndarray) -> float:
        return float(np.mean(rates[averaged])) if averaged.any() else 0.0

    accuracy = float(np.trace(confusion)) / max(1, len(gold))
    return EvaluationReport(
        classes=classes,
        precision=dict(zip(classes, precision.tolist())),
        recall=dict(zip(classes, recall.tolist())),
        f1=dict(zip(classes, f1.tolist())),
        support=dict(zip(classes, support.tolist())),
        macro_precision=macro(precision),
        macro_recall=macro(recall),
        macro_f1=macro(f1),
        accuracy=accuracy,
        confusion=confusion,
        flags=flags,
    )


def _label_text(cls) -> str:
    return cls.name if isinstance(cls, ClassLabel) else str(cls)


def format_report(report: EvaluationReport, title: str = "") -> str:
    """Human-readable table rendering of an evaluation report.

    The confusion table's columns are as wide as its longest class label
    or count, plus a gap, so labels and counts never run together.
    """
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
    lines.append(f"accuracy {report.accuracy:.4f}")
    lines.append("confusion (rows gold, cols predicted):")
    names = [_label_text(c) for c in report.classes]
    width = 2 + max(len(text) for text in names + [str(int(report.confusion.max(initial=0)))])
    lines.append(" " * width + "".join(f"{name:>{width}}" for name in names))
    for name, row in zip(names, report.confusion):
        lines.append(f"{name:<{width}}" + "".join(f"{int(v):>{width}d}" for v in row))
    for flag in report.flags:
        lines.append(f"note: {flag}")
    return "\n".join(lines) + "\n"


def stratified_split(labels: Sequence, ratio: float, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """(train_indices, test_indices), class-proportional and deterministic given the seed.

    Each class puts round(ratio * size) of its rows, shuffled, in the
    training split, but always at least one row in each split when it has
    two or more; a one-row class goes where the rounding puts it. Both
    index arrays are sorted.
    """
    labels = list(labels)
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must be in (0, 1)")
    rng = np.random.default_rng(seed)
    by_class: dict = {}
    for i, lbl in enumerate(labels):
        by_class.setdefault(lbl, []).append(i)
    train, test = [], []
    for cls in _class_order(labels):
        idx = np.array(by_class[cls])
        rng.shuffle(idx)
        cut = int(round(ratio * len(idx)))
        cut = min(max(cut, 1), len(idx) - 1) if len(idx) >= 2 else cut
        train.extend(idx[:cut].tolist())
        test.extend(idx[cut:].tolist())
    return np.array(sorted(train)), np.array(sorted(test))
