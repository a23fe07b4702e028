import re
import tracemalloc

import numpy as np
import pytest

from cme.classify import (
    ClassifierConfig,
    ClassifierError,
    SMOTEConfig,
    evaluate,
    format_report,
    logistic_loss_and_gradient,
    predict,
    smote,
    stratified_split,
    train_classifier,
)
from cme.compose import ViewEmbeddingSet
from cme.corpus import ClassLabel


def on_some_segment(sample, members, tol=1e-9):
    """Independent oracle: sample lies on a segment between two members."""
    for i in range(len(members)):
        for j in range(len(members)):
            if i == j:
                continue
            a, b = members[i], members[j]
            d = b - a
            denom = float(d @ d)
            if denom == 0:
                if np.linalg.norm(sample - a) <= tol:
                    return True
                continue
            u = float((sample - a) @ d) / denom
            if -tol <= u <= 1 + tol and np.linalg.norm(a + u * d - sample) <= tol:
                return True
    return False


class TestSmote:
    def test_single_synthetic_on_segment(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [5.0, 5.0], [6.0, 6.0], [7.0, 7.0]])
        y = ["min", "min", "maj", "maj", "maj"]
        X2, y2 = smote(X, y, SMOTEConfig(k_neighbors=1, seed=1))
        assert y2.count("min") == 3
        synth = X2[5]
        # the minority pair is {(0,0),(1,1)}: synthetic is (t,t), t in [0,1]
        assert synth[0] == pytest.approx(synth[1], abs=1e-12)
        assert 0.0 <= synth[0] <= 1.0

    def test_balanced_input_unchanged(self):
        X = np.arange(12.0).reshape(6, 2)
        y = ["a", "a", "a", "b", "b", "b"]
        X2, y2 = smote(X, y, SMOTEConfig(seed=0))
        assert np.array_equal(X2, X)
        assert y2 == y

    def test_collinear_minority_stays_on_line(self):
        X = np.vstack(
            [
                [[t, 2 * t] for t in (0.0, 1.0, 2.0)],
                np.random.default_rng(0).normal(10, 1, (9, 2)),
            ]
        )
        y = ["min"] * 3 + ["maj"] * 9
        X2, y2 = smote(X, y, SMOTEConfig(k_neighbors=2, seed=3))
        for row, label in zip(X2[12:], y2[12:]):
            assert label == "min"
            assert row[1] == pytest.approx(2 * row[0], abs=1e-9)

    def test_originals_preserved_byte_exact(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((20, 4))
        y = ["a"] * 14 + ["b"] * 6
        original = X.copy()
        X2, _ = smote(X, y, SMOTEConfig(seed=7))
        assert X2[:20].tobytes() == original.tobytes()

    def test_singleton_class_is_kept_as_is(self):
        # one row has no neighbor to interpolate toward; it used to end the run
        X = np.array([[0.0], [1.0], [2.0], [3.0], [4.0], [5.0]])
        y = ["solo", "mid", "mid", "big", "big", "big"]
        X2, y2 = smote(X, y, SMOTEConfig(seed=0))
        assert X2[:6].tobytes() == X.tobytes() and y2[:6] == y
        assert y2[6:] == ["mid"] and 1.0 <= X2[6, 0] <= 2.0

    def test_synthetics_pass_segment_oracle(self):
        rng = np.random.default_rng(11)
        X = np.vstack([rng.normal(0, 1, (8, 3)), rng.normal(6, 1, (20, 3))])
        y = ["min"] * 8 + ["maj"] * 20
        X2, y2 = smote(X, y, SMOTEConfig(k_neighbors=3, seed=13))
        minority = X[:8]
        for row in X2[28:]:
            assert on_some_segment(row, minority)

    def test_duplicated_rows_match_the_whole_tensor_oracle(self):
        rng = np.random.default_rng(17)
        X = rng.standard_normal((60, 7))
        X[10:20] = X[:10]  # duplicated rows make exact distance ties
        X[20:22] = 0.0  # two zero rows, at distance 0 from each other
        y = ["min"] * 25 + ["maj"] * 35
        config = SMOTEConfig(k_neighbors=4, seed=5)
        rows, labels = smote(X, y, config)

        # oracle: neighbour lists from the whole n x n x d difference tensor, stable argsort
        members = X[:25]
        diffs = members[:, None, :] - members[None, :, :]
        dists = np.sqrt((diffs * diffs).sum(axis=2))
        np.fill_diagonal(dists, np.inf)
        neighbor_ids = np.argsort(dists, axis=1, kind="stable")[:, :4]
        draw = np.random.default_rng(5)
        expected = []
        for _ in range(10):
            i = int(draw.integers(25))
            nn = int(neighbor_ids[i, int(draw.integers(4))])
            expected.append(members[i] + draw.random() * (members[nn] - members[i]))
        assert np.array_equal(rows, np.vstack([X, expected]))
        assert labels == y + ["min"] * 10

    def test_wide_class_never_forms_the_difference_tensor(self):
        # a 400-row, 300-wide minority: its whole n x n x d tensor would be 384 MB
        rng = np.random.default_rng(3)
        X = rng.standard_normal((801, 300))
        y = ["min"] * 400 + ["maj"] * 401
        tracemalloc.start()
        try:
            smote(X, y, SMOTEConfig(seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_explicit_target_reached(self):
        # every class is oversampled to the majority count, and the majority gains nothing
        X = np.vstack([np.eye(2), np.eye(2) + 4, np.eye(2) + 8, np.ones((3, 2))])
        y = ["a", "a", "b", "b", "c", "c", "c", "c", "c"]
        X2, y2 = smote(X, y, SMOTEConfig(k_neighbors=1, seed=2))
        assert (y2.count("a"), y2.count("b"), y2.count("c")) == (5, 5, 5)
        assert X2.shape == (15, 2)


class TestClassifier:
    def _separable(self, n=30, seed=0):
        rng = np.random.default_rng(seed)
        X = np.vstack([rng.normal(-2, 0.4, (n, 2)), rng.normal(2, 0.4, (n, 2))])
        y = ["neg"] * n + ["pos"] * n
        return X, y

    def test_separable_reaches_perfect_training_accuracy(self):
        X, y = self._separable()
        model = train_classifier(X, y, ClassifierConfig(epochs=500))
        assert predict(model, X) == y

    def test_convergence_reported(self):
        X, y = self._separable()
        model = train_classifier(X, y, ClassifierConfig(epochs=100_000))
        assert model.converged
        assert 1 < model.epochs < 100_000
        assert model.epochs == len(model.loss_history) - 1

    def test_budget_exhaustion_not_converged(self):
        X, y = self._separable()
        model = train_classifier(X, y, ClassifierConfig(epochs=1))
        assert not model.converged
        assert model.epochs == 1

    def test_identical_features_give_uniform_probabilities(self):
        X = np.ones((10, 3))
        y = ["a"] * 5 + ["b"] * 5
        model = train_classifier(X, y, ClassifierConfig(epochs=100))
        # equal class scores are equal softmax probabilities
        scores = np.hstack([X, np.ones((10, 1))]) @ model.weights.T
        np.testing.assert_allclose(scores[:, 0], scores[:, 1], atol=1e-6)

    def test_wide_instance_converges_under_default_cap(self):
        # more features than rows: the fit is only bounded by the L2 penalty
        rng = np.random.default_rng(21)
        X = rng.standard_normal((40, 120))
        y = ["a"] * 14 + ["b"] * 14 + ["c"] * 12
        model = train_classifier(X, y, ClassifierConfig(l2_penalty=1e-3))
        assert model.converged
        onehot = np.zeros((40, 3))
        onehot[np.arange(40), [model.classes.index(lbl) for lbl in y]] = 1.0
        _, grad = logistic_loss_and_gradient(
            model.weights, np.hstack([X, np.ones((40, 1))]), onehot, 1e-3
        )
        assert np.abs(grad).max() <= 1e-4

    def test_zero_weights_tie_break_to_first_class(self):
        X, y = self._separable()
        model = train_classifier(X, y, ClassifierConfig(epochs=1))
        model.weights[:] = 0.0
        assert set(predict(model, X)) == {"neg"}  # first class in order

    def test_scaled_features_scaled_weights_same_argmax(self):
        X, y = self._separable(seed=3)
        model = train_classifier(X, y, ClassifierConfig(epochs=200))
        base = predict(model, X)
        scaled_model = train_classifier(X, y, ClassifierConfig(epochs=200))
        scaled_model.weights[:, :-1] /= 10.0
        assert predict(scaled_model, X * 10.0) == base

    @pytest.mark.parametrize(
        "field, value",
        [("epochs", 0), ("epochs", -3), ("l2_penalty", -1.0), ("l2_penalty", float("nan"))],
        ids=["zero-epochs", "negative-epochs", "negative-penalty", "nan-penalty"],
    )
    def test_config_range_checked(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} "):
            ClassifierConfig(**{field: value})

    def test_single_class_rejected(self):
        with pytest.raises(ClassifierError):
            train_classifier(np.ones((4, 2)), ["a"] * 4)

    def test_dimension_mismatch_rejected(self):
        X, y = self._separable()
        model = train_classifier(X, y, ClassifierConfig(epochs=10))
        with pytest.raises(ClassifierError):
            predict(model, np.ones((3, 5)))

    def test_loss_history_non_increasing(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((40, 6))
        y = ["a" if rng.random() < 0.5 else "b" for _ in range(40)]
        model = train_classifier(X, y, ClassifierConfig(epochs=200))
        history = np.array(model.loss_history)
        assert np.all(np.diff(history) <= 1e-9)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        n, d, c = 12, 4, 3
        X = np.hstack([rng.standard_normal((n, d)), np.ones((n, 1))])
        onehot = np.zeros((n, c))
        onehot[np.arange(n), rng.integers(0, c, n)] = 1.0
        W = rng.standard_normal((c, d + 1)) * 0.3
        loss, grad = logistic_loss_and_gradient(W, X, onehot, l2_penalty=0.01)
        h = 1e-6
        for _ in range(25):
            i, j = int(rng.integers(c)), int(rng.integers(d + 1))
            Wp, Wm = W.copy(), W.copy()
            Wp[i, j] += h
            Wm[i, j] -= h
            lp, _ = logistic_loss_and_gradient(Wp, X, onehot, 0.01)
            lm, _ = logistic_loss_and_gradient(Wm, X, onehot, 0.01)
            fd = (lp - lm) / (2 * h)
            assert grad[i, j] == pytest.approx(fd, rel=1e-5, abs=1e-10)

    def test_deterministic_training(self):
        X, y = self._separable(seed=4)
        m1 = train_classifier(X, y, ClassifierConfig(epochs=100))
        m2 = train_classifier(X, y, ClassifierConfig(epochs=100))
        assert np.array_equal(m1.weights, m2.weights)

    def test_three_class_labels_enum_order(self):
        rng = np.random.default_rng(7)
        X = np.vstack([rng.normal(c * 3, 0.3, (10, 2)) for c in range(3)])
        y = (
            [ClassLabel.PERSONAL] * 10
            + [ClassLabel.INFORMED_AGENCY] * 10
            + [ClassLabel.RETAIL] * 10
        )
        model = train_classifier(X, y, ClassifierConfig(epochs=400))
        assert model.classes == [
            ClassLabel.PERSONAL,
            ClassLabel.INFORMED_AGENCY,
            ClassLabel.RETAIL,
        ]
        assert np.mean([p == g for p, g in zip(predict(model, X), y)]) == 1.0


def _hand_counted(predicted, gold, classes):
    """Per-class (precision, recall, F1, support) and the flags, counted label by label."""
    figures, flags = {}, []
    for cls in classes:
        name = cls.name if isinstance(cls, ClassLabel) else cls
        tp = sum(p == cls and g == cls for p, g in zip(predicted, gold))
        shown, held = predicted.count(cls), gold.count(cls)
        precision = tp / shown if shown else 0.0
        recall = tp / held if held else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        figures[cls] = (precision, recall, f1, held)
        if held == 0:
            left_out = "" if shown else "; left out of the macro averages"
            flags.append(f"class {name}: zero support; recall reported as 0{left_out}")
        elif shown == 0:
            flags.append(f"class {name}: never predicted; precision reported as 0")
    return figures, flags


PER, INF, RET = ClassLabel


class TestEvaluate:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "held, shown, classes, order",
        [
            ([PER, INF], [INF, RET], None, [PER, INF, RET]),
            ([RET, PER], [PER], [PER, INF, RET], [PER, INF, RET]),
            (["b", "c", "d"], ["c", "d", "e"], None, ["b", "c", "d", "e"]),
            (["b", "c", "d"], ["c", "d", "e"], ["e", "d", "c", "b", "a"], ["e", "d", "c", "b", "a"]),
        ],
        ids=["class-labels", "class-labels-given-classes", "strings", "strings-given-classes"],
    )
    def test_matches_hand_counted_figures(self, seed, held, shown, classes, order):
        # gold draws from `held` and predictions from `shown`: a held class not shown is
        # never predicted, and a class not held (shown, or given in neither) has zero support;
        # the macro averages leave out a class given in neither
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 60))
        gold = [held[i] for i in rng.integers(len(held), size=n)]
        predicted = [shown[i] for i in rng.integers(len(shown), size=n)]
        report = evaluate(predicted, gold, classes=classes)
        figures, flags = _hand_counted(predicted, gold, order)
        assert report.classes == order
        for field, column in (("precision", 0), ("recall", 1), ("f1", 2), ("support", 3)):
            assert getattr(report, field) == {cls: row[column] for cls, row in figures.items()}, field
        averaged = [figures[cls][2] for cls in order if cls in gold or cls in predicted]
        assert report.macro_f1 == sum(averaged) / len(averaged)
        assert report.flags == flags
        assert any("never predicted" in f for f in flags) and any("zero support" in f for f in flags)
        cells = [[sum(g == a and p == b for g, p in zip(gold, predicted)) for b in order] for a in order]
        assert report.confusion.tolist() == cells

    def test_perfect_prediction(self):
        gold = ["a", "b", "a", "b"]
        report = evaluate(gold, gold)
        assert report.macro_f1 == 1.0 and report.accuracy == 1.0

    def test_hand_computed_confusion(self):
        # class "a": TP=1, FP=1, FN=0 -> precision 0.5, recall 1.0, F1 2/3
        gold = ["a", "b"]
        predicted = ["a", "a"]
        report = evaluate(predicted, gold)
        assert report.precision["a"] == pytest.approx(0.5)
        assert report.recall["a"] == pytest.approx(1.0)
        assert report.f1["a"] == pytest.approx(2 / 3)

    def test_class_with_no_test_user_and_no_prediction_is_left_out_of_the_macro_averages(self):
        # a Retail class the split left out of the test fold used to cap macro-F1 at 2/3
        report = evaluate([PER, PER, INF], [PER, PER, INF], classes=[PER, INF, RET])
        assert (report.macro_precision, report.macro_recall, report.macro_f1) == (1.0, 1.0, 1.0)
        assert (report.f1[RET], report.support[RET]) == (0.0, 0)
        assert report.flags == ["class RETAIL: zero support; recall reported as 0; left out of the macro averages"]

    def test_predicted_class_with_no_test_user_stays_in_the_macro_averages(self):
        report = evaluate([PER, RET, INF], [PER, PER, INF], classes=[PER, INF, RET])
        assert (report.precision[RET], report.f1[RET]) == (0.0, 0.0)
        assert report.macro_precision == pytest.approx((1.0 + 1.0 + 0.0) / 3)
        assert report.macro_f1 == pytest.approx((2 / 3 + 1.0 + 0.0) / 3)
        assert report.flags == ["class RETAIL: zero support; recall reported as 0"]

    def test_never_predicted_class_flagged(self):
        report = evaluate(["a", "a", "a"], ["a", "a", "b"])
        assert report.precision["b"] == 0.0
        assert any("never predicted" in f for f in report.flags)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            evaluate(["a"], ["a", "b"])

    def test_confusion_row_sums_equal_support(self):
        gold = ["a", "a", "b", "b", "b"]
        predicted = ["a", "b", "b", "a", "b"]
        report = evaluate(predicted, gold)
        for i, cls in enumerate(report.classes):
            assert report.confusion[i].sum() == report.support[cls]

    def test_format_report_renders(self):
        report = evaluate(["a", "b"], ["a", "b"])
        text = format_report(report, title="demo")
        assert "macro" in text and "confusion" in text

    def test_confusion_table_keeps_labels_and_counts_apart(self):
        # INFORMED_AGENCY filled its 10-wide column, so the header read "PERSONALINFORMED_AGENCY"
        gold = [PER] * 120 + [INF, INF, RET]
        predicted = [PER] * 119 + [INF, INF, PER, RET]
        text = format_report(evaluate(predicted, gold))
        table = text.split("confusion (rows gold, cols predicted):\n")[1].splitlines()
        names = ["PERSONAL", "INFORMED_AGENCY", "RETAIL"]
        assert table[0].split() == names
        ends = [m.end() for m in re.finditer(r"\S+", table[0])]
        for name, line, counts in zip(names, table[1:], evaluate(predicted, gold).confusion.tolist()):
            label, *cells = line.split()
            assert (label, [int(cell) for cell in cells]) == (name, counts)
            assert [m.end() for m in re.finditer(r"\S+", line)][1:] == ends

    def test_to_dict_roundtrips_thru_json(self):
        import json

        report = evaluate(["a", "b", "b"], ["a", "b", "a"])
        payload = json.loads(json.dumps(report.to_dict(), sort_keys=True))
        assert payload["accuracy"] == pytest.approx(report.accuracy)


class TestStratifiedSplit:
    def test_ratio_example(self):
        labels = ["a"] * 10 + ["b"] * 10
        train, test = stratified_split(labels, ratio=0.8, seed=0)
        assert len(train) == 16 and len(test) == 4
        assert sum(1 for i in train if labels[i] == "a") == 8
        assert sum(1 for i in test if labels[i] == "b") == 2

    def test_deterministic_given_seed(self):
        labels = ["a"] * 9 + ["b"] * 7
        first = stratified_split(labels, ratio=0.7, seed=42)
        second = stratified_split(labels, ratio=0.7, seed=42)
        assert np.array_equal(first[0], second[0]) and np.array_equal(first[1], second[1])


class TestFeatureMatrix:
    def test_sentinels_zero_filled_and_flagged(self):
        view = ViewEmbeddingSet(
            "T+D", {"u0": np.array([1.0, 2.0]), "u1": None, "u2": np.array([3.0, 4.0])}
        )
        features, present = view.take(["u0", "u1", "u2"])
        assert view.user_ids == ["u0", "u1", "u2"]
        assert features[1].tolist() == [0.0, 0.0]
        assert [u for u, p in zip(view.user_ids, present) if not p] == ["u1"]
