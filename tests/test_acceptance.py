"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line. Run with `pytest tests/test_acceptance.py -v -s`.

Each criterion states its budget (tolerance and wall-clock) inline; the
timing assertions use the same numbers.
"""

import json
import math
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from cme import compose, netembed, pipeline, synth
from cme.classify import (
    ClassifierConfig,
    SMOTEConfig,
    logistic_loss_and_gradient,
    smote,
)
from cme.cli import main as cli_main
from cme.corpus import InteractionKind, InteractionRecord
from cme.emoji import EmojiSenseEntry, emoji_embedding
from cme.preprocess import load_lemma_table, load_stopwords
from cme.wemodel import TrainingConfig, WEModel, train_skipgram, vector, view_embedding


@contextmanager
def criterion(num: int, name: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:02d} FAIL {name}")
        raise
    print(f"\nACCEPTANCE {num:02d} PASS {name} ({time.perf_counter() - started:.1f}s)")


def _cos(u, v):
    return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))


def test_01_svd_oracle_equivalence():
    """100 seeded random symmetric PSD matrices up to 50x50: singular values
    within 1e-8 of a dense LAPACK eigensolver, rank-m reconstruction error
    < 1e-8, in under 30 s."""
    with criterion(1, "SVD oracle equivalence"):
        rng = np.random.default_rng(2026)
        t0 = time.perf_counter()
        for trial in range(100):
            n = int(rng.integers(2, 51))
            if trial % 2 == 0:
                b = rng.standard_normal((n, n)) / np.sqrt(n)
            else:
                # cosine-style input: gram of unit rows of a sparse count matrix
                b = rng.random((n, n + 5)) * (rng.random((n, n + 5)) < 0.3)
                b[b.sum(axis=1) == 0, 0] = 1.0
                b = b / np.linalg.norm(b, axis=1, keepdims=True)
            m = b @ b.T
            factors = netembed.truncated_svd(m, n)
            reference = np.maximum(np.linalg.eigvalsh(m)[::-1], 0.0)
            assert np.abs(factors.sigma - reference).max() < 1e-8
            recon = factors.u @ np.diag(factors.sigma) @ factors.u.T
            assert np.linalg.norm(recon - m) < 1e-8
        assert time.perf_counter() - t0 < 30.0


def _bruteforce_spearman(x, y):
    def ranks(vals):
        return [
            1.0 + sum(1 for w in vals if w < v) + (sum(1 for w in vals if w == v) - 1) / 2.0
            for v in vals
        ]

    rx, ry = ranks(list(x)), ranks(list(y))
    n = len(rx)
    mx, my = sum(rx) / n, sum(ry) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    return cov / (vx * vy) ** 0.5


def test_02_spearman_oracle_equivalence():
    """Brute-force O(n^2) rank oracle agreement within 1e-12 on 1000 random
    pairs (n <= 20); the hand case equals its own printed derivation
    1 - 6*4/(5*24) = 0.8; and over 100 independently seeded random view
    pairs the fraction with p < 0.01 is <= 0.05 (the dataset-dependent
    reference table values are declared not reproducible)."""
    with criterion(2, "Spearman oracle equivalence + independence property"):
        rng = np.random.default_rng(77)
        done = 0
        while done < 1000:
            n = int(rng.integers(3, 21))
            x = rng.standard_normal(n)
            y = rng.standard_normal(n)
            if rng.random() < 0.3:
                x, y = np.round(x * 2), np.round(y * 2)
            if len(set(x.tolist())) < 2 or len(set(y.tolist())) < 2:
                continue
            assert abs(compose.spearman(x, y).rho - _bruteforce_spearman(x, y)) < 1e-12
            done += 1

        hand = compose.spearman([1, 2, 3, 4, 5], [2, 1, 4, 3, 5]).rho
        derived = 1 - 6 * 4 / (5 * 24)  # the criterion's own formula: 0.8
        assert abs(hand - derived) < 1e-15
        assert abs(hand - _bruteforce_spearman([1, 2, 3, 4, 5], [2, 1, 4, 3, 5])) < 1e-12

        significant = 0
        for seed in range(100):
            rng_a = np.random.default_rng(10_000 + seed)
            rng_b = np.random.default_rng(20_000 + seed)
            view_a = compose.ViewEmbeddingSet(
                "A", {f"u{i}": rng_a.standard_normal(10) for i in range(50)}
            )
            view_b = compose.ViewEmbeddingSet(
                "B", {f"u{i}": rng_b.standard_normal(10) for i in range(50)}
            )
            if compose.correlate_views(view_a, view_b).p_value < 0.01:
                significant += 1
        assert significant / 100 <= 0.05


def test_03_view_embedding_exactness():
    """view_embedding equals the brute-force sum/count oracle within 1e-12
    per component for 1000 random token lists (length up to 1000)."""
    with criterion(3, "view-embedding exactness vs brute-force oracle"):
        rng = np.random.default_rng(513)
        words = [f"w{i}" for i in range(80)]
        model = WEModel(
            vocabulary={w: i for i, w in enumerate(words)},
            vectors=rng.standard_normal((80, 16)),
        )
        for _ in range(1000):
            length = int(rng.integers(1, 1001))
            tokens = [
                words[int(rng.integers(80))] if rng.random() < 0.9 else "oov"
                for _ in range(length)
            ]
            out = view_embedding(tokens, model)
            rows = [model.vocabulary[t] for t in tokens if t in model.vocabulary]
            if not rows:
                assert out is None
                continue
            for j in range(16):
                expected = math.fsum(float(model.vectors[i, j]) for i in rows) / len(rows)
                assert abs(out[j] - expected) < 1e-12


def test_04_matrix_chain_shape_fidelity():
    """A 1149-source, 1701-target synthetic run walks the documented shape
    chain 1149x1701 -> 1149x1149 -> 1149x300 with the cosine-matrix
    invariants (symmetry 1e-10, unit diagonal, [0,1] range), in under 2 min."""
    with criterion(4, "matrix-chain shape fidelity at reference scale"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(4)
        m, n, k = 1149, 1701, 300
        sources = [f"src{i:04d}" for i in range(m)]
        targets = [f"tgt{i:04d}" for i in range(n)]
        hubs = rng.choice(n, size=40, replace=False)
        records = []
        for i, source in enumerate(sources):
            events = 1 + int(rng.poisson(3))
            hit = set()
            for _ in range(events):
                if rng.random() < 0.6:
                    hit.add(int(hubs[int(rng.integers(40))]))
                else:
                    hit.add(int(rng.integers(n)))
            for j in hit:
                kind = InteractionKind.RETWEET if rng.random() < 0.7 else InteractionKind.MENTION
                records.append(
                    InteractionRecord(source, targets[j], kind, int(rng.integers(1, 4)))
                )

        adjacency = netembed.build_adjacency(records, sources, targets)
        assert adjacency.shape == (m, n)
        normalized = netembed.row_normalize(adjacency)
        cosine = netembed.cosine_similarity_matrix(normalized)
        assert cosine.shape == (m, m)
        assert np.abs(cosine.values - cosine.values.T).max() <= 1e-10
        assert cosine.values.min() >= 0.0 and cosine.values.max() <= 1.0
        nonzero = np.setdiff1d(np.arange(m), np.array(cosine.zero_rows, dtype=int))
        assert np.all(cosine.values[nonzero, nonzero] == 1.0)

        factors = netembed.truncated_svd(cosine, k)
        embedding = netembed.network_embedding(factors, mode="paper", row_ids=sources)
        assert embedding.matrix.shape == (m, k)
        assert np.all(np.isfinite(embedding.matrix))
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0


def _on_some_segment(sample, members, tol=1e-9):
    for i in range(len(members)):
        for j in range(len(members)):
            if i == j:
                continue
            a, b = members[i], members[j]
            d = b - a
            denom = float(d @ d)
            if denom == 0:
                continue
            u = float((sample - a) @ d) / denom
            if -tol <= u <= 1 + tol and np.linalg.norm(a + u * d - sample) <= tol:
                return True
    return False


def test_05_smote_properties():
    """1000 synthetic samples across seeded runs: every one passes the
    independent segment-membership oracle, class counts reach the target,
    originals survive byte-exact; whole run under 10 s."""
    with criterion(5, "SMOTE segment/hull membership and count properties"):
        t0 = time.perf_counter()
        produced = 0
        seed = 0
        while produced < 1000:
            seed += 1
            rng = np.random.default_rng(seed)
            d = int(rng.integers(2, 6))
            n_min = int(rng.integers(3, 9))
            n_maj = n_min + int(rng.integers(10, 30))
            X = np.vstack(
                [rng.normal(0, 1, (n_min, d)), rng.normal(5, 1, (n_maj, d))]
            )
            y = ["min"] * n_min + ["maj"] * n_maj
            original = X.copy()
            X2, y2 = smote(X, y, SMOTEConfig(k_neighbors=3, seed=seed))
            assert y2.count("min") == n_maj and y2.count("maj") == n_maj
            assert X2[: len(y)].tobytes() == original.tobytes()
            minority = original[:n_min]
            for row in X2[len(y):]:
                assert _on_some_segment(row, minority)
                produced += 1
        assert time.perf_counter() - t0 < 10.0


def test_06_skipgram_semantic_property():
    """Two-topic corpus with a fixed seed: mean intra-topic cosine beats
    mean cross-topic cosine by at least 0.2, bit-identical across reruns,
    under 60 s."""
    with criterion(6, "skip-gram two-topic semantic margin"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(5)
        topic_a = [f"a{i}" for i in range(5)]
        topic_b = [f"b{i}" for i in range(5)]
        sentences = []
        for _ in range(600):
            sentences.append([topic_a[int(rng.integers(5))] for _ in range(int(rng.integers(4, 9)))])
            sentences.append([topic_b[int(rng.integers(5))] for _ in range(int(rng.integers(4, 9)))])
        order = rng.permutation(len(sentences))
        sentences = [sentences[i] for i in order]
        config = TrainingConfig(
            dimension=30, window=5, negatives=10, epochs=5, min_count=1,
            subsample_threshold=0, seed=11,
        )
        model = train_skipgram(sentences, config)
        rerun = train_skipgram(sentences, config)
        assert np.array_equal(model.vectors, rerun.vectors)

        vecs = {w: vector(model, w) for w in topic_a + topic_b}
        intra = [
            _cos(vecs[p[i]], vecs[p[j]])
            for p in (topic_a, topic_b)
            for i in range(5)
            for j in range(i + 1, 5)
        ]
        cross = [_cos(vecs[a], vecs[b]) for a in topic_a for b in topic_b]
        margin = float(np.mean(intra) - np.mean(cross))
        assert margin >= 0.2
        assert time.perf_counter() - t0 < 60.0


def _split_signal_synth(seed):
    profiles = {
        cls: replace(profile, class_word_prob=0.12)
        for cls, profile in synth.default_profiles().items()
    }
    return synth.generate(synth.SynthConfig(profiles=profiles, seed=seed))


def test_07_end_to_end_composition_benefit():
    """On split-signal synth data (network rates 0.9/0.09, 11.08/3.53,
    retail invented), the N+T+E composition's macro-F1 meets or beats the
    text-only (T+D) baseline on the interaction-connected subset for all 5
    seeds, strictly for at least 4; full run under 5 min. The reference
    headline numbers (F=0.96, +8%) are dataset-dependent and declared not
    reproducible; this structural analogue is the gate."""
    with criterion(7, "end-to-end composition benefit over text baseline"):
        t0 = time.perf_counter()
        stopwords = load_stopwords()
        lemmas = load_lemma_table()
        from cme.emoji import load_emoji_lexicon

        lexicon = load_emoji_lexicon()
        at_least = 0
        strictly = 0
        for seed in range(5):
            dataset = _split_signal_synth(300 + seed)
            labels = dataset.labels()
            prepared = pipeline.prepare_users(dataset, stopwords, lemmas)
            config = TrainingConfig(
                dimension=50, epochs=3, min_count=2, subsample_threshold=0, seed=seed
            )
            content, people = pipeline.train_view_models(prepared, config)
            views = pipeline.build_text_views(prepared, content, people, lexicon)
            net_view, _ = pipeline.build_network_view(
                dataset, 50, mode="conventional", k=10
            )
            views["Network"] = net_view
            connected = sorted({r.source for r in dataset.interactions} & set(labels))
            run = lambda tag: pipeline.run_experiment(  # noqa: E731
                compose.build_cme(views, tag),
                labels,
                connected,
                seed=seed,
                smote_config=SMOTEConfig(seed=seed),
                classifier_config=ClassifierConfig(),
            )
            baseline = run("T+D").report.macro_f1
            composed = run("N+T+E").report.macro_f1
            if composed >= baseline:
                at_least += 1
            if composed > baseline:
                strictly += 1
        assert at_least == 5
        assert strictly >= 4
        assert time.perf_counter() - t0 < 300.0


def test_08_classifier_gradient_check():
    """Analytic logistic gradient matches central finite differences within
    1e-5 relative error on random small instances."""
    with criterion(8, "logistic gradient vs finite differences"):
        rng = np.random.default_rng(88)
        for _instance in range(10):
            n = int(rng.integers(5, 15))
            d = int(rng.integers(2, 6))
            c = int(rng.integers(2, 5))
            X = np.hstack([rng.standard_normal((n, d)), np.ones((n, 1))])
            onehot = np.zeros((n, c))
            onehot[np.arange(n), rng.integers(0, c, n)] = 1.0
            W = rng.standard_normal((c, d + 1)) * 0.5
            l2 = float(rng.random() * 0.1)
            _, grad = logistic_loss_and_gradient(W, X, onehot, l2)
            h = 1e-6
            for i in range(c):
                for j in range(d + 1):
                    Wp, Wm = W.copy(), W.copy()
                    Wp[i, j] += h
                    Wm[i, j] -= h
                    lp, _ = logistic_loss_and_gradient(Wp, X, onehot, l2)
                    lm, _ = logistic_loss_and_gradient(Wm, X, onehot, l2)
                    fd = (lp - lm) / (2 * h)
                    denom = max(abs(grad[i, j]), abs(fd), 1e-8)
                    assert abs(grad[i, j] - fd) / denom < 1e-5


def test_09_cli_determinism(tmp_path):
    """The full CLI chain with fixed seeds produces bit-identical reports
    across two consecutive runs (fresh output roots force recompute)."""
    with criterion(9, "CLI chain bit-identical reports"):
        config_path = tmp_path / "cfg.ini"
        config_path.write_text(
            f"""
[global]
seed = 13
out_dir = {tmp_path / 'out_a'}

[synth]
users_per_class = 24,12,8

[train_we]
dimension = 16
epochs = 2
min_count = 2
subsample_threshold = 0

[netembed]
mode = conventional
k = 6

[classify]
suite_a_tags = T+D,T+E
suite_b_tags = N+T+E
epochs = 150
""",
            encoding="utf-8",
        )
        assert cli_main(["run", "--config", str(config_path)]) == 0
        assert cli_main(["run", "--config", str(config_path), "--out", str(tmp_path / "out_b")]) == 0
        run_a = next((tmp_path / "out_a").glob("run-*"))
        run_b = next((tmp_path / "out_b").glob("run-*"))
        for artifact in ("report/report.json", "report/report.txt", "classify/results.json"):
            assert (run_a / artifact).read_bytes() == (run_b / artifact).read_bytes()


def test_10_composition_algebra():
    """compose_add identity, commutativity, and argument-order/grouping
    indifference hold exactly (canonical summation order) over 1000 random
    triples; emoji embeddings are bit-invariant over 100 shuffles."""
    with criterion(10, "composition and emoji-view algebra"):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            d = int(rng.integers(2, 9))
            a, b, c = (rng.standard_normal(d) for _ in range(3))
            ident = compose.compose_add([a, np.zeros(d)]).vector
            assert np.array_equal(ident, a)
            flat = compose.compose_add([a, b, c]).vector
            for perm in ((a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)):
                assert np.array_equal(compose.compose_add(list(perm)).vector, flat)

        lexicon = {
            "🌿": EmojiSenseEntry("🌿", ["herb", "plant"]),
            "😊": EmojiSenseEntry("😊", ["smile"]),
            "📰": EmojiSenseEntry("📰", ["news", "paper"]),
        }
        model = WEModel(
            vocabulary={w: i for i, w in enumerate(["herb", "plant", "smile", "news", "paper"])},
            vectors=np.random.default_rng(7).standard_normal((5, 12)),
        )
        emojis = ["🌿", "😊", "📰", "🌿", "😊", "📰", "🌿"]
        base = emoji_embedding(emojis, lexicon, model)
        for _ in range(100):
            shuffled = [emojis[i] for i in rng.permutation(len(emojis))]
            assert np.array_equal(emoji_embedding(shuffled, lexicon, model), base)
