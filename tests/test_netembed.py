from dataclasses import replace

import numpy as np
import pytest

from cme.corpus import InteractionKind, InteractionRecord
from cme.netembed import (
    CosineMatrix,
    build_adjacency,
    cosine_similarity_matrix,
    factor_graph,
    SVDFactors,
    network_embedding,
    row_normalize,
    sigma_floor,
    truncated_svd,
)


def _rec(src, tgt, kind, count):
    return InteractionRecord(src, tgt, InteractionKind(kind), count)


class TestBuildAdjacency:
    def test_single_record(self):
        im = build_adjacency([_rec("u1", "u2", "mention", 3)], ["u1"], ["u2"])
        assert im.matrix.toarray().tolist() == [[3.0]]

    def test_mention_and_retweet_counts_sum(self):
        records = [_rec("u1", "u2", "mention", 2), _rec("u1", "u2", "retweet", 1)]
        im = build_adjacency(records, ["u1"], ["u2"])
        assert im.matrix.toarray().tolist() == [[3.0]]

    def test_no_interactions_all_zero_sparse(self):
        im = build_adjacency([], ["u1", "u2"], ["u3"])
        assert im.matrix.nnz == 0
        assert im.shape == (2, 1)

    def test_outside_index_skipped_with_counter(self):
        records = [_rec("u1", "u2", "mention", 1), _rec("zz", "u2", "mention", 5)]
        im = build_adjacency(records, ["u1"], ["u2"])
        assert im.skipped == 1
        assert im.matrix.data.sum() == 1.0

    def test_duplicate_index_lists_rejected(self):
        with pytest.raises(ValueError):
            build_adjacency([], ["u1", "u1"], ["u2"])


class TestRowNormalize:
    def test_rows_sum_to_one(self):
        im = build_adjacency(
            [_rec("a", "x", "mention", 2), _rec("a", "y", "mention", 2)], ["a"], ["x", "y"]
        )
        out = row_normalize(im)
        assert out.matrix.toarray().tolist() == [[0.5, 0.5]]

    def test_zero_rows_stay_zero(self):
        im = build_adjacency([_rec("a", "x", "mention", 1)], ["a", "b"], ["x"])
        out = row_normalize(im)
        assert out.matrix.toarray()[1].tolist() == [0.0]

    def test_uneven_row(self):
        im = build_adjacency(
            [_rec("a", "x", "mention", 1), _rec("a", "y", "retweet", 3)], ["a"], ["x", "y"]
        )
        out = row_normalize(im)
        np.testing.assert_allclose(out.matrix.toarray(), [[0.25, 0.75]], atol=1e-15)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        records = [
            _rec(f"s{i}", f"t{j}", "mention", int(rng.integers(1, 9)))
            for i in range(6)
            for j in range(8)
            if rng.random() < 0.4
        ]
        im = build_adjacency(records, [f"s{i}" for i in range(6)], [f"t{j}" for j in range(8)])
        once = row_normalize(im)
        twice = row_normalize(once)
        np.testing.assert_allclose(
            once.matrix.toarray(), twice.matrix.toarray(), atol=1e-12
        )


class TestCosineMatrix:
    def test_identical_rows_give_one(self):
        records = [
            _rec("a", "x", "mention", 2), _rec("a", "y", "mention", 2),
            _rec("b", "x", "mention", 4), _rec("b", "y", "mention", 4),
        ]
        im = build_adjacency(records, ["a", "b"], ["x", "y"])
        cos = cosine_similarity_matrix(im)
        np.testing.assert_allclose(cos.values, np.ones((2, 2)), atol=1e-12)

    def test_orthogonal_rows_give_zero(self):
        records = [_rec("a", "x", "mention", 1), _rec("b", "y", "mention", 1)]
        im = build_adjacency(records, ["a", "b"], ["x", "y"])
        cos = cosine_similarity_matrix(im)
        assert cos.values[0, 1] == 0.0 and cos.values[1, 0] == 0.0

    def test_hand_computed_angle(self):
        # rows [1,0] and [1,1]: dot 1, norms 1 and sqrt(2)
        records = [
            _rec("a", "x", "mention", 1),
            _rec("b", "x", "mention", 1), _rec("b", "y", "mention", 1),
        ]
        im = build_adjacency(records, ["a", "b"], ["x", "y"])
        cos = cosine_similarity_matrix(im)
        np.testing.assert_allclose(cos.values[0, 1], 1.0 / np.sqrt(2.0), atol=1e-12)

    def test_zero_rows_flagged_and_zeroed(self):
        records = [_rec("a", "x", "mention", 1)]
        im = build_adjacency(records, ["a", "b"], ["x"])
        cos = cosine_similarity_matrix(im)
        assert cos.zero_rows == [1]
        assert cos.values[1].tolist() == [0.0, 0.0]
        assert cos.values[1, 1] == 0.0  # self-similarity left 0, no 0/0

    def test_invariants_on_random_sparse_nonnegative(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            m, n = int(rng.integers(2, 25)), int(rng.integers(2, 30))
            records = [
                _rec(f"s{i}", f"t{j}", "mention", int(rng.integers(1, 6)))
                for i in range(m)
                for j in range(n)
                if rng.random() < 0.25
            ]
            im = build_adjacency(
                records, [f"s{i}" for i in range(m)], [f"t{j}" for j in range(n)]
            )
            cos = cosine_similarity_matrix(row_normalize(im))
            assert np.abs(cos.values - cos.values.T).max() <= 1e-10
            assert cos.values.min() >= 0.0 and cos.values.max() <= 1.0
            nonzero = [i for i in range(m) if i not in cos.zero_rows]
            assert all(cos.values[i, i] == 1.0 for i in nonzero)

    def test_output_is_exactly_symmetric(self):
        # truncated_svd factors its input as given, so the cosine must be symmetric to the bit
        rng = np.random.default_rng(5)
        m, n = 70, 90
        records = [
            _rec(f"s{i}", f"t{j}", "retweet", int(rng.integers(1, 9)))
            for i in range(m)
            for j in range(n)
            if rng.random() < 0.3
        ]
        im = build_adjacency(records, [f"s{i}" for i in range(m)], [f"t{j}" for j in range(n)])
        cos = cosine_similarity_matrix(row_normalize(im))
        assert np.array_equal(cos.values, cos.values.T)


class TestChainAgainstDenseReference:
    def test_matches_dense_numpy_within_1e15(self):
        # adjacency -> row_normalize -> cosine, against the same algebra on dense arrays,
        # with repeated (source, target) cells and sources that have no interactions
        rng = np.random.default_rng(14)
        for trial in range(12):
            m, n = int(rng.integers(3, 40)), int(rng.integers(2, 40))
            empty = {int(i) for i in rng.choice(m, size=m // 4, replace=False)}
            records = [
                _rec(f"s{i}", f"t{j}", kind, int(rng.integers(1, 6)))
                for i in range(m)
                if i not in empty
                for j in range(n)
                if rng.random() < 0.3
                for kind in ("mention", "retweet")
                if rng.random() < 0.7
            ]
            records += [records[int(i)] for i in rng.integers(0, len(records), len(records) // 3)]
            records = [records[int(i)] for i in rng.permutation(len(records))]
            dense = np.zeros((m, n))
            for rec in records:
                dense[int(rec.source[1:]), int(rec.target[1:])] += rec.count

            im = build_adjacency(records, [f"s{i}" for i in range(m)], [f"t{j}" for j in range(n)])
            assert np.array_equal(im.matrix.toarray(), dense)  # integer counts sum exactly
            assert im.matrix.nnz == np.count_nonzero(dense)
            assert im.matrix.data.sum() == dense.sum()

            sums = dense.sum(axis=1, keepdims=True)
            unit = np.divide(dense, sums, out=np.zeros_like(dense), where=sums > 0)
            normalized = row_normalize(im)
            assert np.abs(normalized.matrix.toarray() - unit).max() <= 1e-15

            norms = np.linalg.norm(unit, axis=1)
            denom = np.outer(norms, norms)
            ref = np.divide(unit @ unit.T, denom, out=np.zeros((m, m)), where=denom > 0)
            cos = cosine_similarity_matrix(normalized)
            assert np.abs(cos.values - ref).max() <= 1e-15, trial
            assert cos.zero_rows == [i for i in range(m) if sums[i, 0] == 0]
            assert empty <= set(cos.zero_rows)


class TestTruncatedSVD:
    def test_identity_matrix(self):
        f = truncated_svd(np.eye(3), 3)
        np.testing.assert_allclose(f.sigma, [1.0, 1.0, 1.0], atol=1e-12)

    def test_diagonal_matrix(self):
        f = truncated_svd(np.diag([4.0, 1.0]), 1)
        np.testing.assert_allclose(f.sigma, [4.0], atol=1e-12)
        # sign convention: the dominant entry is positive, so exactly +e1
        np.testing.assert_allclose(f.u[:, 0], [1.0, 0.0], atol=1e-12)

    def test_k_above_m_rejected(self):
        with pytest.raises(ValueError):
            truncated_svd(np.eye(3), 4)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            truncated_svd(np.array([[1.0, 2.0], [0.0, 1.0]]), 1)

    @pytest.mark.parametrize(
        "m, k", [pytest.param(8, 8, id="m8-k8"), pytest.param(450, 20, id="m450-k20")]
    )
    def test_random_psd_matches_dense_eigensolver(self, m, k):
        rng = np.random.default_rng(8)
        b = rng.standard_normal((m, m))
        mat = b @ b.T
        f = truncated_svd(mat, k)
        ref = np.linalg.eigvalsh(mat)[::-1][:k]
        np.testing.assert_allclose(f.sigma, np.maximum(ref, 0.0), atol=1e-8)

    @pytest.mark.parametrize(
        "m, k", [pytest.param(12, 5, id="m12-k5"), pytest.param(450, 20, id="m450-k20")]
    )
    def test_orthonormal_columns(self, m, k):
        rng = np.random.default_rng(9)
        b = rng.standard_normal((m, m))
        f = truncated_svd(b @ b.T, k)
        np.testing.assert_allclose(f.u.T @ f.u, np.eye(k), atol=1e-8)

    def test_reconstruction_at_full_rank(self):
        rng = np.random.default_rng(10)
        b = rng.standard_normal((20, 20)) / np.sqrt(20)
        m = b @ b.T
        f = truncated_svd(m, 20)
        recon = f.u @ np.diag(f.sigma) @ f.u.T
        assert np.linalg.norm(recon - m) < 1e-8

    def test_accepts_cosine_matrix_wrapper(self):
        cos = CosineMatrix(values=np.eye(2))
        f = truncated_svd(cos, 2)
        np.testing.assert_allclose(f.sigma, [1.0, 1.0], atol=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        b = rng.standard_normal((15, 15))
        # cosine of five unit rows, each repeated: eigenvalue 2 and 0, five times each
        rows = np.repeat(np.eye(5), 2, axis=0)
        for m in (b @ b.T, rows @ rows.T):
            f1, f2 = truncated_svd(m, 6), truncated_svd(m, 6)
            assert np.array_equal(f1.u, f2.u) and np.array_equal(f1.sigma, f2.sigma)


def _tied_graph(rng):
    """Records, rows and cols of a graph with singletons, repeated identical components and a random one.

    Source and target names are shuffled, so the components interleave in
    source order.
    """
    edges = []  # (source, target, count) on fresh integer ids
    sources, targets = 0, 0

    def component(m, n, density, counts):
        nonlocal sources, targets
        for i in range(m):
            hit = [j for j in range(n) if counts[i, j] and rng.random() < density] or [i % n]
            edges.extend((sources + i, targets + j, int(counts[i, j]) or 1) for j in hit)
        sources, targets = sources + m, targets + n

    for _ in range(int(rng.integers(3, 8))):  # singletons, some with several targets
        component(1, int(rng.integers(1, 4)), 1.0, rng.integers(1, 5, (1, 4)))
    pattern = rng.integers(0, 4, (3, 4))
    for _ in range(int(rng.integers(2, 5))):  # one small component, repeated
        component(3, 4, 1.0, pattern)
    component(int(rng.integers(15, 40)), int(rng.integers(8, 30)), 0.25, rng.integers(1, 6, (40, 30)))
    names = rng.permutation(sources)
    records = [_rec(f"s{names[i]:03d}", f"t{j:03d}", "retweet", c) for i, j, c in edges]
    return records, sorted(f"s{i:03d}" for i in range(sources)), sorted(f"t{j:03d}" for j in range(targets))


def _tie_groups(sigma, floor):
    """[lo, hi) runs of the descending sigma whose steps are within floor."""
    edges = [0, *(np.flatnonzero(np.diff(sigma) < -floor) + 1), sigma.size]
    return list(zip(edges[:-1], edges[1:]))


class TestFactorGraph:
    def test_matches_the_dense_reference(self):
        # sigma to 1e-8 of the dense eigh of the cosine at every k; where k cuts no tie
        # group, the kept span is the dense one; where it cuts one, the kept columns
        # are still orthonormal eigenvectors
        rng = np.random.default_rng(28)
        for trial in range(8):
            records, rows, cols = _tied_graph(rng)
            im = row_normalize(build_adjacency(records, rows, cols))
            cos = cosine_similarity_matrix(im)
            ref = truncated_svd(cos, len(rows))
            floor = sigma_floor(ref.sigma)
            rank = int(np.count_nonzero(ref.sigma > floor))
            groups = _tie_groups(ref.sigma[:rank], floor)
            assert any(hi - lo > 1 for lo, hi in groups), trial
            cuts = {hi for _, hi in groups} | {lo + 1 for lo, hi in groups if hi - lo > 1} | {len(rows)}
            for k in sorted(cuts):
                factors, graph = factor_graph(im, k)
                kept = factors.sigma.size
                assert kept == min(k, rank)
                assert np.abs(factors.sigma - ref.sigma[:kept]).max() <= 1e-8 * ref.sigma[0]
                u = factors.u
                np.testing.assert_allclose(u.T @ u, np.eye(kept), atol=1e-10)
                np.testing.assert_allclose(cos.values @ u, u * factors.sigma, atol=1e-10)
                if kept in {hi for _, hi in groups}:
                    span = ref.u[:, :kept] @ ref.u[:, :kept].T
                    np.testing.assert_allclose(u @ u.T, span, atol=1e-8)

    def test_singletons_are_indicators_and_ties_take_the_first_sources(self):
        # three lone sources and a pair: sigma 2 (the pair, identical rows), then 1 three times
        records = [_rec(s, t, "retweet", 1) for s, t in
                   [("a", "x"), ("b", "y"), ("b", "z"), ("c", "x"), ("d", "w"), ("e", "v")]]
        im = row_normalize(build_adjacency(records, list("abcde"), list("vwxyz")))
        factors, graph = factor_graph(im, 3)
        np.testing.assert_allclose(factors.sigma, [2.0, 1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(factors.u[:, 0], [2 ** -0.5, 0, 2 ** -0.5, 0, 0], atol=1e-12)
        # the tie group {b, d, e} is cut at two: the first two in source order
        assert np.array_equal(factors.u[:, 1:], np.eye(5)[:, [1, 3]])
        assert graph.components == 4 and graph.largest == 2 and graph.tied_columns == 2

    def test_components_match_a_union_find(self):
        rng = np.random.default_rng(7)
        for _ in range(6):
            m, n = int(rng.integers(5, 60)), int(rng.integers(5, 60))
            records = [_rec(f"s{i}", f"t{j}", "mention", 1)
                       for i in range(m) for j in range(n) if rng.random() < 1.5 / n]
            parent = list(range(m + n))

            def find(x):
                while parent[x] != x:
                    x = parent[x]
                return x

            for rec in records:
                a, b = find(int(rec.source[1:])), find(m + int(rec.target[1:]))
                parent[max(a, b)] = min(a, b)
            roots = [find(i) for i in range(m)]
            im = build_adjacency(records, [f"s{i}" for i in range(m)], [f"t{j}" for j in range(n)])
            graph = factor_graph(row_normalize(im), m)[1]
            assert graph.components == len(set(roots))
            assert graph.largest == max(roots.count(r) for r in set(roots))

    def test_rounding_level_scaling_keeps_the_factors(self):
        # the raw counts too: the cosine does not change when a row is scaled, so
        # build_network_view passes them unnormalized
        rng = np.random.default_rng(15)
        for _ in range(4):
            records, rows, cols = _tied_graph(rng)
            counts = build_adjacency(records, rows, cols)
            im = row_normalize(counts)
            mat = im.matrix
            scaled = replace(im, matrix=replace(mat, data=mat.data * (1 + 1e-15 * rng.standard_normal(mat.nnz))))
            for k in (3, 7, len(rows)):
                a = network_embedding(factor_graph(im, k)[0], mode="paper")
                for other in (scaled, counts):
                    b = network_embedding(factor_graph(other, k)[0], mode="paper")
                    assert a.matrix.shape == b.matrix.shape
                    np.testing.assert_allclose(a.matrix, b.matrix, atol=1e-8)

    def test_mirror_image_sources_keep_their_signs(self):
        # a -> x, y and b -> x, z with the same counts: the second column is (1, -1) / sqrt(2),
        # whose two entries tie in magnitude, so rounding must not pick its sign
        rng = np.random.default_rng(16)
        for _ in range(50):
            c1, c2 = (int(c) for c in rng.integers(1, 9, 2))
            records = [_rec("a", "x", "retweet", c1), _rec("a", "y", "retweet", c2),
                       _rec("b", "x", "retweet", c1), _rec("b", "z", "retweet", c2)]
            im = row_normalize(build_adjacency(records, ["a", "b"], ["x", "y", "z"]))
            mat = im.matrix
            scaled = replace(im, matrix=replace(mat, data=mat.data * (1 + 1e-15 * rng.standard_normal(mat.nnz))))
            u = factor_graph(im, 2)[0].u
            np.testing.assert_allclose(u[:, 1], [2 ** -0.5, -(2 ** -0.5)], atol=1e-12)
            np.testing.assert_allclose(factor_graph(scaled, 2)[0].u, u, atol=1e-8)

    def test_a_tie_past_k_inside_one_component_is_taken_whole(self):
        # four sources sharing a hub, each with a target of its own at the same count: the
        # cosine is 0.5 * (I + J), so sigma 2.5 once, then 0.5 three times; k = 2 cuts the
        # three, and the kept column is the projector's first column, (3, -1, -1, -1) / sqrt(12)
        records = [_rec(s, t, "mention", 2) for s in "abcd" for t in ("hub", f"own-{s}")]
        im = row_normalize(build_adjacency(records, list("abcd"), ["hub", *(f"own-{s}" for s in "abcd")]))
        factors, graph = factor_graph(im, 2)
        np.testing.assert_allclose(factors.sigma, [2.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(factors.u[:, 1], np.array([3.0, -1, -1, -1]) / np.sqrt(12), atol=1e-12)
        assert graph.tied_columns == 1

    def test_conventional_mode_keeps_nothing_at_or_below_the_floor(self):
        # two sources with one shared target: the cosine is all ones, rank 1
        records = [_rec("a", "x", "retweet", 1), _rec("b", "x", "mention", 3)]
        factors, _ = factor_graph(row_normalize(build_adjacency(records, ["a", "b"], ["x"])), 2)
        np.testing.assert_allclose(factors.sigma, [2.0], atol=1e-12)
        assert network_embedding(factors, mode="conventional").k == 1

    def test_k_out_of_range_rejected(self):
        im = row_normalize(build_adjacency([_rec("a", "x", "retweet", 1)], ["a"], ["x"]))
        for k in (0, 2):
            with pytest.raises(ValueError, match="k must be in"):
                factor_graph(im, k)


class TestNetworkEmbedding:
    def _factors(self):
        return SVDFactors(u=np.eye(2), sigma=np.array([2.0, 1.0]))

    def test_paper_mode_divides(self):
        ne = network_embedding(self._factors(), mode="paper")
        np.testing.assert_allclose(ne.matrix, [[0.5, 0.0], [0.0, 1.0]], atol=1e-15)

    def test_conventional_mode_multiplies(self):
        ne = network_embedding(self._factors(), mode="conventional")
        np.testing.assert_allclose(ne.matrix, [[2.0, 0.0], [0.0, 1.0]], atol=1e-15)

    def test_zero_sigma_in_paper_mode_names_index(self):
        factors = SVDFactors(u=np.eye(2), sigma=np.array([2.0, 0.0]))
        with pytest.raises(ValueError, match="index 1"):
            network_embedding(factors, mode="paper")

    def test_paper_floor_is_relative_to_the_largest_sigma(self):
        # 50 would pass an absolute floor, but it is below 1e-10 * sigma_max here
        factors = SVDFactors(u=np.eye(2), sigma=np.array([1e12, 50.0]))
        assert sigma_floor(factors.sigma) == pytest.approx(100.0)
        with pytest.raises(ValueError, match="index 1"):
            network_embedding(factors, mode="paper")

    def test_paper_floor_is_absolute_below_unit_sigma_max(self):
        assert sigma_floor(np.array([0.5, 1e-3])) == 1e-10
        assert sigma_floor(np.array([])) == 1e-10
        ne = network_embedding(SVDFactors(u=np.eye(2), sigma=np.array([0.5, 2e-10])), mode="paper")
        assert ne.k == 2 and np.all(np.isfinite(ne.matrix))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            network_embedding(self._factors(), mode="magic")


class TestShapeChain:
    def test_small_scale_chain_shapes(self):
        rng = np.random.default_rng(12)
        m, n, k = 15, 23, 7
        records = [
            _rec(f"s{i}", f"t{j}", "retweet", int(rng.integers(1, 4)))
            for i in range(m)
            for j in range(n)
            if rng.random() < 0.3
        ]
        rows = [f"s{i}" for i in range(m)]
        cols = [f"t{j}" for j in range(n)]
        adjacency = row_normalize(build_adjacency(records, rows, cols))
        assert adjacency.shape == (m, n)
        cos = cosine_similarity_matrix(adjacency)
        assert cos.shape == (m, m)
        factors = truncated_svd(cos, k)
        ne = network_embedding(factors, mode="conventional", row_ids=rows)
        assert ne.matrix.shape == (m, k)
