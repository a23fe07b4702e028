import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import stdtr, stdtrit
from scipy.stats import rankdata

from cme.compose import (
    _average_ranks,
    _t_two_sided_p,
    COMPOSITION_TAGS,
    CompositionError,
    UndefinedCorrelationError,
    VIEW_NAMES,
    ViewEmbeddingSet,
    build_cme,
    compose_add,
    correlate_views,
    resolve_tag,
    spearman,
    write_correlation_report,
)


def bruteforce_spearman(x, y):
    """O(n^2) rank computation: rank = 1 + count(smaller) + (count(equal)-1)/2."""
    def ranks(vals):
        out = []
        for v in vals:
            smaller = sum(1 for w in vals if w < v)
            equal = sum(1 for w in vals if w == v)
            out.append(1.0 + smaller + (equal - 1) / 2.0)
        return out

    rx, ry = ranks(list(x)), ranks(list(y))
    n = len(rx)
    mx, my = sum(rx) / n, sum(ry) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    return cov / (vx * vy) ** 0.5


class TestSpearman:
    def test_identical_ranking(self):
        assert spearman([1, 2, 3], [10, 20, 30]).rho == 1.0

    def test_reversed_ranking(self):
        assert spearman([1, 2, 3], [3, 2, 1]).rho == -1.0

    def test_hand_case(self):
        # d^2 = 1+1+1+1+0 = 4; rho = 1 - 6*4/(5*24) = 0.8, and the
        # brute-force oracle agrees
        result = spearman([1, 2, 3, 4, 5], [2, 1, 4, 3, 5])
        assert result.rho == pytest.approx(1 - 6 * 4 / (5 * 24), abs=1e-15)
        assert result.rho == pytest.approx(0.8, abs=1e-15)
        assert result.rho == pytest.approx(
            bruteforce_spearman([1, 2, 3, 4, 5], [2, 1, 4, 3, 5]), abs=1e-15
        )

    def test_too_few_samples(self):
        with pytest.raises(UndefinedCorrelationError):
            spearman([1, 2], [3, 4])

    def test_constant_input(self):
        with pytest.raises(UndefinedCorrelationError):
            spearman([5, 5, 5, 5], [1, 2, 3, 4])

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            n = int(rng.integers(3, 21))
            x = rng.standard_normal(n)
            y = rng.standard_normal(n)
            if rng.random() < 0.3:  # inject ties
                x = np.round(x)
                y = np.round(y)
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            assert spearman(x, y).rho == pytest.approx(bruteforce_spearman(x, y), abs=1e-12)

    @pytest.mark.parametrize("ties", [0, 3, 500], ids=["distinct", "heavy-ties", "some-ties"])
    def test_average_ranks_match_scipy(self, ties):
        rng = np.random.default_rng(25)
        values = rng.standard_normal(5000)
        if ties:
            values = rng.integers(0, ties, 5000).astype(np.float64)
        assert np.array_equal(_average_ranks(values), rankdata(values, method="average"))

    def test_average_ranks_edge_cases(self):
        assert _average_ranks(np.array([])).size == 0
        assert np.array_equal(_average_ranks(np.array([7.0])), [1.0])
        assert np.array_equal(_average_ranks(np.array([2.0, 2.0, 2.0])), [2.0, 2.0, 2.0])
        assert np.array_equal(_average_ranks(np.array([3.0, -0.0, 0.0, 1.0])), [4.0, 1.5, 1.5, 3.0])

    def test_average_ranks_tie_run_at_the_end(self):
        assert np.array_equal(_average_ranks(np.array([5.0, 1.0, 5.0, 3.0, 5.0])), [4.0, 1.0, 4.0, 2.0, 4.0])
        assert np.array_equal(_average_ranks(np.array([2.0, 1.0, 1.0, 2.0])), [3.5, 1.5, 1.5, 3.5])
        values = np.r_[np.random.default_rng(3).standard_normal(50), np.full(7, 9.0)]
        assert np.array_equal(_average_ranks(values), rankdata(values, method="average"))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_average_ranks_refuse_non_finite(self, bad):
        with pytest.raises(UndefinedCorrelationError, match="NaN or infinite"):
            _average_ranks(np.array([1.0, bad, 3.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_is_undefined(self, bad):
        # unrefused, a NaN sorts last as a run of its own and reads as the largest rank (rho 0.4 here)
        with pytest.raises(UndefinedCorrelationError, match="NaN or infinite"):
            spearman([1, bad, 3, 4, 5], [1, 2, 3, 4, 5])
        with pytest.raises(UndefinedCorrelationError, match="NaN or infinite"):
            spearman([1, 2, 3, 4, 5], [5, 4, bad, 2, 1])

    def test_t_tail_matches_scipy(self):
        # df 1-60 and up to 1e6, t from 1e-8 to 1e4, plus the t where p is 1e-300
        grid = [
            (df, float(t))
            for df in [*range(1, 61), 100, 1_000, 10_000, 100_000, 1_000_000]
            for t in np.logspace(-8, 4, 97)
        ]
        grid += [(df, -float(stdtrit(df, 5e-301))) for df in (60, 100, 1_000, 1_000_000)]
        references = []
        for df, t in grid:
            ref = 2.0 * stdtr(df, -t)
            if ref < 1e-300:
                continue  # below the float range the test covers
            assert _t_two_sided_p(t, df) == pytest.approx(ref, rel=1e-8, abs=0.0), (df, t)
            assert _t_two_sided_p(-t, df) == _t_two_sided_p(t, df)
            references.append(ref)
        assert 1.0 - 1e-8 < max(references) < 1.0
        assert min(references) < 1.01e-300

    def test_t_tail_edges(self):
        assert _t_two_sided_p(0.0, 5) == 1.0
        assert _t_two_sided_p(1e200, 5) == 0.0  # t^2 overflows
        # where 1 - df/(df+t^2) would round to 0, p still differs from 1
        assert 0.0 < 1.0 - _t_two_sided_p(1e-6, 1_000_000) < 1e-6

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(22)
        x = rng.standard_normal(40)
        y = rng.standard_normal(40)
        base = spearman(x, y)
        transformed = spearman(np.exp(x), y)
        assert transformed.rho == pytest.approx(base.rho, abs=1e-14)
        assert transformed.p_value == pytest.approx(base.p_value, abs=1e-14)

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(23)
        x = rng.standard_normal(25)
        y = rng.standard_normal(25)
        assert spearman(x, y).rho == pytest.approx(spearman(y, x).rho, abs=1e-15)

    def test_p_monotone_with_adjusted_strength(self):
        # tighter monotone relation gives smaller p at the same n
        weak = spearman([1, 2, 3, 4, 5, 6], [2, 1, 4, 3, 6, 5])
        strong = spearman([1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 6, 5])
        assert strong.p_value < weak.p_value

    def test_decision_text_renders_gate(self):
        # p < alpha rejects rho = 0: the views are correlated, and the text must say so
        rng = np.random.default_rng(24)
        x = np.arange(200.0)
        res = spearman(x, x + rng.standard_normal(200) * 0.01)
        assert res.p_value < 0.01
        assert res.decision.startswith("rho = 0 rejected (p=")
        assert res.decision.endswith("views correlated")
        independent = spearman(rng.standard_normal(200), rng.standard_normal(200))
        assert independent.p_value >= 0.01
        assert independent.decision.startswith("rho = 0 not rejected (p=")
        assert "no evidence of correlation" in independent.decision
        assert "uncorrelated" not in res.decision + independent.decision

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_rho_bounded(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 30))
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        res = spearman(x, y)
        assert -1.0 <= res.rho <= 1.0
        assert 0.0 <= res.p_value <= 1.0


def _view(name, data):
    return ViewEmbeddingSet(name, {u: np.asarray(v, float) if v is not None else None
                                   for u, v in data.items()})


class TestCorrelateViews:
    def _random_view(self, name, seed, users=12, dim=5):
        rng = np.random.default_rng(seed)
        return _view(name, {f"u{i}": rng.standard_normal(dim) for i in range(users)})

    def test_self_correlation_is_one(self):
        view = self._random_view("Tweet", 1)
        assert correlate_views(view, view).rho == pytest.approx(1.0, abs=1e-12)

    def test_negated_view_is_minus_one(self):
        view = self._random_view("Tweet", 2)
        negated = _view("Other", {u: -v for u, v in view.vectors.items()})
        assert correlate_views(view, negated).rho == pytest.approx(-1.0, abs=1e-12)

    def test_n_counts_users_times_dimension(self):
        a = self._random_view("Tweet", 3, users=10, dim=4)
        b = self._random_view("Network", 4, users=10, dim=4)
        assert correlate_views(a, b).n == 40

    def test_narrower_view_pairs_only_its_leading_components(self):
        # a k-wide Network view is screened on its k components, not on zeros beyond them
        tweet = self._random_view("Tweet", 7, users=10, dim=6)
        network = self._random_view("Network", 8, users=8, dim=2)
        shared = network.user_ids  # u0..u7, in sorted order
        expected = spearman(
            np.ravel([tweet.vectors[u][:2] for u in shared]), np.ravel([network.vectors[u] for u in shared])
        )
        for res in (correlate_views(tweet, network), correlate_views(network, tweet)):
            assert res.n == 8 * 2
            assert (res.rho, res.p_value) == (expected.rho, expected.p_value)

    def test_sentinels_excluded_from_pairing(self):
        a = self._random_view("Tweet", 5, users=6, dim=3)
        b = _view("Network", dict(self._random_view("Network", 6, users=6, dim=3).vectors, u0=None))
        assert correlate_views(a, b).n == 15

    def test_non_finite_value_is_undefined(self):
        a = self._random_view("Tweet", 9)
        rows = dict(self._random_view("TweetEmoji", 10).vectors, u3=np.array([0, 0, np.nan, 0, 0]))
        b = _view("TweetEmoji", rows)
        with pytest.raises(UndefinedCorrelationError, match="NaN or infinite"):
            correlate_views(a, b)

    def test_too_few_shared_users(self):
        a = _view("Tweet", {"u0": [1.0, 2.0], "u1": [2.0, 1.0]})
        b = _view("Network", {"u0": [1.0, 2.0], "u1": [0.0, 1.0]})
        with pytest.raises(UndefinedCorrelationError):
            correlate_views(a, b)

    def test_independent_views_low_rho(self):
        # independently seeded views at 50 users x 10 dims: rho hugs zero
        # (sd ~ 1/sqrt(499) ~ 0.045, so a few |rho| >= 0.1 excursions per
        # 100 trials are expected; the bound is on the fraction)
        hits = 0
        worst = 0.0
        for seed in range(100):
            a = self._random_view("Tweet", 1000 + seed, users=50, dim=10)
            b = self._random_view("Network", 5000 + seed, users=50, dim=10)
            res = correlate_views(a, b)
            worst = max(worst, abs(res.rho))
            if abs(res.rho) >= 0.1:
                hits += 1
        assert hits <= 5
        assert worst < 0.2


def _random_matrix_view(name, users, dim, seed, absent=0.0):
    rng = np.random.default_rng(seed)
    kept = rng.random(users) >= absent
    matrix = rng.standard_normal((users, dim))[kept]
    return ViewEmbeddingSet(name, user_ids=[f"u{i:05d}" for i in np.flatnonzero(kept)], matrix=matrix)


def _traced_peak(call) -> int:
    """Bytes call() allocates at its peak, as tracemalloc counts them."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestScratchMemory:
    """Stages past netembed hold a small, fixed number of view-sized arrays beyond their inputs."""

    def test_correlate_views_within_six_view_sized_arrays(self):
        # one side ranked at a time needs about 5; both raveled copies ranked side by side, about 11
        a, b = _random_matrix_view("Tweet", 2000, 50, 1), _random_matrix_view("Description", 2000, 50, 2)
        peak = _traced_peak(lambda: correlate_views(a, b))
        assert peak <= 6 * 2000 * 50 * 8

    def test_build_cme_within_five_and_a_half_stack_units(self):
        # a stack unit is one constituent's users x d slice: the stack is 3, and the sorted copy of the
        # three-value users (1.5 here) is freed before the 1-unit output is made; two copies made 7
        views = {
            "Network": _random_matrix_view("Network", 2000, 10, 5, absent=0.2),
            "Tweet": _random_matrix_view("Tweet", 2000, 50, 6, absent=0.1),
            "TweetEmoji": _random_matrix_view("TweetEmoji", 2000, 50, 7, absent=0.3),
        }
        peak = _traced_peak(lambda: build_cme(views, "N+T+E"))
        assert peak <= 5.5 * 2000 * 50 * 8


class TestComposeAdd:
    def test_additive_identity(self):
        v = np.array([1.0, -2.0, 3.0])
        out = compose_add([v, np.zeros(3)])
        np.testing.assert_array_equal(out.vector, v)

    def test_component_wise_sum(self):
        out = compose_add([np.array([1.0, 2.0]), np.array([0.5, -1.0])])
        np.testing.assert_allclose(out.vector, [1.5, 1.0], atol=1e-15)

    def test_sentinel_contributes_zero(self):
        v = np.array([1.0, 2.0])
        out = compose_add([v, None])
        np.testing.assert_array_equal(out.vector, v)

    def test_all_sentinels_give_sentinel(self):
        assert compose_add([None, None]).vector is None

    def test_narrower_vector_is_zero_extended(self):
        out = compose_add([np.array([1.0, -0.0]), np.array([2.0, -0.0, 3.0]), np.array([-0.0])])
        assert out.vector.tolist() == [3.0, 0.0, 3.0]
        # the extension is +0.0: -0.0 + +0.0 is +0.0, where two -0.0 would stay -0.0
        assert np.signbit(out.vector).tolist() == [False, False, False]
        padded = compose_add(
            [np.array([1.0, -0.0, 0.0]), np.array([2.0, -0.0, 3.0]), np.array([-0.0, 0.0, 0.0])]
        )
        assert _bits(out.vector).tolist() == _bits(padded.vector).tolist()

    def test_commutative_bitwise(self):
        rng = np.random.default_rng(30)
        vs = [rng.standard_normal(8) for _ in range(4)]
        base = compose_add(vs).vector
        for _ in range(30):
            perm = [vs[i] for i in rng.permutation(4)]
            assert np.array_equal(compose_add(perm).vector, base)

    def test_grouping_of_argument_list_is_irrelevant(self):
        rng = np.random.default_rng(31)
        a, b, c = (rng.standard_normal(6) for _ in range(3))
        flat = compose_add([a, b, c]).vector
        assert np.array_equal(compose_add([b, c, a]).vector, flat)
        assert np.array_equal(compose_add([c, a, b]).vector, flat)
        # nested regrouping agrees to rounding (float addition reassociates)
        nested = compose_add([compose_add([a, b]).vector, c]).vector
        np.testing.assert_allclose(nested, flat, atol=1e-12)


class TestBuildCME:
    def _views(self):
        tweet = _view("Tweet", {"u0": [1.0, 0.0], "u1": [0.0, 1.0]})
        temoji = _view("TweetEmoji", {"u0": [0.5, 0.5], "u1": None})
        network = _view("Network", {"u0": [0.0, 0.0]})
        desc = _view("Description", {"u0": [2.0, 2.0], "u1": [3.0, 0.0]})
        demoji = _view("DescriptionEmoji", {"u0": [1.0, 1.0], "u1": [0.0, 2.0]})
        return {
            "Tweet": tweet,
            "TweetEmoji": temoji,
            "Network": network,
            "Description": desc,
            "DescriptionEmoji": demoji,
        }

    def test_tweet_emoji_composition(self):
        out = build_cme(self._views(), "T+E")
        np.testing.assert_allclose(out.vectors["u0"], [1.5, 0.5], atol=1e-15)

    def test_zero_network_equals_text_composition(self):
        views = self._views()
        nte = build_cme(views, "N+T+E")
        te = build_cme(views, "T+E")
        np.testing.assert_allclose(nte.vectors["u0"], te.vectors["u0"], atol=1e-15)

    def test_user_absent_from_network_flagged(self):
        views = self._views()
        out = build_cme(views, "N+T+E")
        # u1 has no network vector: Network adds nothing, and the text views keep u1 in the composition
        assert "u1" not in views["Network"].user_ids
        np.testing.assert_allclose(out.vectors["u1"], [0.0, 1.0], atol=1e-15)
        assert (out.user_ids, out.missing) == (["u0", "u1"], [])

    def test_missing_view_is_configuration_error(self):
        views = self._views()
        del views["TweetEmoji"]
        with pytest.raises(CompositionError, match="TweetEmoji"):
            build_cme(views, "T+E")

    def test_registry_tags(self):
        assert COMPOSITION_TAGS["N+T+E"] == ("Network", "Tweet", "TweetEmoji")
        assert resolve_tag("D+E") == ("Description", "DescriptionEmoji")

    def test_custom_tag_by_view_names(self):
        assert resolve_tag("Tweet+Description") == ("Tweet", "Description")
        with pytest.raises(CompositionError):
            resolve_tag("X+Y")

    def test_tag_naming_a_view_twice_is_error(self):
        # composing a view twice would double it and count its sentinels twice
        with pytest.raises(CompositionError, match="names a view more than once"):
            resolve_tag("Tweet+Tweet")
        with pytest.raises(CompositionError, match="more than once"):
            build_cme(self._views(), "Network+Tweet+Network")


class TestViewEmbeddingSet:
    def test_mapping_gives_sorted_ids_matrix_and_missing(self):
        view = _view("Tweet", {"u2": [3.0, 4.0], "u0": [1.0, 2.0], "u1": None})
        assert view.user_ids == ["u0", "u2"]
        assert view.matrix.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert view.missing == ["u1"]
        assert (view.dimension, view.sentinel_count) == (2, 1)
        # vectors lists every user looked up, in id order
        assert list(view.vectors) == ["u0", "u1", "u2"]

    def test_vectors_is_read_only(self):
        view = _view("Tweet", {"u0": [1.0, 2.0], "u1": None})
        assert view.vectors["u1"] is None
        with pytest.raises(TypeError):
            view.vectors["u1"] = np.zeros(2)
        with pytest.raises(ValueError):
            view.vectors["u0"][0] = 5.0
        assert view.matrix[0].tolist() == [1.0, 2.0]

    def test_take_zero_fills_sentinels_and_outsiders(self):
        view = _view("Tweet", {"u0": [1.0, 2.0], "u1": None})
        rows, present = view.take(["u9", "u1", "u0"])
        assert rows.tolist() == [[0.0, 0.0], [0.0, 0.0], [1.0, 2.0]]
        assert present.tolist() == [False, False, True]


def _reference_sum(values):
    """The documented grouping over sorted values: the first half's sum plus the second half's."""
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    mid = len(values) // 2
    return _reference_sum(values[:mid]) + _reference_sum(values[mid:])


def _random_views(seed, count):
    """count views with random users, widths (0 to 4) and widely scaled values
    (signed zeros included), in random tag order."""
    rng = np.random.default_rng(seed)
    names = [str(name) for name in rng.permutation(VIEW_NAMES)[:count]]
    pool = [f"u{i}" for i in range(8)]
    views = {}
    for name in names:
        dim = int(rng.integers(0, 5))
        users = [u for u in pool if rng.random() < 0.7]
        kept = rng.random(len(users)) < 0.8
        values = rng.standard_normal((len(users), dim)) * 10.0 ** rng.integers(-8, 9, (len(users), dim))
        values[rng.random(values.shape) < 0.15] = 0.0
        values[rng.random(values.shape) < 0.05] = -0.0
        users = [u for u, keep in zip(users, kept) if keep]
        views[name] = ViewEmbeddingSet(name, user_ids=users, matrix=values[kept])
    return names, views


def _bits(matrix):
    return np.ascontiguousarray(matrix).view(np.uint64)


class TestBuildCMEProperties:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=4))
    def test_matches_per_user_reference(self, seed, count):
        names, views = _random_views(seed, count)
        out = build_cme(views, "+".join(names))
        assert out.user_ids == sorted(set().union(*(views[n].user_ids for n in names)))
        assert out.dimension == max(views[n].dimension for n in names)
        expected = np.zeros_like(out.matrix)
        for i, user in enumerate(out.user_ids):
            rows = [views[n].vectors.get(user) for n in names]
            rows = [row for row in rows if row is not None]
            assert rows  # a user of the union has a row in some constituent
            for j in range(out.dimension):
                # a narrower row is extended with +0.0
                expected[i, j] = _reference_sum([float(row[j]) if j < len(row) else 0.0 for row in rows])
            # compose_add extends to the widest row; the composition's width is +0.0 beyond it
            row = compose_add(rows).vector
            assert _bits(row).tolist() + [0] * (out.dimension - len(row)) == _bits(out.matrix[i]).tolist()
        assert _bits(out.matrix).tolist() == _bits(expected).tolist()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_two_views_are_plain_addition(self, seed):
        names, views = _random_views(seed, 2)
        out = build_cme(views, "+".join(names))
        (rows_a, present_a), (rows_b, present_b) = (views[name].take(out.user_ids) for name in names)
        # the narrower view's rows are extended with +0.0
        rows_a, rows_b = (
            np.pad(rows, ((0, 0), (0, out.dimension - rows.shape[1]))) for rows in (rows_a, rows_b)
        )
        both = present_a & present_b
        expected = np.where(present_a[:, None], rows_a, rows_b)
        expected[both] = rows_a[both] + rows_b[both]
        assert _bits(out.matrix).tolist() == _bits(expected).tolist()
        assert (present_a | present_b).all()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=3))
    def test_absent_constituent_is_identity(self, seed, count):
        names, views = _random_views(seed, count)
        base = build_cme(views, "+".join(names))
        extra = next(name for name in VIEW_NAMES if name not in views)
        # the builder looked every user up and found no vector
        views[extra] = ViewEmbeddingSet(
            extra, user_ids=[], matrix=np.zeros((0, base.dimension)), missing=base.user_ids
        )
        out = build_cme(views, "+".join([extra] + names))
        assert _bits(out.matrix).tolist() == _bits(base.matrix).tolist()
        assert out.user_ids == base.user_ids

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=2))
    def test_all_zero_constituent_is_identity(self, seed, count):
        # x + 0 = x, and for three values the pairwise grouping pairs a zero with one partner
        names, views = _random_views(seed, count)
        base = build_cme(views, "+".join(names))
        extra = next(name for name in VIEW_NAMES if name not in views)
        views[extra] = ViewEmbeddingSet(extra, user_ids=base.user_ids, matrix=np.zeros_like(base.matrix))
        out = build_cme(views, "+".join(names + [extra]))
        assert np.array_equal(out.matrix, base.matrix)
        assert out.user_ids == base.user_ids


class TestReport:
    def test_report_file_layout(self, tmp_path):
        res = spearman([1, 2, 3, 4], [1, 3, 2, 4])
        path = tmp_path / "corr.tsv"
        write_correlation_report([("Tweet", "Network", res)], path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "view_a\tview_b\trho\tp_value\tn\tdecision"
        assert lines[1].startswith("Tweet\tNetwork\t0.8\t")
