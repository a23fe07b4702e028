import hashlib
from dataclasses import replace

import numpy as np
import pytest

from cme.corpus import ClassLabel, InteractionKind, save_dataset
from cme.synth import ClassProfile, SynthConfig, default_profiles, generate, write_image_fixture


def _small_config(seed=7, **overrides):
    profiles = default_profiles()
    for cls in profiles:
        profiles[cls] = replace(profiles[cls], users=12, **overrides)
    return SynthConfig(profiles=profiles, seed=seed)


class TestDeterminism:
    def test_same_seed_same_dataset(self):
        assert generate(_small_config(seed=3)) == generate(_small_config(seed=3))

    def test_same_seed_same_files(self, tmp_path):
        for sub in ("one", "two"):
            save_dataset(generate(_small_config(seed=4)), tmp_path / sub)
        for name in ("users.jsonl", "tweets.jsonl", "interactions.tsv", "labels.tsv"):
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()

    def test_different_seeds_differ(self):
        assert generate(_small_config(seed=1)) != generate(_small_config(seed=2))


class TestRates:
    def test_zero_rate_gives_zero_interactions(self):
        profiles = default_profiles()
        profiles[ClassLabel.RETAIL] = replace(
            profiles[ClassLabel.RETAIL], users=10, retweet_rate=0.0, mention_rate=0.0
        )
        ds = generate(SynthConfig(profiles=profiles, seed=5))
        retail = {u.user_id for u in ds.users if u.label is ClassLabel.RETAIL}
        assert not any(rec.source in retail for rec in ds.interactions)

    def test_personal_retweet_rate_within_ten_percent(self):
        profiles = default_profiles()
        profiles[ClassLabel.PERSONAL] = replace(profiles[ClassLabel.PERSONAL], users=1000)
        ds = generate(SynthConfig(profiles=profiles, seed=6))
        personal = {u.user_id for u in ds.users if u.label is ClassLabel.PERSONAL}
        total = sum(
            rec.count
            for rec in ds.interactions
            if rec.source in personal and rec.kind is InteractionKind.RETWEET
        )
        assert 0.81 <= total / 1000 <= 0.99

    def test_all_class_rates_within_ten_percent_at_200_users(self):
        profiles = {
            cls: replace(profile, users=200) for cls, profile in default_profiles().items()
        }
        ds = generate(SynthConfig(profiles=profiles, seed=8))
        for cls, profile in profiles.items():
            members = {u.user_id for u in ds.users if u.label is cls}
            for kind, rate in (
                (InteractionKind.RETWEET, profile.retweet_rate),
                (InteractionKind.MENTION, profile.mention_rate),
            ):
                total = sum(
                    rec.count
                    for rec in ds.interactions
                    if rec.source in members and rec.kind is kind
                )
                assert abs(total / 200 - rate) <= 0.1 * rate


class TestStructure:
    def test_interactions_reference_generated_sources(self):
        ds = generate(_small_config(seed=9))
        users = {u.user_id for u in ds.users}
        for rec in ds.interactions:
            assert rec.source in users
            assert rec.count >= 1

    def test_class_counts_match_profiles(self):
        ds = generate(_small_config(seed=10))
        assert ds.class_counts == {
            ClassLabel.PERSONAL: 12, ClassLabel.INFORMED_AGENCY: 12, ClassLabel.RETAIL: 12
        }

    def test_class_word_distributions_differ(self):
        """Chi-square over class-conditional token counts clears a threshold."""
        from cme.preprocess import clean_tokens, extract_entities

        ds = generate(_small_config(seed=11))
        counts: dict[ClassLabel, dict[str, int]] = {cls: {} for cls in ClassLabel}
        labels = ds.labels()
        for tweet in ds.tweets:
            _, residual = extract_entities(tweet.raw_text)
            bag = counts[labels[tweet.author_id]]
            for tok in clean_tokens(residual, set()):
                bag[tok] = bag.get(tok, 0) + 1
        vocab = sorted({t for bag in counts.values() for t in bag})
        table = np.array(
            [[counts[cls].get(t, 0) for t in vocab] for cls in ClassLabel], dtype=float
        )
        row = table.sum(axis=1, keepdims=True)
        col = table.sum(axis=0, keepdims=True)
        expected = row @ col / table.sum()
        mask = expected > 0
        chi2 = float(((table - expected) ** 2 / np.where(mask, expected, 1))[mask].sum())
        dof = (table.shape[0] - 1) * (table.shape[1] - 1)
        assert chi2 > 3 * dof  # far beyond the null expectation (mean = dof)

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            ClassProfile(users=0)
        with pytest.raises(ValueError):
            ClassProfile(retweet_rate=-1)

    def test_image_fixture_covers_all_users(self, tmp_path):
        ds = generate(_small_config(seed=12))
        path = tmp_path / "image_tags.tsv"
        write_image_fixture(ds, path)
        lines = [l for l in path.read_text(encoding="utf-8").splitlines() if l]
        assert len(lines) == len(ds.users)
        assert all(len(line.split("\t")) == 3 for line in lines)


def _one_user_config():
    """One user per class at rates that send every class to its own users."""
    profiles = {
        cls: replace(p, users=1, retweet_rate=20.0, mention_rate=20.0)
        for cls, p in default_profiles().items()
    }
    return SynthConfig(profiles=profiles, seed=13)


class TestPinnedBytes:
    """The saved corpus and image fixture of fixed configs, byte for byte.

    Every benchmark corpus and acceptance corpus comes from generate, so a
    change that reorders a single draw moves them all. The digests are
    sha256 over the file names and bytes in name order.
    """

    @pytest.mark.parametrize(
        "make_config, digest",
        [
            pytest.param(
                SynthConfig,
                "7fa3433c377c03f6c109b9ad9d4739c434cdd261e5cebcd4c5148f9bf288332c",
                id="cme-synth-defaults",
            ),
            pytest.param(
                lambda: _small_config(seed=5, contact_prob=1.0, url_prob=1.0, emoji_per_tweet=6.0),
                "4cfd19b9aa49b04f85ee35d534dd22894930efeacd764959c066069777f02ee3",
                id="every-contact-branch-and-emoji-cap",
            ),
            pytest.param(
                _one_user_config,
                "c1cc2bc93b8b13ada5d7ae8b1dbaec6f37c5e092761d2ea4760c8eb25365e2ae",
                id="one-user-classes-pick-themselves",
            ),
        ],
    )
    def test_corpus_digest(self, tmp_path, make_config, digest):
        config = make_config()
        dataset = generate(config)
        save_dataset(dataset, tmp_path)
        write_image_fixture(dataset, tmp_path / "image_tags.tsv", seed=config.seed)
        sha = hashlib.sha256()
        for path in sorted(tmp_path.iterdir()):
            sha.update(path.name.encode("utf-8") + b"\0" + path.read_bytes())
        assert sha.hexdigest() == digest
