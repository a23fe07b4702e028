"""Synthetic multiview dataset generator for desk-scale experiments.

Generates users, descriptions, tweets, emoji usage, and interactions with
class-conditioned statistics so the full pipeline can be exercised end to
end. Text is drawn from class-indicative word pools mixed with a shared
pool; interactions are aimed at class-preferred hub accounts so the
network view carries its own signal.

What each class writes and whom it engages lives in one table, _STYLES,
one row per class: id prefix, word, emoji, image-tag and name pools, and
the interaction-target mix. The per-class sizes and rates a caller may
change live in ClassProfile; what no caller changes is a module constant,
such as DESCRIPTION_WORDS.

Interaction volumes follow the configured per-class means exactly: the
class total is fixed at round(users * rate) and distributed over users
multinomially, which is a Poisson count model conditioned on its expected
total. That keeps empirical per-class rates within tolerance at any size.

Default retweet/mention rates: personal 0.9/0.09 and informed agency
11.08/3.53; the retail defaults (4.0/1.5) are an invented intermediate
because no reference figure exists for that class.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import (
    ClassLabel,
    InteractionKind,
    InteractionRecord,
    LabeledDataset,
    TweetRecord,
    UserRecord,
    assemble_dataset,
)

SHARED_WORDS = (
    "marijuana cannabis weed herb plant green leaf grow high smoke strain today "
    "new best check time day week people world life thing way real big little "
    "maybe still around every always good great look need want know make person"
).split()

MEDIA_HUBS = [f"hub_media_{i:02d}" for i in range(10)]
RETAIL_HUBS = [f"hub_retail_{i:02d}" for i in range(10)]
CELEBRITY_HUBS = [f"hub_celebrity_{i:02d}" for i in range(8)]
ALL_HUBS = MEDIA_HUBS + RETAIL_HUBS + CELEBRITY_HUBS
# a description's word count, drawn alike for every class: 6 to 12 (half-open range)
DESCRIPTION_WORDS = (6, 13)


@dataclass
class ClassProfile:
    """Per-class generation knobs.

    class_word_prob is the chance a token comes from the class pool rather
    than the shared pool, i.e. the pools overlap at ratio
    1 - class_word_prob.
    """

    users: int = 60
    retweet_rate: float = 1.0
    mention_rate: float = 0.5
    tweets_min: int = 4
    tweets_max: int = 9
    tweet_len_min: int = 6
    tweet_len_max: int = 12
    emoji_per_tweet: float = 0.5
    class_word_prob: float = 0.35
    contact_prob: float = 0.0
    url_prob: float = 0.1

    def __post_init__(self):
        if self.users < 1:
            raise ValueError("users must be >= 1")
        for rate in (self.retweet_rate, self.mention_rate, self.emoji_per_tweet):
            if rate < 0:
                raise ValueError("rates must be >= 0")


def default_profiles() -> dict[ClassLabel, ClassProfile]:
    return {
        ClassLabel.PERSONAL: ClassProfile(
            users=60, retweet_rate=0.9, mention_rate=0.09, emoji_per_tweet=0.8,
            contact_prob=0.0, url_prob=0.05,
        ),
        ClassLabel.INFORMED_AGENCY: ClassProfile(
            users=30, retweet_rate=11.08, mention_rate=3.53, emoji_per_tweet=0.25,
            contact_prob=0.1, url_prob=0.4,
        ),
        # retail rates are invented: no reference figure exists for this class
        ClassLabel.RETAIL: ClassProfile(
            users=20, retweet_rate=4.0, mention_rate=1.5, emoji_per_tweet=0.6,
            contact_prob=0.5, url_prob=0.3,
        ),
    }


@dataclass
class SynthConfig:
    profiles: dict[ClassLabel, ClassProfile] = field(default_factory=default_profiles)
    seed: int = 7


@dataclass(frozen=True)
class _ClassStyle:
    """What one class writes and whom it engages.

    targets lists (bound, pool) pairs in roll order: an interaction rolls
    once and draws from the first pool whose bound the roll is under. A
    pool of None stands for the class's own users; a user that draws
    itself draws from hubs instead.
    """

    prefix: str
    words: list[str]
    emoji: list[str]
    image_tags: list[str]
    name_parts: tuple[list[str], list[str]]
    targets: tuple[tuple[float, list[str] | None], ...]
    hubs: list[str]


_STYLES = {
    ClassLabel.PERSONAL: _ClassStyle(
        prefix="p",
        words=(
            "chill relax tonight friend vibe happy love laugh session weekend music "
            "party fun sleepy hungry cookie couch movie homie blunt joint giggle mood "
            "dream late night honestly literally tired bored excited weird crazy funny "
            "joy peace smile heart selfie"
        ).split(),
        emoji=["😂", "❤️", "😍", "🤣", "😎", "🌿", "💨", "😴", "😋"],
        image_tags=["person", "smile", "selfie", "face", "outdoor"],
        name_parts=(
            "james john mary patricia robert jennifer michael linda david sarah".split(),
            "smith johnson williams brown jones garcia miller davis wilson moore".split(),
        ),
        targets=((0.55, None), (0.90, CELEBRITY_HUBS), (1.0, ALL_HUBS)),
        hubs=CELEBRITY_HUBS,
    ),
    ClassLabel.INFORMED_AGENCY: _ClassStyle(
        prefix="i",
        words=(
            "news report update headline article policy law legalization state senate "
            "bill vote regulation research study health public official industry market "
            "analysis coverage breaking committee hearing license program medical "
            "patient journalist editor source data media"
        ).split(),
        emoji=["📰", "📢", "📊", "🗞️", "📈", "⚖️", "🗳️", "🏥"],
        image_tags=["logo", "text", "banner", "studio", "microphone"],
        name_parts=(
            ["daily", "herald", "tribune", "public", "health", "capital"],
            ["news", "report", "journal", "network", "wire", "watch"],
        ),
        targets=((0.75, MEDIA_HUBS), (0.90, None), (1.0, ALL_HUBS)),
        hubs=MEDIA_HUBS,
    ),
    ClassLabel.RETAIL: _ClassStyle(
        prefix="r",
        words=(
            "sale deal discount shop store order ship delivery price premium edible "
            "flower concentrate cartridge menu stock fresh quality brand customer "
            "service open special bundle gram ounce wax topical tincture online "
            "licensed local finest selection trusted"
        ).split(),
        emoji=["💰", "🛒", "🔥", "🌿", "📦", "💵", "🏷️", "🆕", "🚚"],
        image_tags=["storefront", "product", "logo", "package", "display"],
        name_parts=(
            ["green", "leaf", "golden", "happy", "river", "summit"],
            ["dispensary", "supply", "collective", "shop", "gardens", "wellness"],
        ),
        targets=((0.70, RETAIL_HUBS), (0.90, None), (1.0, ALL_HUBS)),
        hubs=RETAIL_HUBS,
    ),
}


def _pick(rng, pool: list[str]) -> str:
    return pool[int(rng.integers(len(pool)))]


def _draw_words(rng, profile: ClassProfile, pool: list[str], length: int) -> list[str]:
    out = []
    for _ in range(length):
        if rng.random() < profile.class_word_prob:
            out.append(pool[int(rng.integers(len(pool)))])
        else:
            out.append(SHARED_WORDS[int(rng.integers(len(SHARED_WORDS)))])
    return out


def _make_phone(rng) -> str:
    area = int(rng.integers(200, 990))
    mid = int(rng.integers(100, 999))
    end = int(rng.integers(1000, 9999))
    return f"{area}-{mid}-{end}"


def _target(rng, style: _ClassStyle, peers: list[str], own_id: str) -> str:
    """Pick an interaction target from the class's target mix."""
    roll = rng.random()
    for bound, pool in style.targets:
        if roll < bound:
            break
    if pool is None:
        pick = _pick(rng, peers)
        if pick != own_id:
            return pick
        pool = style.hubs
    return _pick(rng, pool)


def generate(config: "SynthConfig | None" = None) -> LabeledDataset:
    """Produce a labeled dataset, deterministic for a given seed."""
    config = config or SynthConfig()
    rng = np.random.default_rng(config.seed)

    users: list[UserRecord] = []
    tweets: list[TweetRecord] = []
    labels: dict[str, ClassLabel] = {}
    class_users = {
        cls: [f"{_STYLES[cls].prefix}{i:04d}" for i in range(config.profiles[cls].users)]
        for cls in ClassLabel
    }

    tweet_no = 0
    for cls in ClassLabel:
        profile = config.profiles[cls]
        style = _STYLES[cls]
        for uid in class_users[cls]:
            desc_len = int(rng.integers(*DESCRIPTION_WORDS))
            description = " ".join(_draw_words(rng, profile, style.words, desc_len))
            if rng.random() < profile.contact_prob:
                if rng.random() < 0.5:
                    description += f" call {_make_phone(rng)}"
                else:
                    description += f" visit www.{uid}-shop.example"
            if rng.random() < profile.emoji_per_tweet:
                description += " " + _pick(rng, style.emoji)

            users.append(
                UserRecord(
                    user_id=uid,
                    name=" ".join(_pick(rng, part).title() for part in style.name_parts),
                    screen_name=uid,
                    description=description,
                    profile_image_ref=f"img://{uid}",
                )
            )
            labels[uid] = cls

            n_tweets = int(rng.integers(profile.tweets_min, profile.tweets_max + 1))
            for _ in range(n_tweets):
                length = int(rng.integers(profile.tweet_len_min, profile.tweet_len_max + 1))
                text = " ".join(_draw_words(rng, profile, style.words, length))
                if rng.random() < profile.url_prob:
                    text += f" https://links.example/{tweet_no}"
                n_emoji = int(rng.poisson(profile.emoji_per_tweet))
                for _e in range(min(n_emoji, 3)):
                    text += " " + _pick(rng, style.emoji)
                tweets.append(
                    TweetRecord(tweet_id=f"t{tweet_no:06d}", author_id=uid, raw_text=text)
                )
                tweet_no += 1

    interactions: list[InteractionRecord] = []
    for cls in ClassLabel:
        profile = config.profiles[cls]
        style = _STYLES[cls]
        uids = class_users[cls]
        for kind, rate in (
            (InteractionKind.RETWEET, profile.retweet_rate),
            (InteractionKind.MENTION, profile.mention_rate),
        ):
            total = int(round(profile.users * rate))
            if total == 0:
                continue
            per_user = rng.multinomial(total, np.full(len(uids), 1.0 / len(uids)))
            for uid, events in zip(uids, per_user):
                counts: dict[str, int] = {}
                for _ in range(int(events)):
                    target = _target(rng, style, uids, uid)
                    counts[target] = counts.get(target, 0) + 1
                for target in sorted(counts):
                    interactions.append(
                        InteractionRecord(source=uid, target=target, kind=kind, count=counts[target])
                    )

    return assemble_dataset(users, tweets, interactions, labels)


def write_image_fixture(dataset: LabeledDataset, path, seed: int = 0) -> None:
    """Emit an image-tag fixture matching the dataset's profile_image_refs."""
    rng = np.random.default_rng(seed)
    lines = []
    for user in dataset.users:
        if user.profile_image_ref is None or user.label is None:
            continue
        pool = _STYLES[user.label].image_tags
        n = int(rng.integers(2, len(pool) + 1))
        picks = list(rng.choice(pool, size=n, replace=False))
        confidences = [f"{0.55 + 0.4 * rng.random():.2f}" for _ in picks]
        lines.append(f"{user.profile_image_ref}\t{','.join(picks)}\t{','.join(confidences)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
