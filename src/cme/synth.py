"""Synthetic multiview dataset generator for desk-scale experiments.

Generates users, descriptions, tweets, emoji usage, and interactions with
class-conditioned statistics so the full pipeline can be exercised end to
end. Text is drawn from class-indicative word pools mixed with a shared
pool; interactions are aimed at class-preferred hub accounts so the
network view carries its own signal.

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

PERSONAL_WORDS = (
    "chill relax tonight friend vibe happy love laugh session weekend music "
    "party fun sleepy hungry cookie couch movie homie blunt joint giggle mood "
    "dream late night honestly literally tired bored excited weird crazy funny "
    "joy peace smile heart selfie"
).split()

AGENCY_WORDS = (
    "news report update headline article policy law legalization state senate "
    "bill vote regulation research study health public official industry market "
    "analysis coverage breaking committee hearing license program medical "
    "patient journalist editor source data media"
).split()

RETAIL_WORDS = (
    "sale deal discount shop store order ship delivery price premium edible "
    "flower concentrate cartridge menu stock fresh quality brand customer "
    "service open special bundle gram ounce wax topical tincture online "
    "licensed local finest selection trusted"
).split()

PERSONAL_EMOJI = ["😂", "❤️", "😍", "🤣", "😎", "🌿", "💨", "😴", "😋"]
AGENCY_EMOJI = ["📰", "📢", "📊", "🗞️", "📈", "⚖️", "🗳️", "🏥"]
RETAIL_EMOJI = ["💰", "🛒", "🔥", "🌿", "📦", "💵", "🏷️", "🆕", "🚚"]

PERSONAL_IMAGE_TAGS = ["person", "smile", "selfie", "face", "outdoor"]
AGENCY_IMAGE_TAGS = ["logo", "text", "banner", "studio", "microphone"]
RETAIL_IMAGE_TAGS = ["storefront", "product", "logo", "package", "display"]

MEDIA_HUBS = [f"hub_media_{i:02d}" for i in range(10)]
RETAIL_HUBS = [f"hub_retail_{i:02d}" for i in range(10)]
CELEBRITY_HUBS = [f"hub_celebrity_{i:02d}" for i in range(8)]


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
    desc_len_min: int = 6
    desc_len_max: int = 12
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


_CLASS_WORDS = {
    ClassLabel.PERSONAL: PERSONAL_WORDS,
    ClassLabel.INFORMED_AGENCY: AGENCY_WORDS,
    ClassLabel.RETAIL: RETAIL_WORDS,
}
_CLASS_EMOJI = {
    ClassLabel.PERSONAL: PERSONAL_EMOJI,
    ClassLabel.INFORMED_AGENCY: AGENCY_EMOJI,
    ClassLabel.RETAIL: RETAIL_EMOJI,
}
_CLASS_IMAGE_TAGS = {
    ClassLabel.PERSONAL: PERSONAL_IMAGE_TAGS,
    ClassLabel.INFORMED_AGENCY: AGENCY_IMAGE_TAGS,
    ClassLabel.RETAIL: RETAIL_IMAGE_TAGS,
}
_CLASS_PREFIX = {
    ClassLabel.PERSONAL: "p",
    ClassLabel.INFORMED_AGENCY: "i",
    ClassLabel.RETAIL: "r",
}

_FIRST_NAMES = "james john mary patricia robert jennifer michael linda david sarah".split()
_LAST_NAMES = "smith johnson williams brown jones garcia miller davis wilson moore".split()
_ORG_HEADS = {
    ClassLabel.INFORMED_AGENCY: ["daily", "herald", "tribune", "public", "health", "capital"],
    ClassLabel.RETAIL: ["green", "leaf", "golden", "happy", "river", "summit"],
}
_ORG_TAILS = {
    ClassLabel.INFORMED_AGENCY: ["news", "report", "journal", "network", "wire", "watch"],
    ClassLabel.RETAIL: ["dispensary", "supply", "collective", "shop", "gardens", "wellness"],
}


def _draw_words(rng, profile: ClassProfile, pool: list[str], length: int) -> list[str]:
    out = []
    for _ in range(length):
        if rng.random() < profile.class_word_prob:
            out.append(pool[int(rng.integers(len(pool)))])
        else:
            out.append(SHARED_WORDS[int(rng.integers(len(SHARED_WORDS)))])
    return out


def _make_name(rng, cls: ClassLabel) -> str:
    if cls is ClassLabel.PERSONAL:
        first = _FIRST_NAMES[int(rng.integers(len(_FIRST_NAMES)))]
        last = _LAST_NAMES[int(rng.integers(len(_LAST_NAMES)))]
        return f"{first.title()} {last.title()}"
    head = _ORG_HEADS[cls][int(rng.integers(len(_ORG_HEADS[cls])))]
    tail = _ORG_TAILS[cls][int(rng.integers(len(_ORG_TAILS[cls])))]
    return f"{head.title()} {tail.title()}"


def _make_phone(rng) -> str:
    area = int(rng.integers(200, 990))
    mid = int(rng.integers(100, 999))
    end = int(rng.integers(1000, 9999))
    return f"{area}-{mid}-{end}"


def _target_pool(rng, cls: ClassLabel, class_users: dict[ClassLabel, list[str]], own_id: str) -> str:
    """Pick an interaction target with class-preferred mixing."""
    roll = rng.random()
    all_hubs = MEDIA_HUBS + RETAIL_HUBS + CELEBRITY_HUBS
    if cls is ClassLabel.PERSONAL:
        if roll < 0.55:
            peers = class_users[ClassLabel.PERSONAL]
            pick = peers[int(rng.integers(len(peers)))]
            return pick if pick != own_id else CELEBRITY_HUBS[int(rng.integers(len(CELEBRITY_HUBS)))]
        if roll < 0.90:
            return CELEBRITY_HUBS[int(rng.integers(len(CELEBRITY_HUBS)))]
        return all_hubs[int(rng.integers(len(all_hubs)))]
    if cls is ClassLabel.INFORMED_AGENCY:
        if roll < 0.75:
            return MEDIA_HUBS[int(rng.integers(len(MEDIA_HUBS)))]
        if roll < 0.90:
            peers = class_users[ClassLabel.INFORMED_AGENCY]
            pick = peers[int(rng.integers(len(peers)))]
            return pick if pick != own_id else MEDIA_HUBS[int(rng.integers(len(MEDIA_HUBS)))]
        return all_hubs[int(rng.integers(len(all_hubs)))]
    if roll < 0.70:
        return RETAIL_HUBS[int(rng.integers(len(RETAIL_HUBS)))]
    if roll < 0.90:
        peers = class_users[ClassLabel.RETAIL]
        pick = peers[int(rng.integers(len(peers)))]
        return pick if pick != own_id else RETAIL_HUBS[int(rng.integers(len(RETAIL_HUBS)))]
    return all_hubs[int(rng.integers(len(all_hubs)))]


def generate(config: "SynthConfig | None" = None) -> LabeledDataset:
    """Produce a labeled dataset, deterministic for a given seed."""
    config = config or SynthConfig()
    rng = np.random.default_rng(config.seed)

    users: list[UserRecord] = []
    tweets: list[TweetRecord] = []
    labels: dict[str, ClassLabel] = {}
    class_users: dict[ClassLabel, list[str]] = {cls: [] for cls in ClassLabel}

    for cls in ClassLabel:
        profile = config.profiles[cls]
        prefix = _CLASS_PREFIX[cls]
        for i in range(profile.users):
            class_users[cls].append(f"{prefix}{i:04d}")

    tweet_no = 0
    for cls in ClassLabel:
        profile = config.profiles[cls]
        pool = _CLASS_WORDS[cls]
        emoji_pool = _CLASS_EMOJI[cls]
        for uid in class_users[cls]:
            desc_len = int(rng.integers(profile.desc_len_min, profile.desc_len_max + 1))
            desc_words = _draw_words(rng, profile, pool, desc_len)
            description = " ".join(desc_words)
            if rng.random() < profile.contact_prob:
                if rng.random() < 0.5:
                    description += f" call {_make_phone(rng)}"
                else:
                    description += f" visit www.{uid}-shop.example"
            if rng.random() < profile.emoji_per_tweet:
                description += " " + emoji_pool[int(rng.integers(len(emoji_pool)))]

            users.append(
                UserRecord(
                    user_id=uid,
                    name=_make_name(rng, cls),
                    screen_name=uid,
                    description=description,
                    profile_image_ref=f"img://{uid}",
                )
            )
            labels[uid] = cls

            n_tweets = int(rng.integers(profile.tweets_min, profile.tweets_max + 1))
            for _ in range(n_tweets):
                length = int(rng.integers(profile.tweet_len_min, profile.tweet_len_max + 1))
                words = _draw_words(rng, profile, pool, length)
                text = " ".join(words)
                if rng.random() < profile.url_prob:
                    text += f" https://links.example/{tweet_no}"
                n_emoji = int(rng.poisson(profile.emoji_per_tweet))
                for _e in range(min(n_emoji, 3)):
                    text += " " + emoji_pool[int(rng.integers(len(emoji_pool)))]
                tweets.append(
                    TweetRecord(tweet_id=f"t{tweet_no:06d}", author_id=uid, raw_text=text)
                )
                tweet_no += 1

    interactions: list[InteractionRecord] = []
    for cls in ClassLabel:
        profile = config.profiles[cls]
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
                    target = _target_pool(rng, cls, class_users, uid)
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
        pool = _CLASS_IMAGE_TAGS[user.label]
        n = int(rng.integers(2, len(pool) + 1))
        picks = list(rng.choice(pool, size=n, replace=False))
        confidences = [f"{0.55 + 0.4 * rng.random():.2f}" for _ in picks]
        lines.append(f"{user.profile_image_ref}\t{','.join(picks)}\t{','.join(confidences)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
