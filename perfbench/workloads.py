"""Benchmark workloads: synthetic corpora shaped so one layer dominates each.

Every workload is a reshaping of the default ``cme.synth`` profiles. The
corpus, the image-tag fixture and the pipeline config are all derived from
the workload and the seed, so the same seed always gives byte-identical
inputs (``corpus_digest`` proves it).

Why each workload exists:

- ``text``: 165 users with long timelines (12-20 tweets of 10-20 words),
  weak class words (0.12) so macro-F1 is not saturated, doubled emoji and
  interactions at 0.2x the default rates. The skip-gram trainer,
  preprocessing and the emoji and image views dominate. About 80 source
  rows keep the factorisation on the cheap small-matrix path, and the
  classifier fits few rows.
- ``network``: 605 users with 1-3 tweets at the paper's interaction rates,
  100-dimensional views and k = 100. About 480 source rows put the
  factorisation on the large-matrix path, where it dominates; the trainer
  sees little text.
- ``imbalanced``: 600 users at 12:2:1 with 1-2 tweets and 300-dimensional
  views. Every stage saves and reloads a 300-wide row per user for each
  view and composition, and SMOTE triples the rows the classifier fits,
  so artifact I/O and the logistic fit dominate. Interactions at 1.5x the
  default rates give suite B about 490 connected users to score, and
  k = 10 keeps the factorisation near 0.15 s.

Every workload keeps its source-row count well away from the 400-row
switch between the small- and large-matrix eigensolvers: a graph just
under it would take the dense Jacobi path and cost tens of seconds.

Run as a script, this module writes one workload's corpus and config into
a directory; the benchmark times that as its set-up step.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import dataclass, replace
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    users: tuple[int, int, int]  # personal, informed agency, retail
    tweets: tuple[int, int]  # per user, inclusive range
    tweet_len: tuple[int, int]  # words per tweet, inclusive range
    class_word_prob: float | None  # None keeps the synth default
    emoji_scale: float
    rate_scale: float  # multiplies the default retweet and mention rates
    dimension: int
    k: int  # network components; 0 lets the pipeline pick min(dim, rows)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="text",
            why="long timelines: skip-gram training, preprocess and text views dominate; "
            "small interaction graph bypasses the network factorisation",
            users=(90, 45, 30),
            tweets=(12, 20),
            tweet_len=(10, 20),
            class_word_prob=0.12,
            emoji_scale=2.0,
            rate_scale=0.2,
            dimension=300,
            k=0,
        ),
        Workload(
            name="network",
            why="paper interaction rates over many short-timeline users: the network "
            "factorisation on the large-matrix path dominates; little text to train on",
            users=(330, 165, 110),
            tweets=(1, 3),
            tweet_len=(6, 12),
            class_word_prob=None,
            emoji_scale=1.0,
            rate_scale=1.0,
            dimension=100,
            k=100,
        ),
        Workload(
            name="imbalanced",
            why="12:2:1 classes, many users, 300-wide views: artifact save/load, SMOTE "
            "and the logistic fit dominate; k=10 keeps the network factorisation cheap",
            users=(480, 80, 40),
            tweets=(1, 2),
            tweet_len=(6, 12),
            class_word_prob=None,
            emoji_scale=1.0,
            rate_scale=1.5,
            dimension=300,
            k=10,
        ),
    )
}


def scaled_users(workload: Workload, scale: float) -> tuple[int, int, int]:
    """Class sizes multiplied by scale, keeping at least 12 users per class."""
    return tuple(max(12, round(n * scale)) for n in workload.users)


def synth_config(workload: Workload, seed: int, scale: float = 1.0):
    from cme import synth
    from cme.corpus import ClassLabel

    profiles = synth.default_profiles()
    order = (ClassLabel.PERSONAL, ClassLabel.INFORMED_AGENCY, ClassLabel.RETAIL)
    for cls, users in zip(order, scaled_users(workload, scale)):
        base = profiles[cls]
        profiles[cls] = replace(
            base,
            users=users,
            tweets_min=workload.tweets[0],
            tweets_max=workload.tweets[1],
            tweet_len_min=workload.tweet_len[0],
            tweet_len_max=workload.tweet_len[1],
            class_word_prob=workload.class_word_prob or base.class_word_prob,
            emoji_per_tweet=base.emoji_per_tweet * workload.emoji_scale,
            retweet_rate=base.retweet_rate * workload.rate_scale,
            mention_rate=base.mention_rate * workload.rate_scale,
        )
    return synth.SynthConfig(profiles=profiles, seed=seed)


def config_text(workload: Workload, seed: int, corpus_dir: Path, scale: float = 1.0) -> str:
    """The pipeline config: defaults except the corpus, seed and sizes."""
    k = max(2, round(workload.k * scale)) if workload.k else 0
    return (
        f"[global]\nseed = {seed}\n\n"
        f"[corpus]\ndirectory = {corpus_dir}\n\n"
        f"[train_we]\ndimension = {workload.dimension}\n\n"
        f"[views]\nprofile_images = true\n\n"
        f"[netembed]\nk = {k}\n\n"
        f"[classify]\nsplit_ratio = 0.5\n"
    )


def write_inputs(workload: Workload, seed: int, directory: Path, scale: float = 1.0) -> Path:
    """Generate and write the corpus, image fixture and config; return the config path."""
    from cme import corpus, synth

    directory = Path(directory).resolve()
    corpus_dir = directory / "corpus"
    dataset = synth.generate(synth_config(workload, seed, scale))
    corpus.save_dataset(dataset, corpus_dir)
    synth.write_image_fixture(dataset, corpus_dir / "image_tags.tsv", seed=seed)
    config = directory / "config.ini"
    config.write_text(config_text(workload, seed, corpus_dir, scale), encoding="utf-8")
    return config


def corpus_digest(directory: Path) -> str:
    """sha256 over the corpus file names and bytes, in name order."""
    digest = hashlib.sha256()
    for path in sorted(Path(directory).iterdir()):
        digest.update(path.name.encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="write one workload's corpus and config")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    write_inputs(WORKLOADS[args.workload], args.seed, Path(args.dir), args.scale)
    return 0


if __name__ == "__main__":
    sys.exit(main())
