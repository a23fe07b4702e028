import re

import numpy as np
import pytest

from cme.corpus import LabeledDataset, UserRecord
from cme.imagetags import CONFIDENCE_THRESHOLD, MissingImageTagsError, load_image_tags
from cme.pipeline import build_image_view
from cme.wemodel import view_embedding


@pytest.fixture
def fixture_path(tmp_path):
    path = tmp_path / "tags.tsv"
    path.write_text(
        "# image_ref\ttags\tconfidences\n"
        "img1\tperson,smile\n"
        "\n"
        "img2\tstorefront,logo\t0.9,0.3\n"
        "img3\tnews\t0.8\n",
        encoding="utf-8",
    )
    return path


def _image_vector(tags, model):
    """The ProfileImage vector of one user whose picture carries these tags."""
    dataset = LabeledDataset(
        users=[UserRecord("u1", profile_image_ref="img://u1")], tweets=[], interactions=[]
    )
    return build_image_view(dataset, model, {"img://u1": tags}).vectors["u1"]


class TestFixtureMode:
    def test_lookup(self, fixture_path):
        assert load_image_tags(fixture_path)["img1"] == ["person", "smile"]

    def test_batch_lookup(self, fixture_path):
        tags = load_image_tags(fixture_path)
        assert set(tags) == {"img1", "img2", "img3"}  # comment and blank lines skipped
        assert tags["img3"] == ["news"]

    def test_miss_is_an_error(self, toy_model):
        dataset = LabeledDataset(
            users=[UserRecord("u1", profile_image_ref="img1"), UserRecord("u9", profile_image_ref="img9")],
            tweets=[],
            interactions=[],
        )
        with pytest.raises(MissingImageTagsError, match=re.escape("'img9' (user u9)")):
            build_image_view(dataset, toy_model, {"img1": ["smile"]})

    def test_user_without_image_is_sentinel(self, toy_model):
        dataset = LabeledDataset(users=[UserRecord("u1")], tweets=[], interactions=[])
        assert build_image_view(dataset, toy_model, {}).vectors == {"u1": None}

    def test_confidence_threshold_filters(self, tmp_path):
        # a confidence equal to the threshold is kept, the next float below it dropped
        below = float(np.nextafter(CONFIDENCE_THRESHOLD, 0.0))
        path = tmp_path / "tags.tsv"
        path.write_text(f"img1\tat,below,above\t{CONFIDENCE_THRESHOLD!r},{below!r},1.0\n", encoding="utf-8")
        assert load_image_tags(path)["img1"] == ["at", "above"]

    def test_no_confidence_column_keeps_all_tags(self, fixture_path):
        assert load_image_tags(fixture_path)["img1"] == ["person", "smile"]

    def test_fixture_mode_requires_path(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_image_tags(tmp_path / "absent.tsv")

    def test_malformed_fixture_rejected(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("img1\tperson\njust-one-column\n", encoding="utf-8")
        with pytest.raises(ValueError, match="bad.tsv:2:"):
            load_image_tags(bad)

    def test_unaligned_confidences_rejected(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("img1\tperson,smile\t0.9\n", encoding="utf-8")
        with pytest.raises(ValueError, match="align"):
            load_image_tags(bad)


class TestProfileImageEmbedding:
    def test_single_tag_exact_vector(self, toy_model):
        out = _image_vector(["smile"], toy_model)
        assert np.array_equal(out, toy_model.vectors[toy_model.vocabulary["smile"]])

    def test_two_tags_mean(self, toy_model):
        out = _image_vector(["herb", "smile"], toy_model)
        expected = (toy_model.vectors[0] + toy_model.vectors[2]) / 2
        np.testing.assert_allclose(out, expected, atol=1e-15)

    def test_all_oov_sentinel(self, toy_model):
        assert _image_vector(["nothing", "here"], toy_model) is None

    def test_delegates_exactly_to_view_embedding(self, toy_model):
        tags = ["person", "smile", "herb", "smile"]
        assert np.array_equal(_image_vector(tags, toy_model), view_embedding(tags, toy_model))
