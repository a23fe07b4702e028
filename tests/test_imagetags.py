import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

from cme.imagetags import (
    FixtureMissError,
    ImageTagClient,
    TagClientConfig,
    TransportError,
    load_fixture,
    profile_image_embedding,
)
from cme.wemodel import view_embedding


@pytest.fixture
def fixture_path(tmp_path):
    path = tmp_path / "tags.tsv"
    path.write_text(
        "img1\tperson,smile\n"
        "img2\tstorefront,logo\t0.9,0.3\n"
        "img3\tnews\t0.8\n",
        encoding="utf-8",
    )
    return str(path)


class TestFixtureMode:
    def test_lookup(self, fixture_path):
        client = ImageTagClient(TagClientConfig(mode="fixture", fixture_path=fixture_path))
        result = client.tag_image("img1")
        assert result.tags == ["person", "smile"]

    def test_miss_is_an_error(self, fixture_path):
        client = ImageTagClient(TagClientConfig(mode="fixture", fixture_path=fixture_path))
        with pytest.raises(FixtureMissError, match="img9"):
            client.tag_image("img9")

    def test_confidence_threshold_filters(self, fixture_path):
        client = ImageTagClient(
            TagClientConfig(mode="fixture", fixture_path=fixture_path, confidence_threshold=0.5)
        )
        result = client.tag_image("img2")
        assert result.tags == ["storefront"]
        assert result.confidences == [0.9]

    def test_fixture_mode_requires_path(self):
        with pytest.raises(Exception):
            ImageTagClient(TagClientConfig(mode="fixture", fixture_path=None))

    def test_malformed_fixture_rejected(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("just-one-column\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_fixture(bad)

    def test_batch_lookup(self, fixture_path):
        client = ImageTagClient(
            TagClientConfig(mode="fixture", fixture_path=fixture_path, concurrency=3)
        )
        results = client.tag_images(["img1", "img3"])
        assert set(results) == {"img1", "img3"}
        assert results["img3"].tags == ["news"]


class _TagHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(length))
        body = json.dumps(
            {"tags": ["person", "outdoor"], "confidences": [0.92, 0.4],
             "echo": payload["image_ref"]}
        ).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class _FailingHandler(_TagHandler):
    def do_POST(self):
        self.send_response(503)
        self.send_header("Content-Length", "0")
        self.end_headers()


def _serve(handler):
    server = HTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, f"http://127.0.0.1:{server.server_port}/tag"


@pytest.fixture
def live_server():
    server, url = _serve(_TagHandler)
    yield url
    server.shutdown()
    server.server_close()


class TestLiveMode:
    def test_unreachable_endpoint_transport_error(self):
        config = TagClientConfig(
            mode="live", endpoint="http://127.0.0.1:1/tag", retries=2, timeout=0.2
        )
        client = ImageTagClient(config)
        with pytest.raises(TransportError) as err:
            client.tag_image("img1")
        assert err.value.attempts == 3  # retries + 1

    def test_error_status_is_transport_error(self):
        server, url = _serve(_FailingHandler)
        try:
            client = ImageTagClient(TagClientConfig(mode="live", endpoint=url, retries=1))
            with pytest.raises(TransportError, match="503") as err:
                client.tag_image("img1")
        finally:
            server.shutdown()
            server.server_close()
        assert err.value.attempts == 2

    def test_live_request_parses_and_filters(self, live_server):
        config = TagClientConfig(
            mode="live", endpoint=live_server, confidence_threshold=0.5
        )
        result = ImageTagClient(config).tag_image("img1")
        assert result.tags == ["person"]

    def test_cache_avoids_second_request(self, live_server, tmp_path):
        config = TagClientConfig(
            mode="live", endpoint=live_server, cache_dir=str(tmp_path / "cache"),
            confidence_threshold=0.0,
        )
        client = ImageTagClient(config)
        first = client.tag_image("img1")
        # break the endpoint; the cached answer must still come back
        client.config.endpoint = "http://127.0.0.1:1/tag"
        second = client.tag_image("img1")
        assert second.tags == first.tags
        assert list((tmp_path / "cache").glob("*.json"))


class TestProfileImageEmbedding:
    def test_single_tag_exact_vector(self, toy_model):
        out = profile_image_embedding(["smile"], toy_model)
        assert np.array_equal(out, toy_model.vectors[toy_model.vocabulary["smile"]])

    def test_two_tags_mean(self, toy_model):
        out = profile_image_embedding(["herb", "smile"], toy_model)
        expected = (toy_model.vectors[0] + toy_model.vectors[2]) / 2
        np.testing.assert_allclose(out, expected, atol=1e-15)

    def test_all_oov_sentinel(self, toy_model):
        assert profile_image_embedding(["nothing", "here"], toy_model) is None

    def test_delegates_exactly_to_view_embedding(self, toy_model):
        tags = ["person", "smile", "herb", "smile"]
        mine = profile_image_embedding(tags, toy_model)
        reference = view_embedding(tags, toy_model)
        assert np.array_equal(mine, reference)
