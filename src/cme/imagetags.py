"""Image-tagging service client with an offline fixture mode.

Profile pictures are turned into word tags by an external vision service.
The live client speaks a minimal JSON protocol (POST {"image_ref": ...},
response {"tags": [...], "confidences": [...]}) over the standard
library's urllib, imported only when a live request is made, and caches
every answer on disk keyed by the image reference, so reruns never re-bill
the service. Fixture mode reads the same tags from a local TSV and needs
no network; it is the default for tests and synthetic runs.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .wemodel import WEModel, view_embedding


class TagServiceError(Exception):
    """Base class for tagging failures."""


class TransportError(TagServiceError):
    """The live endpoint could not be reached or answered badly."""

    def __init__(self, message: str, attempts: int):
        self.attempts = attempts
        super().__init__(f"{message} (after {attempts} attempts)")


class FixtureMissError(TagServiceError):
    """The fixture has no entry for the requested image reference."""


@dataclass
class ImageTagResult:
    image_ref: str
    tags: list[str]
    confidences: Optional[list[float]] = None

    def __post_init__(self):
        if self.confidences is not None and len(self.confidences) != len(self.tags):
            raise ValueError("confidences must align one-to-one with tags")


@dataclass
class TagClientConfig:
    mode: str = "fixture"  # "fixture" or "live"
    fixture_path: Optional[str] = None
    endpoint: Optional[str] = None
    credential_env: str = "IMAGE_TAG_API_KEY"
    retries: int = 2
    timeout: float = 10.0
    concurrency: int = 4
    confidence_threshold: float = 0.5
    cache_dir: Optional[str] = None


def load_fixture(path) -> dict[str, ImageTagResult]:
    """Parse image_ref TAB tags [TAB confidences], comma-separated lists."""
    fixtures: dict[str, ImageTagResult] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) < 2:
            raise ValueError(f"{path}: malformed fixture line {line!r}")
        tags = [t.strip() for t in parts[1].split(",") if t.strip()]
        confidences = None
        if len(parts) > 2 and parts[2].strip():
            confidences = [float(c) for c in parts[2].split(",")]
        fixtures[parts[0]] = ImageTagResult(parts[0], tags, confidences)
    return fixtures


class ImageTagClient:
    """Tagging client; thread-safe, bounded concurrency, cached."""

    def __init__(self, config: TagClientConfig):
        self.config = config
        self._fixtures: Optional[dict[str, ImageTagResult]] = None
        self._cache_lock = threading.Lock()
        if config.mode == "fixture":
            if not config.fixture_path:
                raise TagServiceError("fixture mode requires fixture_path")
            self._fixtures = load_fixture(config.fixture_path)
        elif config.mode == "live":
            if not config.endpoint:
                raise TagServiceError("live mode requires an endpoint")
        else:
            raise TagServiceError(f"unknown mode {self.config.mode!r}")

    def _apply_threshold(self, result: ImageTagResult) -> ImageTagResult:
        if result.confidences is None:
            return result
        kept = [
            (t, c)
            for t, c in zip(result.tags, result.confidences)
            if c >= self.config.confidence_threshold
        ]
        return ImageTagResult(
            image_ref=result.image_ref,
            tags=[t for t, _ in kept],
            confidences=[c for _, c in kept],
        )

    def _cache_path(self, image_ref: str) -> Optional[Path]:
        if not self.config.cache_dir:
            return None
        digest = hashlib.sha256(image_ref.encode("utf-8")).hexdigest()[:24]
        return Path(self.config.cache_dir) / f"{digest}.json"

    def _read_cache(self, image_ref: str) -> Optional[ImageTagResult]:
        path = self._cache_path(image_ref)
        if path is None or not path.exists():
            return None
        raw = json.loads(path.read_text(encoding="utf-8"))
        return ImageTagResult(raw["image_ref"], raw["tags"], raw.get("confidences"))

    def _write_cache(self, result: ImageTagResult) -> None:
        path = self._cache_path(result.image_ref)
        if path is None:
            return
        payload = {"image_ref": result.image_ref, "tags": result.tags}
        if result.confidences is not None:
            payload["confidences"] = result.confidences
        with self._cache_lock:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")

    def _request_live(self, image_ref: str) -> ImageTagResult:
        # imported here so the fixture-mode run path never loads an HTTP client
        import http.client
        import urllib.error
        import urllib.request

        headers = {"Content-Type": "application/json"}
        credential = os.environ.get(self.config.credential_env)
        if credential:
            headers["Authorization"] = f"Bearer {credential}"
        body = json.dumps({"image_ref": image_ref}).encode("utf-8")
        attempts = self.config.retries + 1
        last_error: Optional[Exception] = None
        for _attempt in range(attempts):
            try:
                request = urllib.request.Request(
                    self.config.endpoint, data=body, headers=headers, method="POST"
                )
                with urllib.request.urlopen(request, timeout=self.config.timeout) as response:
                    payload = json.loads(response.read())
                tags = [str(t) for t in payload.get("tags", [])]
                confidences = payload.get("confidences")
                if confidences is not None:
                    confidences = [float(c) for c in confidences]
                if not tags:
                    raise TagServiceError(f"service returned no tags for {image_ref!r}")
                return ImageTagResult(image_ref, tags, confidences)
            except urllib.error.HTTPError as exc:
                exc.close()  # the error object holds the open response
                last_error = exc
            except (OSError, ValueError, http.client.HTTPException) as exc:
                last_error = exc
        raise TransportError(f"tagging {image_ref!r} failed: {last_error}", attempts)

    def tag_image(self, image_ref: str) -> ImageTagResult:
        """Tags for one image; FixtureMissError on a fixture miss, never silence."""
        if self._fixtures is not None:
            result = self._fixtures.get(image_ref)
            if result is None:
                raise FixtureMissError(f"no fixture entry for image {image_ref!r}")
            return self._apply_threshold(result)

        cached = self._read_cache(image_ref)
        if cached is not None:
            return self._apply_threshold(cached)
        result = self._request_live(image_ref)
        self._write_cache(result)
        return self._apply_threshold(result)

    def tag_images(self, image_refs: Sequence[str]) -> dict[str, ImageTagResult]:
        """Tag a batch with bounded concurrency; raises the first failure."""
        refs = list(image_refs)
        if not refs:
            return {}
        workers = max(1, min(self.config.concurrency, len(refs)))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(self.tag_image, refs))
        return {r.image_ref: r for r in results}


def profile_image_embedding(tags: Sequence[str], people_model: WEModel) -> Optional[np.ndarray]:
    """Embed image tags exactly like any other token list (mean of vectors)."""
    return view_embedding(tags, people_model)
