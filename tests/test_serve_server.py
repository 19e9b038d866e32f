"""End-to-end tests of the HTTP serving endpoint.

Each test boots a real server on an ephemeral port via
:func:`repro.serve.start_server_thread` and talks to it over actual TCP
with :mod:`urllib` — the same path the CI smoke job and the ECG example
use.  The core acceptance criterion: ``/predict`` labels are bit-identical
to ``predict_bitexact`` and ``/metrics`` counters advance.
"""

from __future__ import annotations

import json
import logging
import socket
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.classifier import FixedPointLinearClassifier
from repro.fixedpoint.qformat import QFormat
from repro.serve import (
    BatcherConfig,
    ModelRegistry,
    ServeConfig,
    start_server_thread,
)


@pytest.fixture(scope="module")
def classifier():
    return FixedPointLinearClassifier(
        weights=np.array([0.5, -0.25, 1.0]), threshold=0.125, fmt=QFormat(2, 4)
    )


@pytest.fixture(scope="module")
def second_classifier():
    return FixedPointLinearClassifier(
        weights=np.array([0.25, 0.5, -1.0]), threshold=0.0, fmt=QFormat(2, 4),
        polarity=-1,
    )


@pytest.fixture(scope="module")
def server(classifier, second_classifier):
    registry = ModelRegistry()
    registry.register("primary", classifier)
    registry.register("mirror", second_classifier)
    handle = start_server_thread(
        registry,
        ServeConfig(port=0, batcher=BatcherConfig(max_batch_size=8, max_delay=0.002)),
    )
    yield handle
    handle.stop()


def _post_json(url, payload):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.loads(response.read())


def _get(url, timeout=10):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.status, response.read().decode()


def _raw_status(port, data):
    """Send raw bytes, half-close, and return the reply's HTTP status code."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)
        reply = b""
        while b"\r\n" not in reply:
            chunk = sock.recv(4096)
            if not chunk:
                break
            reply += chunk
    return int(reply.split(b" ", 2)[1])


class TestPredict:
    def test_labels_match_predict_bitexact(self, server, classifier, rng):
        features = rng.uniform(-2, 2, size=(16, 3))
        status, reply = _post_json(
            server.url + "/predict",
            {"model": "primary", "features": [[float(v) for v in row] for row in features]},
        )
        assert status == 200
        assert reply["model"] == "primary"
        expected = classifier.predict_bitexact(features)
        assert reply["labels"] == [int(v) for v in expected]
        assert len(reply["projections"]) == 16
        assert "product_events" in reply["overflow"]

    def test_single_vector_body(self, server, classifier):
        status, reply = _post_json(
            server.url + "/predict",
            {"model": "primary", "features": [0.5, 0.25, 1.0]},
        )
        assert status == 200
        assert reply["labels"] == [int(classifier.predict_bitexact([0.5, 0.25, 1.0])[0])]

    def test_lookup_by_content_hash(self, server, classifier):
        registry_model = server.server.registry.get("primary")
        status, reply = _post_json(
            server.url + "/predict",
            {
                "model": f"sha256:{registry_model.content_hash[:16]}",
                "features": [0.5, 0.25, 1.0],
            },
        )
        assert status == 200
        assert reply["model"] == "primary"
        assert reply["content_hash"] == registry_model.content_hash

    def test_second_model_answers_with_its_own_polarity(
        self, server, second_classifier, rng
    ):
        features = rng.uniform(-2, 2, size=(5, 3))
        status, reply = _post_json(
            server.url + "/predict",
            {"model": "mirror", "features": [[float(v) for v in r] for r in features]},
        )
        assert status == 200
        assert reply["labels"] == [
            int(v) for v in second_classifier.predict_bitexact(features)
        ]

    def test_missing_model_key_with_two_models_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post_json(server.url + "/predict", {"features": [0.5, 0.25, 1.0]})
        assert excinfo.value.code == 404

    def test_unknown_model_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post_json(
                server.url + "/predict",
                {"model": "ghost", "features": [0.5, 0.25, 1.0]},
            )
        assert excinfo.value.code == 404

    @pytest.mark.parametrize(
        "body",
        [
            {"model": "primary"},
            {"model": "primary", "features": []},
            {"model": "primary", "features": "nope"},
            {"model": "primary", "features": [[0.1], [0.2, 0.3]]},
            {"model": "primary", "features": [0.1, float("nan"), 0.2]},
            {"model": "primary", "features": [0.1, 0.2]},
        ],
        ids=["missing", "empty", "non-list", "ragged", "nan", "wrong-length"],
    )
    def test_malformed_features_are_400(self, server, body):
        # NaN is not valid JSON; emulate a sloppy client (allow_nan format).
        data = json.dumps(body).encode()
        request = urllib.request.Request(
            server.url + "/predict",
            data=data,
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_get_predict_is_405(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server.url + "/predict")
        assert excinfo.value.code == 405


class TestObservability:
    def test_healthz_lists_models(self, server):
        status, body = _get(server.url + "/healthz")
        assert status == 200
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert any("primary" in line for line in payload["models"])
        assert any("mirror" in line for line in payload["models"])

    def test_metrics_counters_advance(self, server):
        _post_json(
            server.url + "/predict",
            {"model": "primary", "features": [0.5, 0.25, 1.0]},
        )
        status, text = _get(server.url + "/metrics")
        assert status == 200

        def counter(name):
            for line in text.splitlines():
                if line.startswith(name + " "):
                    return float(line.split()[-1])
            raise AssertionError(f"{name} not exposed")

        assert counter("repro_serve_requests_total") >= 1
        assert counter("repro_serve_batches_total") >= 1
        assert counter("repro_serve_samples_total") >= 1

    def test_metrics_json_schema(self, server):
        status, body = _get(server.url + "/metrics.json")
        assert status == 200
        payload = json.loads(body)
        assert payload["schema"] == "repro.serve-metrics/v3"
        assert payload["requests_total"] >= 1

    def test_unknown_route_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server.url + "/nope")
        assert excinfo.value.code == 404


class TestHttpFraming:
    """Malformed framing is a 400 (or 431), never a bare 500."""

    def test_negative_content_length_is_400(self, server):
        request = b"POST /predict HTTP/1.1\r\nContent-Length: -5\r\n\r\n"
        assert _raw_status(server.port, request) == 400

    @pytest.mark.parametrize("where", ["request_line", "header_line"])
    def test_overlong_line_is_400(self, server, where):
        long = b"a" * (70 * 1024)
        if where == "request_line":
            request = b"GET /" + long + b" HTTP/1.1\r\n\r\n"
        else:
            request = b"GET /healthz HTTP/1.1\r\nX-Long: " + long + b"\r\n\r\n"
        assert _raw_status(server.port, request) == 400

    def test_body_shorter_than_content_length_is_400(self, server):
        request = b"POST /predict HTTP/1.1\r\nContent-Length: 100\r\n\r\n{}"
        assert _raw_status(server.port, request) == 400

    def test_too_many_header_lines_is_431(self, server):
        head = b"GET /healthz HTTP/1.1\r\n" + b"X-Filler: 1\r\n" * 101
        assert _raw_status(server.port, head + b"\r\n") == 431

    def test_header_lines_up_to_the_cap_are_served(self, server):
        head = b"GET /healthz HTTP/1.1\r\n" + b"X-Filler: 1\r\n" * 100
        assert _raw_status(server.port, head + b"\r\n") == 200


class TestInternalError:
    def test_route_fault_is_counted_and_logged(self, monkeypatch, caplog):
        registry = ModelRegistry()
        handle = start_server_thread(registry, ServeConfig(port=0))
        try:

            def broken():
                raise RuntimeError("registry exploded")

            monkeypatch.setattr(registry, "models", broken)
            with caplog.at_level(logging.ERROR, logger="repro.serve"):
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    _get(handle.url + "/healthz")
            assert excinfo.value.code == 500
            excinfo.value.close()
            assert handle.server.metrics.to_dict()["errors_total"] == 1
        finally:
            handle.stop()
        records = [r for r in caplog.records if r.name == "repro.serve"]
        assert len(records) == 1
        assert records[0].exc_info is not None
        assert "registry exploded" in str(records[0].exc_info[1])


class TestHotReloadThroughServer:
    def test_reload_swaps_served_bits(self, tmp_path, rng):
        from repro.core.serialize import save_classifier

        fmt = QFormat(2, 4)
        first = FixedPointLinearClassifier(
            weights=np.array([0.5, -0.25, 1.0]), threshold=0.125, fmt=fmt
        )
        second = FixedPointLinearClassifier(
            weights=np.array([-0.5, 0.25, -1.0]), threshold=0.0, fmt=fmt
        )
        path = tmp_path / "clf.json"
        save_classifier(first, str(path))
        registry = ModelRegistry()
        registry.register_file("m", str(path))
        handle = start_server_thread(registry, ServeConfig(port=0))
        try:
            features = rng.uniform(-2, 2, size=(8, 3))
            rows = [[float(v) for v in r] for r in features]
            _, before = _post_json(
                handle.url + "/predict", {"model": "m", "features": rows}
            )
            assert before["labels"] == [int(v) for v in first.predict_bitexact(features)]

            save_classifier(second, str(path))
            assert registry.reload("m") is True

            _, after = _post_json(
                handle.url + "/predict", {"model": "m", "features": rows}
            )
            assert after["labels"] == [int(v) for v in second.predict_bitexact(features)]
            assert after["content_hash"] != before["content_hash"]
        finally:
            handle.stop()
