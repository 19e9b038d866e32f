"""repro.serve — the inference runtime around trained classifier artifacts.

The training side of this repository produces
``repro.fixed-point-classifier.v1`` JSON artifacts (see
:mod:`repro.core.serialize`); this package is the production-shaped layer
that *serves* them:

- :class:`~repro.serve.engine.BatchInferenceEngine` — vectorized batch
  inference, bit-exact with the per-sample RTL simulator
  (:class:`~repro.fixedpoint.datapath.FixedPointDatapath`), with an int64
  fast path, an unbounded-int fallback, and an optional compiled native
  backend (``backend="native"``, see docs/native_backend.md).
- :class:`~repro.serve.registry.ModelRegistry` — validated, content-hashed,
  hot-reloadable model store.
- :class:`~repro.serve.batcher.MicroBatcher` — asyncio micro-batching
  (flush on size, at once on an idle engine, else when the running batch
  completes or ``max_delay`` caps the wait) with admission control and
  deadline-aware load shedding.
- :class:`~repro.serve.server.InferenceServer` — stdlib-only endpoint
  speaking both HTTP (``POST /predict``, ``GET /healthz``, ``GET
  /metrics``) and the ``repro.serve-wire/v1`` binary protocol
  (:mod:`repro.serve.wire`) on one port.
- :class:`~repro.serve.cluster.ClusterSupervisor` — the pre-fork
  ``SO_REUSEPORT`` multi-worker serving plane with content-hash shard
  routing, crash restarts, graceful SIGTERM drain, and an aggregate
  metrics control plane (see docs/serving.md, "Cluster mode").
- :class:`~repro.serve.stream.StreamManager` /
  :class:`~repro.serve.stream.StreamSession` — sessionful waveform
  streaming: the fixed-point signal front end stepped chunk-by-chunk,
  bit-identical with the offline pipeline (``repro.serve-wire/v2`` stream
  frames and ``POST /stream/*``; see docs/streaming.md).
- :class:`~repro.serve.metrics.ServeMetrics` — request/batch/latency,
  overflow-event, load-shedding, and streaming-session counters, exported
  as Prometheus text and as the ``repro.serve-metrics/v3`` JSON schema.

See ``docs/serving.md`` for the HTTP API, wire format, and metric
schemas, and ``examples/ecg_monitor.py`` for an end-to-end train → save →
serve → stream demo.
"""

from .batcher import BatcherConfig, MicroBatcher
from .cluster import (
    ClusterConfig,
    ClusterSupervisor,
    WorkerState,
    shard_for_session,
    shard_of,
)
from .engine import (
    ENGINE_BACKENDS,
    BatchInferenceEngine,
    BatchResult,
    int64_path_available,
)
from .metrics import (
    LatencyStats,
    ModelMetrics,
    ServeMetrics,
    merge_snapshots,
)
from .registry import ModelRegistry, RegisteredModel, content_hash
from .server import InferenceServer, ServeConfig, ServerHandle, start_server_thread
from .stream import (
    STREAM_NUM_FEATURES,
    FrontEndConfig,
    StreamManager,
    StreamSession,
    build_frontend,
    require_frontend_certified,
    run_offline,
)
from .wire import (
    WIRE_SCHEMA,
    StreamChunk,
    StreamClose,
    StreamClosed,
    StreamOpen,
    StreamOpened,
    StreamResult,
    WireClient,
    WireError,
    WireRequest,
    WireResponse,
    decode_frame,
    encode_request,
    encode_response,
)

__all__ = [
    "BatchInferenceEngine",
    "BatchResult",
    "int64_path_available",
    "ENGINE_BACKENDS",
    "ModelRegistry",
    "RegisteredModel",
    "content_hash",
    "ServeMetrics",
    "ModelMetrics",
    "LatencyStats",
    "merge_snapshots",
    "BatcherConfig",
    "MicroBatcher",
    "ServeConfig",
    "InferenceServer",
    "ServerHandle",
    "start_server_thread",
    "ClusterConfig",
    "ClusterSupervisor",
    "WorkerState",
    "shard_of",
    "shard_for_session",
    "STREAM_NUM_FEATURES",
    "FrontEndConfig",
    "StreamManager",
    "StreamSession",
    "build_frontend",
    "require_frontend_certified",
    "run_offline",
    "WIRE_SCHEMA",
    "WireClient",
    "WireRequest",
    "WireResponse",
    "WireError",
    "StreamOpen",
    "StreamOpened",
    "StreamChunk",
    "StreamResult",
    "StreamClose",
    "StreamClosed",
    "encode_request",
    "encode_response",
    "decode_frame",
]
