"""Long-context serving: chunked prefill, KV offload, continuous batching.

The serving pillar reuses the training stack's machinery for inference:
prompts are encoded chunk by chunk with the FPDT-style cached forward
(:func:`repro.models.generate.forward_cached`), per-request KV caches
live host-side in the append-only
:class:`~repro.serving.kvstore.RequestKVStore` between steps, and a
deterministic continuous-batching scheduler interleaves prefill chunks
with decode ticks, each tick one stacked forward over every decoding
request.  Every served token sequence
is bitwise identical to single-request :func:`repro.models.generate
.generate` — with any prefill chunking, with or without offload, and
under injected transfer faults.

Entry points: :class:`ServingEngine` + :class:`Scheduler` for direct
use, :func:`repro.serving.loadgen.run_load` / ``repro serve bench`` for
synthetic heavy-traffic replay.
"""

from repro.serving.engine import DecodeState, EngineConfig, ServingEngine
from repro.serving.kvstore import RequestKVStore
from repro.serving.loadgen import (
    LoadGenConfig,
    ServeReport,
    run_load,
    synthesize_requests,
)
from repro.serving.request import Request, RequestState
from repro.serving.scheduler import Scheduler, SchedulerConfig

__all__ = [
    "DecodeState",
    "EngineConfig",
    "LoadGenConfig",
    "Request",
    "RequestKVStore",
    "RequestState",
    "Scheduler",
    "SchedulerConfig",
    "ServeReport",
    "ServingEngine",
    "run_load",
    "synthesize_requests",
]
