"""The compilation service (``python -m repro.service``).

Turns the one-shot Hydride compiler into a long-lived, concurrent
system built for the paper's Table 4 warm-cache scenario at scale:

* :mod:`repro.service.store` — persistent content-addressed synthesis
  cache, namespaced by a fingerprint of the AutoLLVM dictionary and
  grammar version so stale results are invalidated soundly;
* :mod:`repro.service.jobs` — the compile-job API with per-job
  timeout, retry-with-reduced-budget and baseline fallback;
* :mod:`repro.service.scheduler` — parallel fan-out over forked worker
  processes with cache-aware de-duplication of in-flight identical
  windows;
* :mod:`repro.service.__main__` — the ``warm`` / ``compile`` /
  ``stats`` / ``gc`` CLI.
"""

from repro.service.jobs import CompileJob, JobResult, JobTelemetry, execute_job
from repro.service.scheduler import (
    PoolEvent,
    Scheduler,
    ServiceOptions,
    ServiceStats,
    WorkerPool,
    default_cegis_options,
    prewarm,
)
from repro.service.store import (
    PackError,
    PersistentCache,
    export_pack,
    gc_store,
    import_pack,
    reap_tmp,
    read_run_telemetry,
    record_run_telemetry,
    store_stats,
)
from repro.service.telemetry import fold_outcome, format_run_summary

__all__ = [
    "CompileJob",
    "JobResult",
    "JobTelemetry",
    "execute_job",
    "PoolEvent",
    "Scheduler",
    "ServiceOptions",
    "ServiceStats",
    "WorkerPool",
    "default_cegis_options",
    "prewarm",
    "PackError",
    "PersistentCache",
    "export_pack",
    "gc_store",
    "import_pack",
    "reap_tmp",
    "read_run_telemetry",
    "record_run_telemetry",
    "store_stats",
    "fold_outcome",
    "format_run_summary",
]
