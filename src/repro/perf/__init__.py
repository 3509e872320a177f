"""``repro.perf`` — benchmark-trajectory tracking for the simulator.

The ROADMAP's north star says the reproduction must stay "as fast as
the hardware allows"; this package is the guardrail.  ``sitm-harness
bench`` runs a pinned suite of simulation cells through the harness
executor and writes a schema-versioned ``results/bench/BENCH_<label>``
``.json`` artifact (:mod:`repro.perf.bench`); ``bench --compare``
diffs two artifacts with noise-aware thresholds derived from seed
relative standard deviation and fails on deterministic-metric
regressions (:mod:`repro.perf.compare`).  The artifact format and its
versioning rules live in ``docs/bench-schema.md``.

:mod:`repro.perf.micro` (host-side steps/s on two pinned grids) is run
as ``python -m repro.perf.micro`` and is deliberately not imported
here: runpy warns when a package has already imported the module it is
about to execute.
"""

from repro.perf.bench import (BENCH_DIR_ENV, DEFAULT_BENCH_DIR, SUITES,
                              BenchSuite, artifact_path, load_artifact,
                              run_bench, save_artifact, validate_artifact)
from repro.perf.compare import CompareReport, compare_artifacts

__all__ = [
    "BENCH_DIR_ENV", "DEFAULT_BENCH_DIR", "SUITES", "BenchSuite",
    "artifact_path", "load_artifact", "run_bench", "save_artifact",
    "validate_artifact",
    "CompareReport", "compare_artifacts",
]
