"""``repro.perf`` — the bench artifact format and host-side micro grids.

:mod:`repro.perf.bench` is the ``BENCH_<label>.json`` format
``sitm-store bench`` writes.  :mod:`repro.perf.micro` is run as
``python -m repro.perf.micro`` and deliberately not imported here: runpy
warns when a package has already imported the module it executes.
"""

from repro.perf.bench import (CAPACITY_CONFIG, artifact_path,
                              load_artifact, save_artifact,
                              validate_artifact)

__all__ = ["CAPACITY_CONFIG", "artifact_path", "load_artifact",
           "save_artifact", "validate_artifact"]
