"""The ``BENCH_*.json`` artifact format, and the capacity config.

``sitm-store bench`` writes its run as a schema-versioned artifact
(``docs/bench-schema.md``) with a ``deterministic`` section (what the
run did: throughput, abort rate, counts) and an ``advisory`` one (wall
clock and latency percentiles, which measure the host).
:func:`validate_artifact` checks one without external dependencies.

:data:`CAPACITY_CONFIG` is the simulator's pinned capacity-bounds
config, shared by the golden digests, ``repro.perf.micro`` and
perfbench's ``sim_observed`` cells.
"""

from __future__ import annotations

import json
import os
import pathlib
from types import SimpleNamespace
from typing import List, Optional

from repro.common.config import SimConfig, TMConfig
from repro.common.errors import ConfigError
from repro.sim.retry import RetryPolicy

__all__ = ["SCHEMA", "SCHEMA_VERSION", "BENCH_DIR_ENV",
           "DEFAULT_BENCH_DIR", "CAPACITY_CONFIG", "SUITES",
           "artifact_path", "load_artifact", "save_artifact",
           "validate_artifact"]

#: artifact format identifier
SCHEMA = "sitm-bench"
#: bump on any breaking layout change (see docs/bench-schema.md)
SCHEMA_VERSION = 1

#: artifact location, relative to the repository root / CWD
DEFAULT_BENCH_DIR = pathlib.Path("results") / "bench"
#: environment override for the artifact location (test isolation)
BENCH_DIR_ENV = "SITM_BENCH_DIR"

#: tight read/write-set limits with escalation-based termination; the
#: hybrid backend runs on its own built-in bounds and lock fallback
CAPACITY_CONFIG = SimConfig(
    tm=TMConfig(read_set_limit=8, write_set_limit=8),
    retry=RetryPolicy(attempt_budget=4, stall_budget=16,
                      starvation_age_cycles=50_000))
#: the name perfbench reads the capacity config under
SUITES = {"capacity": SimpleNamespace(config=CAPACITY_CONFIG)}


#: required numeric fields in every deterministic cell
_CELL_FIELDS = ("throughput", "throughput_rel_stddev", "abort_rate",
                "abort_rate_stddev", "commits", "aborts",
                "makespan_cycles")


def validate_artifact(artifact: dict) -> List[str]:
    """Validate a BENCH artifact; returns a list of errors (empty = OK).

    Hand-rolled (no jsonschema dependency): checks the schema marker,
    version, top-level layout, and the shape of every deterministic
    cell and the advisory block.
    """
    errors: List[str] = []
    if not isinstance(artifact, dict):
        return ["artifact is not a JSON object"]
    if artifact.get("schema") != SCHEMA:
        errors.append(f"schema is {artifact.get('schema')!r}, "
                      f"expected {SCHEMA!r}")
    version = artifact.get("schema_version")
    if not isinstance(version, int):
        errors.append("schema_version missing or not an integer")
    elif version > SCHEMA_VERSION:
        errors.append(f"schema_version {version} is newer than this "
                      f"code understands ({SCHEMA_VERSION})")
    for key in ("label", "suite", "profile"):
        if not isinstance(artifact.get(key), str):
            errors.append(f"{key} missing or not a string")
    if not isinstance(artifact.get("seeds"), int):
        errors.append("seeds missing or not an integer")
    if not isinstance(artifact.get("code_fingerprint"), str):
        errors.append("code_fingerprint missing or not a string")
    cells = artifact.get("deterministic")
    if not isinstance(cells, dict) or not cells:
        errors.append("deterministic missing, not an object, or empty")
    else:
        for key, cell in cells.items():
            if not isinstance(cell, dict):
                errors.append(f"cell {key!r} is not an object")
                continue
            for field in _CELL_FIELDS:
                if not isinstance(cell.get(field), (int, float)):
                    errors.append(f"cell {key!r}: {field} missing or "
                                  f"not a number")
            shares = cell.get("phase_shares")
            if not isinstance(shares, dict):
                errors.append(f"cell {key!r}: phase_shares missing or "
                              f"not an object")
            elif shares and abs(sum(shares.values()) - 1.0) > 1e-6:
                errors.append(f"cell {key!r}: phase_shares sum to "
                              f"{sum(shares.values()):.6f}, not 1 "
                              f"(conservation violated)")
    advisory = artifact.get("advisory")
    if not isinstance(advisory, dict):
        errors.append("advisory missing or not an object")
    else:
        for field in ("wall_clock_s", "cache_hit_rate"):
            if not isinstance(advisory.get(field), (int, float)):
                errors.append(f"advisory.{field} missing or not a number")
    return errors


def bench_dir(out_dir: Optional[os.PathLike] = None) -> pathlib.Path:
    """Artifact directory: explicit arg, env override, or the default."""
    env = os.environ.get(BENCH_DIR_ENV)
    return pathlib.Path(out_dir or env or DEFAULT_BENCH_DIR)


def artifact_path(label: str,
                  out_dir: Optional[os.PathLike] = None) -> pathlib.Path:
    """Path of the artifact named ``label``."""
    return bench_dir(out_dir) / f"BENCH_{label}.json"


def save_artifact(artifact: dict,
                  out_dir: Optional[os.PathLike] = None) -> pathlib.Path:
    """Write ``artifact`` as ``BENCH_<label>.json``; returns the path."""
    errors = validate_artifact(artifact)
    if errors:
        raise ConfigError("refusing to save invalid bench artifact: "
                          + "; ".join(errors))
    path = artifact_path(artifact["label"], out_dir)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(artifact, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")
    return path


def load_artifact(path: os.PathLike) -> dict:
    """Load and validate an artifact; raises ConfigError when invalid."""
    path = pathlib.Path(path)
    try:
        artifact = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read bench artifact {path}: {exc}")
    except ValueError as exc:
        raise ConfigError(f"bench artifact {path} is not JSON: {exc}")
    errors = validate_artifact(artifact)
    if errors:
        raise ConfigError(f"bench artifact {path} is invalid: "
                          + "; ".join(errors))
    return artifact
