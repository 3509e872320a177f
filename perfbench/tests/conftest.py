"""Test set-up: import paths, and every SITM_* artifact dir in tmp."""

import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
for path in (str(ROOT / "src"), str(ROOT)):
    if path not in sys.path:
        sys.path.insert(0, path)


@pytest.fixture(autouse=True)
def artifact_dirs(tmp_path, monkeypatch):
    for env in ("SITM_CACHE_DIR", "SITM_BENCH_DIR", "SITM_FLIGHT_DIR"):
        monkeypatch.setenv(env, str(tmp_path / env.lower()))
