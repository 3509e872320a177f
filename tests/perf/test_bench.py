"""The BENCH artifact schema and its persistence, on a store artifact."""

import copy
import json

import pytest

from repro.common.errors import ConfigError
from repro.perf import (artifact_path, load_artifact, save_artifact,
                        validate_artifact)
from repro.perf.bench import SCHEMA_VERSION
from repro.store.loadgen import LATENCIES, bench_artifact

CELL = "store/kv/t4"


@pytest.fixture(scope="module")
def artifact():
    """What ``sitm-store bench`` saves for canned load stats."""
    stats = {"sessions": 4, "txns_per_session": 10, "commits": 40,
             "total_aborts": 6, "abort_rate": 6 / 46,
             "throughput_txn_s": 800.0, "wall_clock_s": 0.05}
    for name in LATENCIES:
        stats[f"{name}_p50_ms"] = 0.5
        stats[f"{name}_p99_ms"] = 2.0
    return bench_artifact(stats, label="t-base")


class TestValidation:
    def test_rejects_foreign_schema(self, artifact):
        assert validate_artifact(artifact) == []
        bad = dict(artifact, schema="other")
        assert any("schema" in e for e in validate_artifact(bad))

    def test_rejects_newer_version(self, artifact):
        bad = dict(artifact, schema_version=SCHEMA_VERSION + 1)
        assert any("newer" in e for e in validate_artifact(bad))

    def test_rejects_missing_cell_field(self, artifact):
        bad = copy.deepcopy(artifact)
        del bad["deterministic"][CELL]["throughput"]
        assert any("throughput" in e for e in validate_artifact(bad))

    def test_rejects_non_conserved_phase_shares(self, artifact):
        bad = copy.deepcopy(artifact)
        bad["deterministic"][CELL]["phase_shares"] = {"read": 0.7,
                                                      "commit": 0.5}
        assert any("conservation" in e for e in validate_artifact(bad))

    def test_latency_fields_are_optional(self, artifact):
        """A write has no round trip, so ``write_*`` left the advisory
        section; the latency fields were never part of the layout."""
        assert "write_p50_ms" not in artifact["advisory"]
        bare = copy.deepcopy(artifact)
        for name in LATENCIES:
            del bare["advisory"][f"{name}_p50_ms"]
            del bare["advisory"][f"{name}_p99_ms"]
        assert validate_artifact(bare) == []

    def test_rejects_non_object(self):
        assert validate_artifact([]) == ["artifact is not a JSON object"]


class TestPersistence:
    def test_save_load_round_trip(self, artifact, tmp_path):
        path = save_artifact(artifact, tmp_path)
        assert path == artifact_path("t-base", tmp_path)
        assert load_artifact(path) == artifact
        # on-disk form is canonical: sorted keys, trailing newline
        text = path.read_text()
        assert text == json.dumps(artifact, sort_keys=True, indent=2) + "\n"

    def test_save_refuses_invalid(self, artifact, tmp_path):
        bad = dict(artifact, schema="other")
        with pytest.raises(ConfigError, match="refusing to save"):
            save_artifact(bad, tmp_path)

    def test_load_rejects_missing_and_corrupt(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_artifact(tmp_path / "absent.json")
        broken = tmp_path / "broken.json"
        broken.write_text("{nope")
        with pytest.raises(ConfigError, match="not JSON"):
            load_artifact(broken)

    def test_bench_dir_env_isolation(self, artifact, tmp_path,
                                     monkeypatch):
        monkeypatch.setenv("SITM_BENCH_DIR", str(tmp_path / "bdir"))
        path = save_artifact(artifact)
        assert path.parent == tmp_path / "bdir"
