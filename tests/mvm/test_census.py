"""Version-census tests (Table 2 machinery)."""

from repro.mvm.census import VersionCensus


class TestVersionCensus:
    def test_rows_order(self):
        census = VersionCensus()
        assert [r["version"] for r in census.rows()] == \
            ["1st", "2nd", "3rd", "4th", "5th", "tail"]

    def test_record_and_count(self):
        census = VersionCensus()
        for depth in (1, 1, 2, 3):
            census.record(depth)
        assert census.count(1) == 2
        assert census.count(2) == 1
        assert census.total == 4

    def test_deep_accesses_fold_into_tail(self):
        census = VersionCensus()
        census.record(6)
        census.record(7)
        census.record(100)
        rows = {r["version"]: r["accesses"] for r in census.rows()}
        assert rows["tail"] == 3

    def test_invalid_depth_ignored(self):
        census = VersionCensus()
        census.record(0)
        census.record(-3)
        assert census.total == 0

    def test_fraction_deeper_than(self):
        census = VersionCensus()
        for depth in (1, 1, 1, 1, 5):
            census.record(depth)
        assert census.fraction_deeper_than(4) == 0.2
        assert census.fraction_deeper_than(5) == 0.0

    def test_fraction_empty(self):
        assert VersionCensus().fraction_deeper_than(4) == 0.0

    def test_merge(self):
        a, b = VersionCensus(), VersionCensus()
        a.record(1)
        b.record(1)
        b.record(2)
        a.merge(b)
        assert a.count(1) == 2
        assert a.count(2) == 1


class TestControllerCensus:
    """What ``MVMController.snapshot_read`` records, pinned as counts.

    Table 2 is read off this census, so a faster read path must record
    the histogram the reference path did: depth 1 for a snapshot that
    sees the newest version (the common case, which the controller
    answers without ``VersionList.read_at``), the version's age rank
    for an older snapshot, one past the list for the implicit base,
    and nothing for a line never written.
    """

    def test_depth_histogram_over_a_multi_version_line(self):
        from repro.common.config import MVMConfig
        from repro.mem.address import MVM_REGION_BASE, AddressMap
        from repro.mvm.controller import MVMController

        line = MVM_REGION_BASE // 8
        mvm = MVMController(MVMConfig(census=True, max_versions=8),
                            AddressMap(8))
        for ts in range(10, 80, 10):
            mvm.active.add(ts - 5)     # a live snapshot keeps each version
            mvm.install_line(line, ts, (ts,) * 8)
        assert mvm.versions_of(line) == (10, 20, 30, 40, 50, 60, 70)
        reads = {75: 70, 70: 70, 65: 60, 55: 50, 45: 40, 35: 30, 25: 20,
                 15: 10, 5: None}
        for _ in range(3):
            for start_ts, version in reads.items():
                data = mvm.snapshot_read(line, start_ts)
                assert data == (None if version is None else (version,) * 8)
            assert mvm.snapshot_read(line + 1, 75) is None
        rows = {r["version"]: r["accesses"] for r in mvm.census.rows()}
        assert rows == {"1st": 6, "2nd": 3, "3rd": 3, "4th": 3, "5th": 3,
                        "tail": 9}
        assert mvm.census.total == 27
