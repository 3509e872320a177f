"""Abort causes (the Figure 1 classification) and the CLI exit codes."""

import pytest

from repro.common.errors import (
    AbortCause,
    ConfigError,
    ReproError,
    StoreError,
    StructureCorrupted,
    TimestampOverflowError,
    TransactionAborted,
)


class TestAbortCauseClassification:
    def test_read_write_class(self):
        assert AbortCause.READ_WRITE.is_read_write
        assert AbortCause.DANGEROUS_STRUCTURE.is_read_write

    def test_write_write_class(self):
        assert AbortCause.WRITE_WRITE.is_write_write
        assert not AbortCause.WRITE_WRITE.is_read_write

    def test_resource_causes_neither(self):
        for cause in (AbortCause.VERSION_OVERFLOW,
                      AbortCause.SNAPSHOT_TOO_OLD,
                      AbortCause.VERSION_BUFFER_OVERFLOW,
                      AbortCause.TIMESTAMP_OVERFLOW,
                      AbortCause.EXPLICIT):
            assert not cause.is_read_write
            assert not cause.is_write_write

    def test_son_range_counts_as_neither(self):
        # SONTM range-empty aborts mix read and write constraints; the
        # Figure 1 split only applies to the 2PL baseline.
        assert not AbortCause.SON_RANGE_EMPTY.is_read_write
        assert not AbortCause.SON_RANGE_EMPTY.is_write_write


class TestTransactionAborted:
    def test_carries_cause_and_detail(self):
        exc = TransactionAborted(AbortCause.WRITE_WRITE, "line 0x40")
        assert exc.cause is AbortCause.WRITE_WRITE
        assert "line 0x40" in str(exc)
        assert "write-write" in str(exc)

    def test_not_a_library_error(self):
        # control flow, not an error: must not be swallowed by
        # `except ReproError` handlers
        assert not issubclass(TransactionAborted, ReproError)


class TestHierarchy:
    def test_library_errors_share_base(self):
        assert issubclass(TimestampOverflowError, ReproError)
        assert issubclass(StructureCorrupted, ReproError)


@pytest.mark.parametrize("error, code", [(ConfigError, 2), (StoreError, 1)])
def test_both_clis_share_one_exit_code_contract(monkeypatch, capsys,
                                                error, code):
    """2 for a ConfigError, 1 for any other ReproError: one stderr line
    each, no traceback, from ``sitm-harness`` and ``sitm-store`` alike."""
    from repro.harness import cli as harness
    from repro.store import cli as store

    def fail(args):
        raise error("boom")

    monkeypatch.setitem(harness._COMMANDS, "table1", fail)
    monkeypatch.setattr(store, "_check", fail)
    assert harness.main(["table1"]) == store.main(["check", "x"]) == code
    assert capsys.readouterr().err == ("sitm-harness table1: error: boom\n"
                                       "sitm-store: error: boom\n")
