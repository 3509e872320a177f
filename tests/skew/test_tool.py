"""Write-skew tool end-to-end tests (section 5.1's workflow).

The tool must: find the Listing 1 (withdraw) and Listing 2 (linked list)
anomalies under SI, attribute them to read sites, auto-fix them via read
promotion, and verify the fixed program is clean — reproducing the paper's
"corrected applications never showed inconsistent behaviour".
"""

import pytest

from repro.common.rng import SplitRandom
from repro.sim.engine import TransactionSpec
from repro.sim.machine import Machine
from repro.skew.tool import Scenario, ToolResult, WriteSkewTool
from repro.structures import TxLinkedList
from repro.tm.ops import Compute, Read, Write
from repro.common.errors import SkewToolError


def withdraw_scenario(rng):
    """Listing 1: concurrent withdraws from different accounts."""
    machine = Machine()
    checking = machine.mvmalloc(1)
    saving = machine.mvmalloc(1)
    machine.plain_store(checking, 60)
    machine.plain_store(saving, 60)

    def withdraw(from_checking):
        def body():
            c = yield Read(checking, "withdraw:check-checking")
            s = yield Read(saving, "withdraw:check-saving")
            yield Compute(20)
            if c + s > 100:
                if from_checking:
                    yield Write(checking, c - 100, "withdraw:debit")
                else:
                    yield Write(saving, s - 100, "withdraw:debit")
        return body

    programs = [[TransactionSpec(withdraw(True), "withdraw")],
                [TransactionSpec(withdraw(False), "withdraw")]]

    def check():
        return (machine.plain_load(checking)
                + machine.plain_load(saving)) >= 0

    return Scenario(machine, programs, check)


def list_scenario(rng):
    """Listing 2: concurrent adjacent removes."""
    machine = Machine()
    lst = TxLinkedList(machine)  # unsafe variant
    lst.populate([1, 2, 3, 4, 5, 6])
    pairs = [(2, 3), (4, 5)]
    programs = []
    for left, right in pairs:
        programs.append([TransactionSpec(
            lambda k=left: lst.remove(k), "list.remove")])
        programs.append([TransactionSpec(
            lambda k=right: lst.remove(k), "list.remove")])

    def check():
        return lst.to_list() == [1, 6]

    return Scenario(machine, programs, check)


class TestWithdrawAnomaly:
    def test_tool_finds_listing1_skew(self):
        tool = WriteSkewTool(withdraw_scenario, schedules=8)
        result = tool.analyse()
        assert not result.clean
        assert "withdraw" in result.labels()

    def test_inconsistent_schedules_observed(self):
        tool = WriteSkewTool(withdraw_scenario, schedules=8)
        result = tool.analyse()
        assert result.inconsistent_schedules > 0

    def test_fix_promotes_the_checked_reads(self):
        tool = WriteSkewTool(withdraw_scenario, schedules=8)
        promoted = tool.fix()
        assert promoted & {"withdraw:check-checking",
                           "withdraw:check-saving"}

    def test_fixed_program_clean_and_consistent(self):
        tool = WriteSkewTool(withdraw_scenario, schedules=8)
        promoted = tool.fix()
        verified = tool.verify_fix(promoted)
        assert verified.clean
        assert verified.inconsistent_schedules == 0


class TestListAnomaly:
    def test_tool_finds_listing2_skew(self):
        tool = WriteSkewTool(list_scenario, schedules=8)
        result = tool.analyse()
        assert not result.clean
        assert "list.remove" in result.labels()

    def test_fix_attributes_list_sites(self):
        tool = WriteSkewTool(list_scenario, schedules=8)
        promoted = tool.fix()
        assert any(site.startswith("list.remove") for site in promoted)

    def test_fixed_list_consistent(self):
        tool = WriteSkewTool(list_scenario, schedules=8)
        promoted = tool.fix()
        verified = tool.verify_fix(promoted)
        assert verified.inconsistent_schedules == 0


class TestToolMisc:
    def test_zero_schedules_rejected(self):
        with pytest.raises(SkewToolError):
            WriteSkewTool(withdraw_scenario, schedules=0)

    def test_result_aggregation(self):
        result = ToolResult()
        assert result.clean
        assert result.read_sites() == set()

    def test_deterministic_across_instances(self):
        a = WriteSkewTool(withdraw_scenario, schedules=4, seed=5).analyse()
        b = WriteSkewTool(withdraw_scenario, schedules=4, seed=5).analyse()
        assert len(a.witnesses) == len(b.witnesses)
