"""The claims gate: its rule, its exit code, and the battery itself."""

import pathlib

import pytest

from repro.harness import claims
from repro.harness.claims import ClaimResult, all_passed, grid_claim

REPORT = (pathlib.Path(__file__).parent.parent.parent / "results"
          / "claims_test.txt")


class TestClaimResult:
    def test_all_passed_true(self):
        results = [ClaimResult("a", "d", "e", "m", True),
                   ClaimResult("b", "d", "e", "m", True)]
        assert all_passed(results)

    def test_all_passed_false(self):
        results = [ClaimResult("a", "d", "e", "m", True),
                   ClaimResult("b", "d", "e", "m", False)]
        assert not all_passed(results)

    def test_empty_passes(self):
        assert all_passed([])


def _below(values, bound=0.2):
    return grid_claim("c", "d", f"< {bound}", values,
                      [v is not None and v < bound for v in values])


class TestRule:
    """A grid claim's verdict is the majority of its seeds."""

    def test_one_outlier_seed_does_not_fail_a_claim(self):
        # the array claim's seeds 1-5: seed 4 alone reads 1.070
        result = _below([0.094, 0.068, 0.0, 1.070, 0.096])
        assert result.passed
        assert result.measured == "0.094"
        assert result.held == (True, True, True, False, True)

    def test_one_outlier_seed_does_not_pass_a_claim(self):
        assert not _below([0.9, 0.8, 0.01, 0.7, 1.2]).passed

    def test_a_majority_of_failing_seeds_fails_it(self):
        assert not _below([0.094, 0.5, 0.0, 1.070, 0.3]).passed

    def test_a_seed_without_a_value_counts_against(self):
        result = _below([0.1, None, None, 0.1, None])
        assert not result.passed
        assert result.measured == "0.100"
        assert not _below([None] * 5).passed


class TestCliIntegration:
    def test_claims_command_registered(self):
        from repro.harness.cli import build_parser

        args = build_parser().parse_args(["claims"])
        assert args.command == "claims"

    @pytest.mark.parametrize("passed,code", [(True, 0), (False, 1)])
    def test_exit_code_follows_the_verdict(self, monkeypatch, capsys,
                                           passed, code):
        from repro.harness.cli import main

        canned = [ClaimResult("fig2-schedule", "d", "exact", "exact", True),
                  grid_claim("fig7-array", "d", "< 0.2", [0.1, 0.3, 0.5],
                             [True, passed, passed])]
        monkeypatch.setattr(claims, "check_claims",
                            lambda executor=None: canned)
        assert main(["claims", "--no-cache"]) == code
        out = capsys.readouterr().out
        assert ("ALL CLAIMS PASS" if passed else "FAILURES PRESENT") in out


@pytest.fixture(scope="module")
def battery():
    return claims.check_claims()


def test_every_claim_holds_at_the_pinned_configuration(battery):
    failures = [r.claim_id for r in battery if not r.passed]
    assert all_passed(battery), f"failing claims: {failures}"
    grid = [r for r in battery if r.per_seed]
    assert len(grid) == 10
    assert all(len(r.per_seed) == len(claims.SEEDS) for r in grid)


def test_committed_report_is_the_commands_output(battery):
    assert REPORT.read_text() == claims.render(battery) + "\n"
