"""The one-shot reproduction verdict: every headline claim must pass.

``check_claims()`` runs its own pinned configuration (the test profile,
8 threads, seeds 1-5), the same one the CLI, CI and
``results/claims_test.txt`` use.
"""

from repro.harness.claims import all_passed, check_claims


def test_all_headline_claims_pass(once, benchmark):
    results = once(check_claims)
    benchmark.extra_info["claims"] = [
        {"id": r.claim_id, "expected": r.expected,
         "measured": r.measured, "per_seed": list(r.per_seed),
         "passed": r.passed} for r in results]
    failures = [r.claim_id for r in results if not r.passed]
    assert all_passed(results), f"failing claims: {failures}"
    assert len(results) >= 13
