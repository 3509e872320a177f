"""Shared configuration for the benchmark harness.

Every benchmark regenerates one table or figure of the paper (or an
ablation DESIGN.md calls out), asserts its *shape* claims — who wins, by
roughly what factor — and attaches the regenerated rows/series to
pytest-benchmark's ``extra_info`` so ``--benchmark-json`` output carries
the data.

Profiles: benches default to the ``test`` profile and modest thread
counts so the whole suite stays in CI-friendly time; the harness CLI
(``python -m repro.harness.cli``) regenerates the same experiments at
``quick``/``full`` scale.
"""

import pytest

#: profile used by every benchmark
PROFILE = "test"
#: thread count standing in for the paper's 32-core runs
THREADS = 8
#: seeds per cell (the paper averages 5; 2 keeps CI fast while still
#: catching seed-sensitive flakiness)
SEEDS = 2


@pytest.fixture(autouse=True)
def _isolated_result_cache(tmp_path, monkeypatch):
    """Keep benchmark runs out of the repository's result cache.

    Benchmarks time actual execution; serving a run from
    ``results/.cache`` (or polluting it) would corrupt both the timings
    and later harness invocations.
    """
    monkeypatch.setenv("SITM_CACHE_DIR", str(tmp_path / "result-cache"))
    monkeypatch.setenv("SITM_FUZZ_DIR", str(tmp_path / "fuzz"))
    monkeypatch.setenv("SITM_FLIGHT_DIR", str(tmp_path / "flight"))


@pytest.fixture
def once(benchmark):
    """Run a callable exactly once under pytest-benchmark timing.

    Simulation experiments are deterministic and expensive; statistical
    repetition belongs to the seed loop inside the experiment, not to
    wall-clock re-runs.
    """

    def run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1, warmup_rounds=0)

    return run
