"""``repro.perf`` — the capacity config perfbench reads.

:mod:`repro.perf.bench` holds :data:`~repro.perf.bench.CAPACITY_CONFIG`
and the ``SUITES`` table perfbench imports by module name; host time is
measured by perfbench alone.  Nothing is re-exported here.
"""
