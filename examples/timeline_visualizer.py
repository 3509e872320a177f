#!/usr/bin/env python
"""Watch the abort-rate difference: ASCII timelines per TM system.

Runs the same contended program — one long scanning reader per pair of
update threads — under 2PL and SI-TM and draws per-thread Gantt charts:
``#`` spans are committed transactions, ``x`` spans aborted attempts.
Under 2PL the scanner rows fill with ``x`` (every concurrent update kills
the scan); under SI-TM the same rows are solid ``#``.

Run:  python examples/timeline_visualizer.py
"""

from repro import (
    Compute,
    Engine,
    Machine,
    Read,
    SplitRandom,
    TransactionSpec,
    Write,
)
from repro.obs import SpanRecorder, render_timeline
from repro.tm import SYSTEMS

CELLS = 64
WORDS_PER_LINE = 8


def build_programs(machine, rng):
    base = machine.mvmalloc(CELLS * WORDS_PER_LINE)
    for i in range(CELLS):
        machine.plain_store(base + i * WORDS_PER_LINE, 1)

    def scan():
        total = 0
        for i in range(CELLS):
            value = yield Read(base + i * WORDS_PER_LINE)
            total += value
        return total

    def update(a, b):
        def body():
            va = yield Read(base + a * WORDS_PER_LINE)
            yield Compute(3)
            yield Write(base + a * WORDS_PER_LINE, va + 1)
            vb = yield Read(base + b * WORDS_PER_LINE)
            yield Write(base + b * WORDS_PER_LINE, vb + 1)
        return body

    programs = [[TransactionSpec(scan, "scan") for _ in range(6)]]
    for tid in range(1, 4):
        thread_rng = rng.split(tid)
        specs = []
        for _ in range(25):
            a, b = thread_rng.distinct(2, 0, CELLS)
            specs.append(TransactionSpec(update(a, b), "update"))
        programs.append(specs)
    return programs


def main():
    for name in ("2PL", "SI-TM"):
        rng = SplitRandom(11)
        machine = Machine()
        programs = build_programs(machine, rng)
        recorder = SpanRecorder()
        tm = SYSTEMS[name](machine, rng.split("tm"))
        stats = Engine(tm, programs, tracer=recorder).run()
        print(f"=== {name}: {stats.total_commits} commits, "
              f"{stats.total_aborts} aborts, "
              f"makespan {stats.makespan_cycles} cycles ===")
        print(render_timeline(recorder.spans, width=96))
        print()
    print("T0 is the scanner. Under 2PL its row is mostly 'x' — every "
          "concurrent update aborts the scan, and the whole run takes "
          "far longer.  Under SI-TM the scans are invisible readers: "
          "solid '#' and a short makespan.")


if __name__ == "__main__":
    main()
