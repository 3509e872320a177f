#!/usr/bin/env python
"""The full write-skew tool pipeline, including the offline and static
paths (section 5.1 and the Dias et al. comparison).

Three ways to find the same linked-list anomaly:

1. **dynamic online** — run schedules under SI-TM with tracing and
   analyse the dependency graph in process (the paper's tool);
2. **dynamic offline** — dump the recorded history to JSON and
   post-process it separately (how the paper's PIN tool actually works);
3. **static footprints** — extract per-operation read/write footprints
   from ONE state and check pairs for the skew precondition, no schedule
   exploration at all.

Run:  python examples/skew_analysis_pipeline.py
"""

from repro import Machine, TransactionSpec, SplitRandom
from repro.sim.engine import Engine
from repro.sim.history import History, HistoryRecorder
from repro.skew import FootprintAnalyzer, find_write_skews
from repro.structures import TxLinkedList
from repro.tm import SnapshotIsolationTM


def build(machine):
    lst = TxLinkedList(machine)  # the unsafe library version
    lst.populate([1, 2, 3, 4, 5, 6])
    return lst


def dynamic_online():
    machine = Machine()
    lst = build(machine)
    programs = [[TransactionSpec(lambda: lst.remove(2), "rm2")],
                [TransactionSpec(lambda: lst.remove(3), "rm3")]]
    tm = SnapshotIsolationTM(machine, SplitRandom(4))
    recorder = HistoryRecorder.for_system(tm)
    Engine(tm, programs, tracer=recorder).run()
    return recorder.history, find_write_skews(recorder.history)


def main():
    print("=== 1. dynamic online analysis ===")
    history, report = dynamic_online()
    print(f"trace events: {len(history.events)}, "
          f"witnesses: {len(report.witnesses)}")
    for witness in report.witnesses:
        print(f"  cycle {witness.labels} via reads at "
              f"{sorted(witness.read_sites)}")

    print("\n=== 2. dynamic offline (JSONL round trip) ===")
    dumped = history.dumps()  # one History document on one line
    print(f"dumped {len(dumped)} bytes of JSONL")
    offline = find_write_skews(History.loads(dumped))
    print(f"offline analysis found {len(offline.witnesses)} witnesses "
          f"(same as online: {len(offline.witnesses) == len(report.witnesses)})")

    print("\n=== 3. static footprint analysis (one state, no schedules) ===")
    machine = Machine()
    lst = build(machine)
    analyzer = FootprintAnalyzer(machine)
    for key in (2, 3, 4, 5):
        analyzer.add_operation(f"remove({key})",
                               lambda k=key: lst.remove(k))
    static = analyzer.analyse()
    print(f"operation pairs flagged: {len(static.candidates)}")
    for candidate in static.candidates:
        print(f"  {candidate.ops[0]} x {candidate.ops[1]} -> promote "
              f"{sorted(candidate.read_sites)}")
    print(f"\npromotion set from static analysis: "
          f"{sorted(static.promotion_sites())}")
    print("(adjacent removes are flagged; distant removes are not — the "
          "skew needs crossing read/write sets)")


if __name__ == "__main__":
    main()
