"""The golden-digest corpora: one hashing rule, one stale-entry check and
one way to re-record them.

A corpus is a JSON file under ``tests/corpus/`` holding ``recorded_from``
(the commit it was recorded at, and why), ``digest`` (the recipe: what
each digest hashes) and one or more tables of entries, ``digests``
always among them.  Four test modules own one corpus each (see
:data:`MODULES`); each defines

* ``GOLDEN`` — the :class:`Corpus` (file name and recipe), and
* ``golden_tables()`` — every table of its corpus, recomputed from this
  checkout,

and tests its runs against ``GOLDEN.load()``.  A digest that no longer
reproduces means the simulation changed.  After an *intended* behaviour
change, re-record all four from the repository root::

    PYTHONPATH=src python -m tests.golden "<commit, why>"

The argument becomes every file's ``recorded_from``.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import pathlib
import sys
from dataclasses import dataclass
from typing import Dict, Iterable

CORPUS_DIR = pathlib.Path(__file__).parent / "corpus"

#: the test modules that own a corpus
MODULES = (
    "tests.sim.test_fastpath_differential",
    "tests.sim.test_escalation_golden",
    "tests.sim.test_cell_golden",
    "tests.structures.test_op_stream_golden",
)


def sha256(payload) -> str:
    """sha256 hex digest of ``payload``: a string as it is, anything
    else as compact JSON.  Keys are not sorted: dict insertion order
    (``RunStats``' per-label and abort-cause tables) is part of what a
    digest pins."""
    if not isinstance(payload, str):
        payload = json.dumps(payload, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def assert_entries(table: dict, expected: Iterable[str]) -> None:
    """The stale-entry check: ``table`` holds exactly the ``expected``
    keys, so no digest outlives the run it pinned and none is missing."""
    expected = set(expected)
    stale = sorted(set(table) - expected)
    missing = sorted(expected - set(table))
    assert not stale and not missing, {"stale": stale, "missing": missing}


@dataclass(frozen=True)
class Corpus:
    """One golden file: its name under ``tests/corpus/`` and its recipe."""

    filename: str
    recipe: str

    @property
    def path(self) -> pathlib.Path:
        return CORPUS_DIR / self.filename

    def load(self) -> dict:
        """The recorded document; its recipe must be this one."""
        doc = json.loads(self.path.read_text())
        assert doc["digest"] == self.recipe, doc["digest"]
        return doc

    def write(self, recorded_from: str, tables: Dict[str, dict]) -> None:
        """Rewrite the file: the header, then each table one entry a line."""
        doc = {"recorded_from": recorded_from, "digest": self.recipe,
               **tables}
        parts = []
        for key, value in doc.items():
            if isinstance(value, dict):
                value = "{\n" + ",\n".join(
                    f"  {json.dumps(name)}: {json.dumps(entry)}"
                    for name, entry in value.items()) + "\n }"
            else:
                value = json.dumps(value)
            parts.append(f" {json.dumps(key)}: {value}")
        self.path.write_text("{\n" + ",\n".join(parts) + "\n}\n")


def record(recorded_from: str) -> None:
    """Re-record every corpus from this checkout."""
    for name in MODULES:
        module = importlib.import_module(name)
        module.GOLDEN.write(recorded_from, module.golden_tables())
        print(f"recorded {module.GOLDEN.path}")


if __name__ == "__main__":
    record(sys.argv[1])
