"""Hot-class ``__slots__`` audit (flat-loop refactor, ISSUE 6).

Every object allocated or touched per engine step, per transactional
operation, or per version install must not carry a per-instance
``__dict__``: attribute access through slot descriptors is measurably
faster in the hot loop, and the dict costs ~100 bytes per instance on
classes allocated millions of times per run.  This test walks the hot
classes and fails if any of them (or any of their bases) reintroduces
``__dict__`` — e.g. by adding a class attribute without extending
``__slots__``, or by inheriting from a slotless base.

Exception classes are exempt by construction (``BaseException``
instances always carry ``__dict__``), as is anything only built once
per run (configs, controllers, the engine itself).
"""

import pytest

from repro.mvm.timestamps import ActiveTransactionTable, GlobalClock
from repro.mvm.version_list import VersionList
from repro.obs.spans import Span
from repro.sim.engine import _ThreadState
from repro.sim.stats import ThreadStats
from repro.tm.api import CommitToken, Txn
from repro.tm.backoff import ExponentialBackoff, NoBackoff

#: one entry per hot class: allocated per-attempt (Txn, Span),
#: per-thread (_ThreadState), per-line (VersionList), or consulted on
#: every commit (GlobalClock, ActiveTransactionTable, CommitToken,
#: backoff policies).  An operation descriptor is a plain tuple
#: (repro.tm.ops), which carries no __dict__ by construction.
HOT_CLASSES = [
    Txn,
    CommitToken,
    _ThreadState,
    VersionList,
    GlobalClock,
    ActiveTransactionTable,
    ExponentialBackoff,
    NoBackoff,
    Span,
]


def _dict_carrier(cls):
    """The class in ``cls.__mro__`` that contributes ``__dict__``, if any."""
    for klass in cls.__mro__:
        if "__dict__" in klass.__dict__:
            return klass
    return None


@pytest.mark.parametrize("cls", HOT_CLASSES,
                         ids=[c.__name__ for c in HOT_CLASSES])
def test_hot_class_has_slots_and_no_dict(cls):
    carrier = _dict_carrier(cls)
    assert carrier is None, (
        f"{cls.__module__}.{cls.__name__} carries a per-instance "
        f"__dict__ (introduced by {carrier.__module__}."
        f"{carrier.__name__}); extend __slots__ instead")
    assert hasattr(cls, "__slots__"), cls


@pytest.mark.parametrize("cls", [Txn, _ThreadState, VersionList, Span],
                         ids=lambda c: c.__name__)
def test_slots_actually_reject_stray_attributes(cls):
    """The audit above is structural; this proves it behaviourally for
    the classes most likely to grow debug attributes."""
    import dataclasses

    if dataclasses.is_dataclass(cls):
        fields = dataclasses.fields(cls)
        kwargs = {}
        for field in fields:
            if field.default is not dataclasses.MISSING:
                continue
            if field.type in ("int", int):
                kwargs[field.name] = 0
            else:
                kwargs[field.name] = ""
        instance = cls(**kwargs)
    elif cls is Txn:
        instance = cls(0, "audit", 0)
    elif cls is _ThreadState:
        instance = cls(0, iter(()), ThreadStats(0))
    elif cls is VersionList:
        instance = cls()
    else:
        pytest.skip(f"no constructor recipe for {cls}")
    with pytest.raises(AttributeError):
        instance.stray_debug_attribute = 1
