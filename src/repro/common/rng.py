"""Deterministic random-number utilities.

All stochastic behaviour in the simulator — workload operation mixes, key
choices, backoff jitter — must be reproducible from a single integer seed so
that every figure regenerates bit-identically.  We derive independent child
streams from a root seed with a stable string-keyed splitting scheme, so
adding a new consumer of randomness never perturbs existing streams.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterator, List, Sequence, TypeVar

T = TypeVar("T")


def derive_seed(root: int, *keys: object) -> int:
    """Derive a 64-bit child seed from ``root`` and a path of keys.

    The derivation hashes the textual path, so it is stable across Python
    versions and process runs (unlike ``hash()``).
    """
    text = str(int(root)) + "/" + "/".join(str(k) for k in keys)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class SplitRandom(random.Random):
    """A :class:`random.Random` that can spawn independent child streams."""

    def __new__(cls, *args: object, **kwargs: object) -> "SplitRandom":
        # before Python 3.11 ``Random.__new__`` takes the seed itself and
        # rejects ``path``; seeding is ``__init__``'s business here
        return super().__new__(cls)

    def __init__(self, seed: int, path: Sequence[object] = ()):  # noqa: D107
        self._root_seed = int(seed)
        self._path = tuple(path)
        super().__init__(derive_seed(self._root_seed, *self._path))

    def split(self, *keys: object) -> "SplitRandom":
        """Return a child stream independent of this one.

        Splitting is keyed, not sequential: ``rng.split("a")`` always yields
        the same stream regardless of how much of ``rng`` was consumed.
        """
        return SplitRandom(self._root_seed, self._path + tuple(keys))

    @property
    def path(self) -> tuple:
        """The key path of this stream, for debugging."""
        return self._path

    def weighted_choice(self, items: Sequence[T], weights: Sequence[float]) -> T:
        """Choose one item with the given (not necessarily normalised) weights."""
        return self.choices(list(items), weights=list(weights), k=1)[0]

    def distinct(self, n: int, lo: int, hi: int) -> List[int]:
        """Return ``n`` distinct integers uniformly drawn from ``[lo, hi)``."""
        if hi - lo < n:
            raise ValueError(f"cannot draw {n} distinct values from [{lo},{hi})")
        return self.sample(range(lo, hi), n)


def seeds_for_runs(root: int, count: int) -> Iterator[int]:
    """Yield ``count`` independent run seeds (the paper averages over 5)."""
    for i in range(count):
        yield derive_seed(root, "run", i)
