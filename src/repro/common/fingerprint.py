"""A fingerprint of the ``repro`` package's source.

The executor's result cache keys on it, and ``sitm-store bench`` stamps
it on its artifact.  It lives here, not in the harness, so the store can
compute it without loading the simulator.
"""

from __future__ import annotations

import functools
import hashlib
import pathlib


@functools.lru_cache(maxsize=None)
def code_fingerprint() -> str:
    """Hash of every ``.py`` source file in the ``repro`` package.

    Part of the cache key: any edit to the simulator, TM protocols,
    workloads, or harness invalidates all cached results, because a
    cached number is only trustworthy if the code that produced it is
    the code that would produce it now.  Computed once per process.
    """
    package_root = pathlib.Path(__file__).parent.parent
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        digest.update(str(path.relative_to(package_root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]
