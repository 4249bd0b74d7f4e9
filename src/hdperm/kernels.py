"""The name of the one counting backend, the enumerator's slab walk
(counting._blocks). The module exists for the benchmark, which reads
BACKEND and probes get(name) for each backend it knows."""

import sys

BACKEND = "python"


def get(name=None):
    """This module for None or "python"; RuntimeError for any other name."""
    if name not in (None, BACKEND):
        raise RuntimeError(f"no kernel backend {name!r}")
    return sys.modules[__name__]
