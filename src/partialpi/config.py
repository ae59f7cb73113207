"""Enumeration caps and their environment-variable overrides.

Every cap can be overridden either programmatically (pass a ``Caps`` to the
operation), via CLI flags, or via environment variables:

    PARTIALPI_CAP_CLOSURE     max group order for generator closure (default 5000)
    PARTIALPI_CAP_ISO         max group order for isomorphism tests (default 512)
    PARTIALPI_CAP_LATTICE     max group order for subgroup-lattice enumeration (default 512)
    PARTIALPI_CAP_SERIES      max chief series and pruned or dead prefixes one
                              chain search counts (default 100000)
    PARTIALPI_CAP_MODULE_DIM  max module dimension for submodule enumeration (default 8)

The theorem verifiers run no isomorphism test, so the iso cap bounds only
the library call ``groups.is_isomorphic``. The series cap bounds each chain
search (``chiefs.search_chains``): every complete chain, every pruned
prefix and every skip of a dead node counts once. The verifiers' batched
Pi verdicts (``embedding.pi_family``) stand down to those searches when
both the paths from 1 to G of the chief-factor DAG and its edges plus one
outnumber the cap.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace

DEFAULT_CLOSURE_CAP = 5000
DEFAULT_ISO_CAP = 512
DEFAULT_LATTICE_CAP = 512
DEFAULT_SERIES_CAP = 100_000
DEFAULT_MODULE_DIM_CAP = 8


@dataclass(frozen=True)
class Caps:
    closure: int = DEFAULT_CLOSURE_CAP
    iso: int = DEFAULT_ISO_CAP
    lattice: int = DEFAULT_LATTICE_CAP
    series: int = DEFAULT_SERIES_CAP
    module_dim: int = DEFAULT_MODULE_DIM_CAP

    def __post_init__(self):
        # A Caps is part of the key of every memo entry that takes one, so
        # it is hashed on every cache hit: hash the fields once, here.
        object.__setattr__(self, "_hash", hash(
            tuple(getattr(self, f.name) for f in fields(self))))

    def __hash__(self):
        return self._hash

    def describe(self) -> str:
        return (f"closure={self.closure} lattice={self.lattice} "
                f"series={self.series} iso={self.iso} module_dim={self.module_dim}")


def caps_from_env(base: Caps | None = None) -> Caps:
    """Return ``base`` with any PARTIALPI_CAP_<FIELD> overrides applied."""
    values = {}
    for f in fields(Caps):
        raw = os.environ.get(f"PARTIALPI_CAP_{f.name.upper()}")
        if raw is not None:
            values[f.name] = int(raw)
    return replace(base or Caps(), **values)


DEFAULT_CAPS = Caps()
