"""Rule modules; importing this package registers every rule.

Rule families:

- :mod:`repro.devtools.rules.rng` — RNG discipline (``RNG001``–``RNG004``)
- :mod:`repro.devtools.rules.seeding` — seed threading (``SEED001``)
- :mod:`repro.devtools.rules.layering` — import-graph DAG (``LAY001``, ``LAY002``)
- :mod:`repro.devtools.rules.api` — API hygiene (``API001``–``API003``)
- :mod:`repro.devtools.rules.perf` — hot-path idioms (``PERF001``–``PERF004``)
- :mod:`repro.devtools.rules.robustness` — error discipline (``ROB001``–``ROB002``)
- :mod:`repro.devtools.rules.store` — SQL hygiene (``STORE001``)
- :mod:`repro.devtools.rules.conc` — concurrency & fork safety
  (``CONC001``–``CONC004``)
- :mod:`repro.devtools.rules.imports` — import budgets (``IMP001``)
"""

from repro.devtools.rules import (
    api,
    conc,
    imports,
    layering,
    perf,
    rng,
    robustness,
    seeding,
    store,
)

__all__ = [
    "api",
    "conc",
    "imports",
    "layering",
    "perf",
    "rng",
    "robustness",
    "seeding",
    "store",
]
