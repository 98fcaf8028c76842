"""The shipped rule pack; importing this package registers every rule.

========== ========= ====================================================
DET001     error     randomness only via ``repro.sim.random``
DET002     error     no wall-clock reads outside ``benchmarks/``
DET003     warning   no unordered iteration where events/randomness flow
DET004     error     no float ``==``/``!=`` on simulation timestamps
PAR001     error     Cell/.submit callables module-level, payloads picklable
PAR002     error     worker-reachable code writes no module globals
PAR003     error     frozen arena buffers thawed before element-wise writes
PERF001    warning   hot-path manifest classes declare ``__slots__``
SIM001     error     process bodies yield only Timeout/Wait directives
SIM002     warning   capture/snapshot methods pair with restore methods
VER001     error     Q-buffer mutations bump ``version`` on every path
========== ========= ====================================================

DET/SIM001-2/PERF are per-module rules; VER001 and the PAR family are
whole-program rules running against the
:class:`~repro.analysis.index.ProjectIndex` (see
:mod:`repro.analysis.callgraph`).
"""

from repro.analysis.rules import (  # noqa: F401  (import = register)
    arena,
    determinism,
    parallel,
    performance,
    simulation,
    versioning,
)

__all__ = [
    "arena",
    "determinism",
    "parallel",
    "performance",
    "simulation",
    "versioning",
]
