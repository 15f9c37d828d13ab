"""Hot-path performance infrastructure: buffer arenas, per-mesh solver
workspaces, and the per-phase step profiler (paper Alg. 1 / Fig. 20)."""

from .pool import BufferPool
from .profiler import NO_PROFILER, PHASES, StepProfiler, span
from .workspace import RK4Workspace, SolverWorkspace

__all__ = [
    "NO_PROFILER",
    "PHASES",
    "BufferPool",
    "RK4Workspace",
    "SolverWorkspace",
    "StepProfiler",
    "span",
]
