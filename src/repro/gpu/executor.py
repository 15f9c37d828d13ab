"""The virtual GPU: a timeline of model-predicted kernel times.

Real A100s are not available to a pure-Python reproduction (see
DESIGN.md).  Every launch is costed with the §III-D slow–fast model and
accumulated on a timeline, which is what the single-node and scaling
benchmarks report.  The kernels' numbers are checked elsewhere, by
running them: the emitted CUDA A kernel is compiled for and executed on
the host (:mod:`repro.codegen.cuda_emit`), the D stage and the
octant-to-patch scatter by the native-vs-NumPy bitwise suites.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .device import A100, MachineSpec
from .perfmodel import KernelStats, kernel_time


@dataclass
class KernelLaunch:
    """One recorded kernel launch (stats + predicted time)."""
    name: str
    stats: KernelStats
    time: float


@dataclass
class VirtualGPU:
    """Accumulates model-predicted kernel times (one device)."""

    machine: MachineSpec = A100
    model: str = "infinite"
    timeline: list[KernelLaunch] = field(default_factory=list)
    #: optional repro.telemetry.TelemetrySink: every launch then lands
    #: in the metrics registry (gpu_flops/bytes/seconds per kernel) and
    #: as an instant on the trace timeline
    telemetry: object = None

    def launch(self, stats: KernelStats) -> float:
        """Cost a kernel with the machine model and record it."""
        t = kernel_time(stats, self.machine, self.model)
        self.timeline.append(KernelLaunch(stats.name, stats, t))
        if self.telemetry is not None:
            from .counters import publish_kernel_stats

            publish_kernel_stats(self.telemetry.metrics, stats,
                                 predicted_time=t)
            self.telemetry.tracer.instant(
                "gpu.launch", "gpu",
                {"kernel": stats.name, "predicted_s": t},
            )
        return t

    def total_time(self) -> float:
        """Sum of all recorded launch times."""
        return sum(l.time for l in self.timeline)

    def time_by_kernel(self) -> dict[str, float]:
        """Accumulated time per kernel name."""
        out: dict[str, float] = {}
        for l in self.timeline:
            out[l.name] = out.get(l.name, 0.0) + l.time
        return out

    def reset(self) -> None:
        """Clear the timeline."""
        self.timeline.clear()
