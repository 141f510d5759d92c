"""Per-trial instrumentation record shared by the planners and the metrics layer.

Oracle calls fall into three categories:

* amplification: one call per amplification iteration per worker (halved to
  a single worker share under shared-amplification accounting),
* finalizer: one call per classical verification of a measured candidate
  (including re-verification of a goal-snapped edge),
* classical: one call per direct RRT-style reachability test.

Cutoff budgets count amplification + classical only; efficiency statistics
count all three.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "TrialRecord",
    "StepResult",
    "StepSummary",
    "ADDED",
    "DUPLICATE",
    "FAILED",
]

ADDED = "added"
DUPLICATE = "duplicate"
FAILED = "failed"


@dataclass
class TrialRecord:
    """Counters and placement log for one planning trial."""

    algorithm: str
    seed: int
    calls_amplification: int = 0
    calls_finalizer: int = 0
    calls_classical: int = 0
    nodes_admitted: int = 0
    duplicates_discarded: int = 0
    wall_time_s: float = 0.0
    node_positions: list[tuple[float, float]] = field(default_factory=list)
    per_step_m: list[int] = field(default_factory=list)
    # Inclusive running call total captured at each admission; feeds the
    # calls-per-node regressions.
    calls_at_admission: list[int] = field(default_factory=list)

    def total_calls(self) -> int:
        return self.calls_amplification + self.calls_finalizer + self.calls_classical

    def cutoff_calls(self) -> int:
        return self.calls_amplification + self.calls_classical

    def log_admission(self, position) -> None:
        self.nodes_admitted += 1
        self.node_positions.append((float(position[0]), float(position[1])))
        self.calls_at_admission.append(self.total_calls())


@dataclass(frozen=True)
class StepResult:
    """Outcome of one sequential planning step."""

    outcome: str  # ADDED | DUPLICATE | FAILED
    node_index: int | None = None


@dataclass(frozen=True)
class StepSummary:
    """Outcome of one pooled manager step."""

    admitted_indices: tuple[int, ...]
    duplicates_discarded: int
