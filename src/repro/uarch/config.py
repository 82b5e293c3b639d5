"""Core configuration (paper Section 5.2).

The base processor: 4-wide fetch/issue/commit, a 128-entry issue queue, a
256-entry ROB, and 7 pipeline stages between the schedule and execute
stages — the window within which load dependents are scheduled
speculatively and must be replayed on a miss.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.core.errors import ConfigurationError
from repro.core.validation import require_positive
from repro.uarch.isa import FU_KINDS
from repro.yieldmodel.constraints import BASE_ACCESS_CYCLES

__all__ = ["CoreConfig", "PAPER_CORE"]


def _default_fu_pools() -> Dict[str, int]:
    return {"ialu": 4, "imult": 1, "falu": 2, "fmult": 1, "mem": 2}


@dataclass(frozen=True)
class CoreConfig:
    """Parameters of the simulated out-of-order core.

    Attributes
    ----------
    fetch_width, issue_width, commit_width:
        Per-cycle bandwidths (the paper's core is 4-wide).
    iq_size, rob_size:
        Issue-queue and reorder-buffer capacities (128 / 256).
    sched_to_exec_stages:
        Pipeline stages between schedule and execute (7): the speculative
        scheduling shadow.
    frontend_stages:
        Fetch-to-dispatch depth; sets the misprediction refill bubble.
    fu_pools:
        Functional units available per kind per cycle.
    predicted_load_latency:
        Latency the scheduler assumes when waking load dependents
        (the L1D hit latency: 4; naive binning raises it).
    lbb_slack:
        Extra cycles a load-bypass buffer can absorb (1 entry = 1 cycle;
        0 disables VACA support, forcing a replay on any late hit).
    """

    fetch_width: int = 4
    issue_width: int = 4
    commit_width: int = 4
    iq_size: int = 128
    rob_size: int = 256
    sched_to_exec_stages: int = 7
    frontend_stages: int = 4
    fu_pools: Dict[str, int] = field(default_factory=_default_fu_pools)
    predicted_load_latency: int = BASE_ACCESS_CYCLES
    lbb_slack: int = 1

    def __post_init__(self) -> None:
        for name in (
            "fetch_width",
            "issue_width",
            "commit_width",
            "iq_size",
            "rob_size",
            "sched_to_exec_stages",
            "frontend_stages",
            "predicted_load_latency",
        ):
            require_positive(getattr(self, name), name)
        if self.lbb_slack < 0:
            raise ValueError("lbb_slack must be >= 0")
        for kind, count in self.fu_pools.items():
            require_positive(count, f"fu_pools[{kind}]")
        missing = [kind for kind in FU_KINDS if kind not in self.fu_pools]
        if missing:
            raise ConfigurationError(
                f"fu_pools has no entry for functional-unit kind(s) "
                f"{', '.join(missing)}; every kind needs a pool"
            )

    def replace(self, **changes) -> "CoreConfig":
        """Return a copy with the given fields replaced."""
        from dataclasses import replace as dc_replace

        return dc_replace(self, **changes)


#: The paper's base processor.
PAPER_CORE = CoreConfig()
