"""Multi-tier storage hierarchy: DRAM -> flash -> backend.

Evictions demote downward instead of disappearing, admission
controllers gate the resulting writes, and every tier carries its own
policy, byte budget and access-cost model.  See ``docs/hierarchy.md``.
"""

from repro.hierarchy.admission import (
    AdmissionController,
    AdmitAll,
    FrequencyAdmission,
    GhostAdmission,
    make_admission,
)
from repro.hierarchy.config import (
    ADMISSION_KINDS,
    TIER_KINDS,
    HierarchyConfig,
    TierConfig,
    dram_flash_config,
)
from repro.hierarchy.hierarchy import CacheHierarchy
from repro.hierarchy.simulate import (
    HierarchyResult,
    TierReport,
    simulate_hierarchy,
)
from repro.hierarchy.tier import (
    ADMITTED,
    REFRESHED,
    REJECTED,
    Tier,
    TierStats,
)

__all__ = [
    "ADMISSION_KINDS",
    "TIER_KINDS",
    "ADMITTED",
    "REFRESHED",
    "REJECTED",
    "AdmissionController",
    "AdmitAll",
    "GhostAdmission",
    "FrequencyAdmission",
    "make_admission",
    "TierConfig",
    "HierarchyConfig",
    "dram_flash_config",
    "Tier",
    "TierStats",
    "CacheHierarchy",
    "TierReport",
    "HierarchyResult",
    "simulate_hierarchy",
]
