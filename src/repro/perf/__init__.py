"""Performance + functional heterogeneity (the paper's future-work challenge).

The model lives on the machine: ``KResourceMachine(caps, speeds=...)``
gives category ``alpha`` integer speed ``s_alpha >= 1``, and the one
engine (:func:`repro.sim.simulate`) runs ``max_speed`` micro-rounds per
step, a fast processor chaining through freshly enabled dependent tasks
within its step.  Speed 1 everywhere is the paper's model exactly.

This is "uniform speeds within a category" — a structured slice of the
uniformly-related-machines setting of Shmoys, Wein & Williamson, where the
best online bound is O(log P).  This package holds what the extension
adds beyond the engine: the speed-aware lower bounds that measure how far
non-clairvoyant K-RAD (which never sees the speeds) stays from optimal,
and a speed-aware clairvoyant baseline.
"""

from repro.perf.bounds import (
    job_weighted_span,
    speed_makespan_lower_bound,
    weighted_span,
)
from repro.perf.scheduler import SpeedAwareClairvoyant

__all__ = [
    "SpeedAwareClairvoyant",
    "job_weighted_span",
    "speed_makespan_lower_bound",
    "weighted_span",
]
