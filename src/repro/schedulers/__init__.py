"""Schedulers: K-RAD (the contribution) and the baseline zoo."""

from repro.schedulers.base import Scheduler, check_allotments
from repro.schedulers.clairvoyant import (
    ClairvoyantCriticalPath,
    ClairvoyantSrpt,
    SpeedAwareClairvoyant,
)
from repro.schedulers.deq import KDeq, deq_allocate
from repro.schedulers.equi import Equi
from repro.schedulers.greedy import GreedyFcfs
from repro.schedulers.jobshop import DagShopScheduler
from repro.schedulers.krad import KRad
from repro.schedulers.listsched import ListScheduler
from repro.schedulers.rad import Rad, RadCategoryState
from repro.schedulers.randomized import RandomizedKRad
from repro.schedulers.static import GangScheduler, StaticPartition
from repro.schedulers.round_robin import KRoundRobin
from repro.schedulers.setf import Setf

__all__ = [
    "Scheduler",
    "check_allotments",
    "ClairvoyantCriticalPath",
    "ClairvoyantSrpt",
    "KDeq",
    "deq_allocate",
    "Equi",
    "GreedyFcfs",
    "DagShopScheduler",
    "KRad",
    "ListScheduler",
    "Rad",
    "RadCategoryState",
    "RandomizedKRad",
    "GangScheduler",
    "StaticPartition",
    "KRoundRobin",
    "Setf",
    "SpeedAwareClairvoyant",
]

_REGISTRY = {
    cls.name: cls
    for cls in (
        KRad,
        Rad,
        KDeq,
        KRoundRobin,
        Equi,
        GreedyFcfs,
        DagShopScheduler,
        ClairvoyantCriticalPath,
        ClairvoyantSrpt,
        RandomizedKRad,
        GangScheduler,
        StaticPartition,
        Setf,
        ListScheduler,
    )
}


def scheduler_by_name(name: str) -> Scheduler:
    """Instantiate a scheduler by its short name (CLI convenience)."""
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise ValueError(
            f"unknown scheduler {name!r}; choose from {sorted(_REGISTRY)}"
        ) from None


def scheduler_names() -> list[str]:
    """All registered short names, sorted (CLI help, arena registry)."""
    return sorted(_REGISTRY)


__all__ += ["scheduler_by_name", "scheduler_names"]
