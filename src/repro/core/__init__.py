"""Driver core: workload manager, rate/mixture control, workers, results."""

from .benchmark import (BenchmarkModule, CLASS_FEATURE, CLASS_TRANSACTIONAL,
                        CLASS_WEB)
from .config import WorkloadConfiguration
from .executors import SimulatedExecutor, ThreadedExecutor
from .manager import WorkloadManager
from .procexec import ProcessExecutor, TenantSpec
from .phase import (ARRIVAL_EXPONENTIAL, ARRIVAL_UNIFORM, Phase,
                    RATE_DISABLED, RATE_UNLIMITED, UNLIMITED_RATE_CONSTANT,
                    normalize_weights)
from .procedure import Procedure, UserAbort
from .rates import ArrivalSchedule
from .replay import (phases_from_csv, phases_from_results,
                     phases_from_series)
from .requestqueue import (POLICY_BACKLOG, POLICY_CAP, Request,
                           RequestQueue)
from .results import (LatencySample, Results, SampleBuffer, STATUS_ABORTED,
                      STATUS_ERROR, STATUS_OK, merge, percentile)

__all__ = [
    "BenchmarkModule", "CLASS_FEATURE", "CLASS_TRANSACTIONAL", "CLASS_WEB",
    "WorkloadConfiguration",
    "SimulatedExecutor", "ThreadedExecutor",
    "WorkloadManager",
    "ProcessExecutor", "TenantSpec",
    "SampleBuffer",
    "ARRIVAL_EXPONENTIAL", "ARRIVAL_UNIFORM", "Phase",
    "RATE_DISABLED", "RATE_UNLIMITED", "UNLIMITED_RATE_CONSTANT",
    "normalize_weights", "Procedure", "UserAbort", "ArrivalSchedule",
    "phases_from_csv", "phases_from_results", "phases_from_series",
    "POLICY_BACKLOG", "POLICY_CAP", "Request", "RequestQueue",
    "LatencySample", "Results", "STATUS_ABORTED", "STATUS_ERROR",
    "STATUS_OK", "merge", "percentile",
]
