"""Live estimator service: the simulator as a store-backed oracle.

``repro serve`` keeps a long-running process answering latency queries
from any campaign store backend; misses simulate on demand through the
ordinary campaign machinery, turning the store into a demand-driven
cache.  See ``docs/service.md``.
"""

from repro.campaigns.remote import API_PREFIX
from repro.service.estimator import (
    DEFAULT_SERVICE_PORT,
    QUERY_FIELDS,
    EstimatorServer,
    EstimatorService,
    ServiceError,
    spec_for_query,
)

__all__ = [
    "API_PREFIX",
    "DEFAULT_SERVICE_PORT",
    "QUERY_FIELDS",
    "EstimatorService",
    "EstimatorServer",
    "ServiceError",
    "spec_for_query",
]
