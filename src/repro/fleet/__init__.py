"""Horizontal scale-out of the planning service: a sharded fleet.

One :class:`~repro.fleet.router.FleetRouter` front end consistent-hashes
``plan``/``simulate`` requests (:class:`~repro.fleet.hashring.HashRing`
on the geometry fingerprint) across N :mod:`repro.serve` backend shards
kept alive by a :class:`~repro.fleet.supervisor.ShardSupervisor`, with
the on-disk :class:`~repro.plan.store.PlanArtifactStore` shared by every
shard as a tier-3 cache. :class:`~repro.fleet.service.Fleet` bundles the
whole thing; ``repro check fleet`` (:mod:`repro.check.fleetcheck`) is its
gate.
"""

from repro.fleet.hashring import HashRing
from repro.fleet.router import FleetConfig, FleetRouter, routing_key
from repro.fleet.service import Fleet, serve_fleet
from repro.fleet.supervisor import (
    ProcessShard,
    ShardSpec,
    ShardSupervisor,
    ThreadShard,
)

__all__ = [
    "HashRing",
    "FleetConfig",
    "FleetRouter",
    "routing_key",
    "Fleet",
    "serve_fleet",
    "ProcessShard",
    "ShardSpec",
    "ShardSupervisor",
    "ThreadShard",
]
