"""``repro.fleet`` — the crash-resilient distributed sweep fabric.

A fleet is a work queue over a shared result-cache directory: the
coordinator enumerates cache-miss cells into an append-only journal
(:mod:`~repro.fleet.journal`), workers claim cells via heartbeat-renewed
lease files (:mod:`~repro.fleet.lease`), a watchdog reclaims leases
whose owners died (:mod:`~repro.fleet.watchdog`), and every finished
result lands in the content-addressed cache — so any sweep survives
SIGKILLed workers, SIGTERM drains, and machine loss, and resumes with
zero recomputation (:mod:`~repro.fleet.coordinator`).

Entry points: :func:`~repro.fleet.coordinator.run_fleet` (and ``repro
fleet run`` on the CLI), or ``run_many(..., fleet_dir=...)`` to route an
ordinary sweep through the fabric.  The package itself imports nothing;
import each name from the submodule that defines it.  Mission control — per-worker timelines, straggler cells,
drain-rate ETA, and the ``repro fleet top`` / ``fleet report --html``
views — lives in :mod:`~repro.fleet.observer`.
"""
