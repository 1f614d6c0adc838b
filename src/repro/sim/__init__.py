"""Discrete-event simulator reproducing the paper's Figure 4 model.

Components: an :class:`Update Generator <repro.sim.generators.
UpdateGenerator>` drives the :class:`~repro.sim.source.Source`; the
:class:`Synchronization Scheduler <repro.core.scheduler.SyncSchedule>`
and :class:`Request Generator <repro.sim.generators.RequestGenerator>`
drive the :class:`~repro.sim.mirror.Mirror`; the :class:`Freshness
Evaluator <repro.sim.evaluator.FreshnessMonitor>` observes everything.
:class:`~repro.sim.simulation.Simulation` wires them together.
"""

from repro.sim.bursty import BurstyUpdateGenerator
from repro.sim.events import EventKind
from repro.sim.evaluator import FreshnessMonitor, SimulationResult
from repro.sim.generators import RequestGenerator, UpdateGenerator
from repro.sim.mirror import Mirror
from repro.sim.queueing import LinkReplayResult, SyncLink
from repro.sim.rounds import (
    RandomPollPolicy,
    RoundPolicy,
    RoundSimulationResult,
    SamplingCrawlerPolicy,
    SchedulePolicy,
    simulate_rounds,
)
from repro.sim.simulation import Simulation
from repro.sim.source import Source

__all__ = [
    "BurstyUpdateGenerator",
    "EventKind",
    "FreshnessMonitor",
    "LinkReplayResult",
    "Mirror",
    "SyncLink",
    "RandomPollPolicy",
    "RequestGenerator",
    "RoundPolicy",
    "RoundSimulationResult",
    "SamplingCrawlerPolicy",
    "SchedulePolicy",
    "simulate_rounds",
    "Simulation",
    "SimulationResult",
    "Source",
    "UpdateGenerator",
]
