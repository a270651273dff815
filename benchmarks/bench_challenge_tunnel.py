"""Experiment §4.1.2-Tunnels — the autopilot constant-throughput corridor.

"The auto pilot zones are long tunnels where the target execution is fixed
to a constant range of high (or low) target throughput.  This challenge
expects the DBMS to deliver a constant tight throughput for a long period
of time."  And §4.3: "certain DBMSs (and tuning combinations) cannot pass
the tunnel tests, since they produce oscillating throughputs."

Every personality enters the same tight tunnel pinned near Derby's
capacity.  Shape: the fast, low-jitter engines pass; Derby oscillates out
of the corridor and crashes.
"""

import pytest

from repro.api import ControlApi
from repro.benchpress import Character, Course, GameSession, tunnel
from repro.core import Phase
from conftest import analyzer, build_sim, once, report

TUNNEL_SECONDS = 25
CORRIDOR = 0.06
HEADROOM = 1.05  # corridor level over Derby's measured capacity


class _Hold:
    """Keep the requested rate pinned until the tunnel entrance."""

    def __init__(self, level, until):
        self.level = level
        self.until = until

    def act(self, session, now):
        if now < self.until:
            session.character.set_requested(self.level)


def run_tunnel(personality, level):
    course = Course.build(
        [tunnel(level=level, duration=TUNNEL_SECONDS, corridor=CORRIDOR)],
        start=10)
    executor, manager, _bench = build_sim(
        "ycsb", [Phase(duration=course.end + 20, rate=100)],
        workers=8, personality=personality)
    control = ControlApi()
    control.register(manager)
    session = GameSession(
        control, "tenant-0", course, pilot=_Hold(level, 10),
        character=Character(requested_rate=100, max_rate=1e9))
    session.run_on(executor)
    executor.run(until=course.end + 10)
    a = analyzer(manager)
    return {
        "state": session.summary()["state"],
        "delivered": manager.results.throughput((12, 12 + TUNNEL_SECONDS)),
        "jitter": a.jitter((12, 12 + TUNNEL_SECONDS)),
    }


def measure_derby_capacity() -> float:
    """Short closed-loop calibration run: Derby's actual ceiling here."""
    from repro.core import RATE_DISABLED
    executor, manager, _bench = build_sim(
        "ycsb", [Phase(duration=6, rate=RATE_DISABLED)],
        workers=8, personality="derby")
    executor.run()
    return manager.results.throughput((2, 6))


def run_all():
    # Pin the corridor just above Derby's measured capacity: it cannot
    # hold the low edge, while the faster stages clear it trivially.
    level = measure_derby_capacity() * HEADROOM
    return level, {p: run_tunnel(p, level)
                   for p in ("oracle", "postgres", "mysql", "derby")}


def test_tunnel_pass_fail_by_personality(benchmark):
    level, outcome = once(benchmark, run_all)
    rows = [(name, m["state"], round(m["delivered"], 1),
             round(m["jitter"], 4))
            for name, m in outcome.items()]
    report(
        f"Tunnel challenge: hold {HEADROOM}x derby capacity "
        f"±{CORRIDOR * 50:.0f}% for {TUNNEL_SECONDS}s (autopilot)",
        ["DBMS", "Game state", "Delivered tps", "Jitter (CoV)"],
        rows,
        notes=f"corridor level: {level:.0f} tps\n"
              "paper §4.3: oscillating engines cannot pass the tunnel")
    for name in ("oracle", "postgres", "mysql"):
        assert outcome[name]["state"] == "completed", name
    assert outcome["derby"]["state"] == "crashed"
    # Derby's shortfall, not merely noise, is what kills it.
    assert outcome["derby"]["delivered"] < level * (1 - CORRIDOR / 2)
