"""The BenchPress game session (paper §4).

One session glues together:

* a live workload (via the control API — the same surface the REST server
  exposes), whose delivered throughput is the character's altitude;
* an obstacle :class:`~repro.benchpress.challenges.Course`;
* a :class:`~repro.benchpress.physics.Character` with gravity and jumps;
* an optional :class:`~repro.benchpress.pilots.Pilot` input source.

Per tick: apply input (unless inside an autopilot Tunnel), apply gravity,
push the requested rate through the API, observe the *measured*
throughput, and check collisions.  Failing an obstacle ends the game and
halts the benchmark (§4.1: "This will cause BenchPress to halt the
benchmark and reset the database").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..api.control import ControlApi
from ..errors import ApiError
from .challenges import Course, Obstacle
from .physics import Character
from .pilots import Pilot

STATE_READY = "ready"
STATE_RUNNING = "running"
STATE_CRASHED = "crashed"
STATE_COMPLETED = "completed"

#: Requested rates below this pause the workload (character on the floor).
MIN_PLAYABLE_RATE = 0.5
#: Seconds of delivered throughput the character's altitude averages.
MEASURE_WINDOW = 2.0
#: Ticks the character may spend outside a corridor before it crashes.
CRASH_GRACE_TICKS = 2
#: Seconds after the start during which no collision is checked.
WARMUP = 5.0


@dataclass
class GameEvent:
    time: float
    kind: str  # tick | crash | complete | mixture | pause | obstacle-pass
    detail: dict = field(default_factory=dict)


class GameSession:
    """One player's run through a course."""

    def __init__(self, control: ControlApi, tenant: str, course: Course,
                 character: Optional[Character] = None,
                 pilot: Optional[Pilot] = None,
                 halt_on_crash: bool = True) -> None:
        self.control = control
        self.tenant = tenant
        self.course = course
        self.character = character or Character()
        self.pilot = pilot
        self.halt_on_crash = halt_on_crash

        self.state = STATE_READY
        self._started_at = 0.0
        self.score = 0.0
        self.obstacles_passed = 0
        self.events: list[GameEvent] = []
        self.altitude_history: list[tuple[float, float, float]] = []
        self._out_of_corridor_ticks = 0
        self._last_obstacle: Optional[Obstacle] = None
        self._last_tick: Optional[float] = None
        self._workload_paused = False

    # -- public controls (the demo's keyboard surface) ----------------------

    def jump(self) -> float:
        return self.character.jump()

    def duck(self) -> float:
        return self.character.duck()

    def change_mixture(self, preset: str) -> None:
        """Pause, swap the mixture, resume (paper §4.1.1 / Fig. 2d)."""
        self.control.pause(self.tenant)
        self._log("pause", {})
        try:
            self.control.set_preset(self.tenant, preset)
            self._log("mixture", {"preset": preset})
        finally:
            self.control.resume(self.tenant)

    def set_custom_mixture(self, weights: dict[str, float]) -> None:
        self.control.pause(self.tenant)
        self._log("pause", {})
        try:
            self.control.set_weights(self.tenant, weights)
            self._log("mixture", {"weights": weights})
        finally:
            self.control.resume(self.tenant)

    # -- game loop ------------------------------------------------------------

    def start(self, now: float) -> None:
        self.state = STATE_RUNNING
        self._last_tick = now
        self._started_at = now
        self._push_rate()

    def tick(self, now: float) -> str:
        """Advance one frame; returns the session state."""
        if self.state != STATE_RUNNING:
            return self.state
        dt = max(0.0, now - self._last_tick) if self._last_tick else 1.0
        self._last_tick = now

        in_autopilot = self._in_autopilot(now)
        if in_autopilot:
            # Autopilot zones fix the target execution: input is ignored
            # and the requested rate holds constant (§4.1.2 Tunnels).
            pass
        else:
            if self.pilot is not None:
                self.pilot.act(self, now)
            self.character.apply_gravity(dt)
        self._push_rate()

        # Altitude comes from the streaming metrics endpoint: the same
        # windowed throughput as /status, but O(bins) per poll — a 60 Hz
        # game loop over a long run must not rescan the sample list.
        metrics = self.control.metrics(self.tenant, now,
                                       window=MEASURE_WINDOW)
        delivered = float(metrics["window"]["throughput"])
        self.character.observe(delivered)
        self.altitude_history.append(
            (now, self.character.requested_rate, delivered))

        if now - self._started_at >= WARMUP:
            self._check_collision(now)
        if self.state == STATE_RUNNING:
            self.score += dt
            if now >= self.course.end:
                self.state = STATE_COMPLETED
                self._log("complete", {"score": self.score,
                                       "obstacles": self.obstacles_passed})
        return self.state

    def run_on(self, executor, tick: float = 1.0,
               start: float = 0.0) -> None:
        """Schedule the game loop on a SimulatedExecutor's clock."""
        clock = executor.clock

        def loop(when: float) -> None:
            if when == start:
                self.start(when)
            state = self.tick(when)
            if state == STATE_RUNNING:
                clock.call_at(when + tick, lambda: loop(when + tick))

        clock.call_at(start, lambda: loop(start))

    # -- internals ------------------------------------------------------------

    def _in_autopilot(self, now: float) -> bool:
        challenge = self.course.challenge_at(now)
        return bool(challenge and challenge.autopilot)

    def _push_rate(self) -> None:
        """Translate the character's requested rate into an API command."""
        rate = self.character.requested_rate
        try:
            if rate < MIN_PLAYABLE_RATE:
                if not self._workload_paused:
                    self.control.pause(self.tenant)
                    self._workload_paused = True
            else:
                if self._workload_paused:
                    self.control.resume(self.tenant)
                    self._workload_paused = False
                self.control.set_rate(self.tenant, rate)
        except ApiError:
            pass  # workload finished underneath the game

    def _check_collision(self, now: float) -> None:
        obstacle = self.course.obstacle_at(now)
        if self._last_obstacle is not None and (
                obstacle is None or obstacle is not self._last_obstacle):
            self.obstacles_passed += 1
            self._log("obstacle-pass", {"low": self._last_obstacle.low,
                                        "high": self._last_obstacle.high})
        self._last_obstacle = obstacle
        if obstacle is None:
            self._out_of_corridor_ticks = 0
            return
        if obstacle.contains_altitude(self.character.altitude):
            self._out_of_corridor_ticks = 0
            return
        self._out_of_corridor_ticks += 1
        if self._out_of_corridor_ticks > CRASH_GRACE_TICKS:
            self.state = STATE_CRASHED
            self._log("crash", {
                "altitude": self.character.altitude,
                "requested": self.character.requested_rate,
                "corridor": [obstacle.low, obstacle.high],
            })
            if self.halt_on_crash:
                try:
                    self.control.pause(self.tenant)
                except ApiError:
                    pass

    def _log(self, kind: str, detail: dict) -> None:
        when = self._last_tick if self._last_tick is not None else 0.0
        self.events.append(GameEvent(when, kind, detail))

    # -- reporting --------------------------------------------------------------

    def summary(self) -> dict[str, object]:
        return {
            "tenant": self.tenant,
            "state": self.state,
            "score": self.score,
            "obstacles_passed": self.obstacles_passed,
            "crashes": sum(1 for e in self.events if e.kind == "crash"),
            "mixture_changes": [e.detail for e in self.events
                                if e.kind == "mixture"],
        }
