"""Scalar golden references for the vectorised motor kernels.

The hot paths in :mod:`repro.humans.pointing`, :mod:`repro.models.bezier`,
:mod:`repro.models.typing_rhythm` and the scrollbar drag of
:mod:`repro.humans.scrolling` generate paths, typing plans and drag
plans array-at-once.  This module keeps the per-point/per-draw
formulation of each generator -- identical distributions, identical RNG
draw order, identical arithmetic expression shapes -- so the equivalence
tests can assert that same-seed output is byte-identical, and the
benchmark can measure the speedup of the batched kernels over the loops
they replaced.  Wheel-scroll plans have no reference here: they are
generated per tick in the first place.

Two rules make byte-identity achievable rather than approximate:

- **Stream order**: numpy's ``Generator`` consumes its bit stream
  value-for-value identically whether ``normal``/``lognormal`` is called
  once with array parameters or once per value, so a batched draw and a
  scalar draw loop realise the *same numbers* at the same seed.
- **Expression shape**: elementwise array arithmetic is IEEE-exact
  against the equivalent scalar arithmetic, but only for the same
  expression -- hence shared kernels like
  :func:`repro.models.bezier.cubic_bezier_coords` avoid ``**`` with
  exponents >= 3 (numpy's array power and Python's scalar power round
  the last ulp differently), and these references sum contextual typing
  pauses into an accumulator before adding, exactly as the batched
  assembly does.

The references include the motor-timing bugfixes (degenerate Fitts
duration, ``n == kernel`` tremor smoothing, bounded correction hook):
they are the *current* model evaluated slowly, not the buggy history.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.geometry import Point
from repro.humans.pointing import (
    DEGENERATE_DISTANCE_PX,
    HumanPointing,
    _smoothed_noise,
    minimum_jerk_profile,
)
from repro.humans.scrolling import HumanScrolling
from repro.models.bezier import (
    BezierTrajectory,
    TimedPoint,
    TrajectoryParams,
    _ease_min_jerk,
)
from repro.models.refinements import LognormalTypingRhythm
from repro.models.typing_rhythm import PLAIN, SHIFT, KeyEvent, TypingRhythm


class ScalarHumanPointing(HumanPointing):
    """:class:`HumanPointing` with the per-sample assembly loop."""

    def path(
        self,
        start: Point,
        end: Point,
        *,
        target_width: float = 30.0,
        duration_ms: Optional[float] = None,
    ) -> List[Tuple[float, Point]]:
        profile = self.profile
        distance = start.distance_to(end)
        if distance < DEGENERATE_DISTANCE_PX:
            return [(0.0, start)]
        if duration_ms is None:
            duration_ms = self.duration_ms(start, end, target_width)
        n = max(3, int(round(duration_ms / profile.sample_interval_ms)) + 1)
        s = minimum_jerk_profile(n)
        dt = duration_ms / (n - 1)

        ux, uy = (end.x - start.x) / distance, (end.y - start.y) / distance
        px, py = -uy, ux

        amplitude = (
            distance
            * profile.curve_amplitude_frac
            * float(self.rng.normal(1.0, 0.35))
            * (1.0 if self.rng.random() < 0.5 else -1.0)
        )
        bow = amplitude * np.sin(np.pi * s)

        tremor = _smoothed_noise(self.rng, n, profile.jitter_px)
        envelope = np.sin(np.pi * np.linspace(0.0, 1.0, n)) ** 0.5
        tremor = tremor * envelope

        # The per-sample loop the vectorised kernel replaced: same
        # expressions, evaluated one index at a time.
        points: List[Tuple[float, Point]] = []
        for i in range(n):
            offset = bow[i] + tremor[i]
            x = start.x + (end.x - start.x) * s[i] + offset * px
            y = start.y + (end.y - start.y) * s[i] + offset * py
            points.append((i * dt, Point(float(x), float(y))))

        if self.rng.random() < profile.correction_prob and distance > 60.0:
            points = self._append_correction(points, end, dt, duration_ms)
        return points


def scalar_naive_bezier_path(
    start: Point,
    end: Point,
    rng: np.random.Generator,
    *,
    duration_ms: Optional[float] = None,
    params: Optional[TrajectoryParams] = None,
) -> List[TimedPoint]:
    """Per-point formulation of :func:`repro.models.bezier.naive_bezier_path`."""
    params = params or TrajectoryParams()
    distance = start.distance_to(end)
    if duration_ms is None:
        duration_ms = max(
            distance / params.base_speed_px_s * 1000.0, params.min_duration_ms
        )
    curve = BezierTrajectory(start, end, rng, params.control_offset_frac)
    n = max(2, int(round(duration_ms / params.sample_interval_ms)) + 1)
    dt = duration_ms / (n - 1)
    return [(i * dt, curve.at(i / (n - 1))) for i in range(n)]


def scalar_hlisa_path(
    start: Point,
    end: Point,
    rng: np.random.Generator,
    *,
    duration_ms: Optional[float] = None,
    params: Optional[TrajectoryParams] = None,
) -> List[TimedPoint]:
    """Per-point formulation of :func:`repro.models.bezier.hlisa_path`."""
    params = params or TrajectoryParams()
    distance = start.distance_to(end)
    if distance < 1e-9:
        return [(0.0, start)]
    if duration_ms is None:
        speed = params.base_speed_px_s * float(
            np.exp(rng.normal(0.0, params.speed_noise_sigma))
        )
        duration_ms = max(distance / speed * 1000.0, params.min_duration_ms)
    curve = BezierTrajectory(start, end, rng, params.control_offset_frac)
    n = max(3, int(round(duration_ms / params.sample_interval_ms)) + 1)
    dt = duration_ms / (n - 1)
    eased = _ease_min_jerk(np.linspace(0.0, 1.0, n))

    jitter = rng.normal(0.0, params.jitter_px, size=n)
    if n > 5:
        kernel = np.ones(3) / 3.0
        jitter = np.convolve(jitter, kernel, mode="same")
    fade = np.sin(np.pi * np.linspace(0.0, 1.0, n))
    jitter = jitter * fade

    chord = max(distance, 1e-9)
    px = -(end.y - start.y) / chord
    py = (end.x - start.x) / chord
    points: List[TimedPoint] = []
    for i in range(n):
        base = curve.at(eased[i])
        points.append(
            (i * dt, Point(float(base.x + jitter[i] * px), float(base.y + jitter[i] * py)))
        )
    return points


class ScalarTypingRhythm(TypingRhythm):
    """:class:`TypingRhythm` drawing one value at a time via ``_normal``."""

    def _contextual_pause(self, previous: str, current: str) -> float:
        p = self.params
        extra = 0.0
        if previous == " ":
            extra += self._normal(
                p.pause_new_word_ms, p.pause_new_word_ms * p.pause_sd_frac, 0.0
            )
        if previous == ",":
            extra += self._normal(
                p.pause_comma_ms, p.pause_comma_ms * p.pause_sd_frac, 0.0
            )
        if previous in ".!?":
            extra += self._normal(
                p.pause_sentence_ms, p.pause_sentence_ms * p.pause_sd_frac, 0.0
            )
        if current.isupper() and previous in ".!? ":
            extra += self._normal(
                p.pause_open_sentence_ms, p.pause_open_sentence_ms * p.pause_sd_frac, 0.0
            )
        return extra

    def plan(self, text: str) -> List[KeyEvent]:
        p = self.params
        events: List[KeyEvent] = []
        previous: Optional[str] = None
        for char in text:
            flight = 0.0
            if previous is not None:
                flight = self._normal(p.flight_mean_ms, p.flight_sd_ms, 12.0)
                flight += self._contextual_pause(previous, char)
            dwell = self._normal(p.dwell_mean_ms, p.dwell_sd_ms, 15.0)
            modifier = self.layout.modifier_for(char)
            if modifier is not PLAIN:
                modifier_key = "Shift" if modifier is SHIFT else "AltGraph"
                lead = self._normal(p.shift_lead_mean_ms, p.shift_lead_mean_ms * 0.3, 8.0)
                lag = self._normal(p.shift_lag_mean_ms, p.shift_lag_mean_ms * 0.3, 5.0)
                events.append((max(flight - lead, 4.0), "down", modifier_key))
                events.append((lead, "down", char))
                events.append((dwell, "up", char))
                events.append((lag, "up", modifier_key))
            else:
                events.append((flight, "down", char))
                events.append((dwell, "up", char))
            previous = char
        return events


class ScalarLognormalTypingRhythm(ScalarTypingRhythm):
    """Scalar plan loop with the lognormal counter-refinement's draws."""

    _normal = LognormalTypingRhythm._normal


class ScalarHumanScrolling(HumanScrolling):
    """:class:`HumanScrolling` with a per-frame scrollbar-drag loop."""

    def plan_scrollbar_drag(
        self,
        distance_px: float,
        current_scroll_y: float = 0.0,
    ) -> List[Tuple[float, float]]:
        if distance_px == 0:
            return []
        duration_ms = float(
            max(500.0, 300.0 + abs(distance_px) * 0.38)
            * np.exp(self.rng.normal(0.0, 0.15))
        )
        n = max(4, int(round(duration_ms / self.DRAG_FRAME_MS)))
        s = minimum_jerk_profile(n)
        tremor = self.rng.normal(0.0, abs(distance_px) * 0.004, size=n)
        tremor[0] = tremor[-1] = 0.0
        plan: List[Tuple[float, float]] = []
        for i in range(1, n):
            target = current_scroll_y + distance_px * s[i] + tremor[i]
            plan.append((self.DRAG_FRAME_MS, float(target)))
        return plan
