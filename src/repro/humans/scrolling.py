"""Human mouse-wheel scrolling.

Appendix E: the subject scrolled a 30,000 px page "via the mouse wheel
from top to bottom at a comfortable pace".  The signature (Section 4.1):

- one wheel tick scrolls a fixed distance (57 px in the paper's setup);
- consecutive ticks are separated by short, normally-distributed pauses;
- every few ticks the finger returns to the top of the wheel, causing a
  noticeably longer break.

Wheel plans are drawn one tick at a time (batching the tick pauses
measured 0.86-1.43x and was dropped); the scrollbar drag is generated
array-at-once against its scalar reference.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.humans.profile import HumanProfile

ScrollTick = Tuple[float, float]  # (dt since previous tick ms, delta_y px)


class HumanScrolling:
    """Generates wheel-tick plans covering a scroll distance."""

    def __init__(self, profile: Optional[HumanProfile] = None, rng: Optional[np.random.Generator] = None) -> None:
        self.profile = profile or HumanProfile()
        self.rng = rng if rng is not None else self.profile.rng()

    def plan(self, distance_px: float) -> List[ScrollTick]:
        """Wheel ticks that cover ``distance_px`` (sign = direction).

        The last tick may overshoot the distance by part of a tick, as a
        real wheel would.
        """
        profile = self.profile
        if distance_px == 0:
            return []
        direction = 1.0 if distance_px > 0 else -1.0
        delta = direction * profile.wheel_tick_px
        pauses: List[float] = []
        remaining = abs(distance_px)
        sweep = self._sweep_length()
        in_sweep = 0
        while remaining > 0:
            if not pauses:
                pause = 0.0
            elif in_sweep == sweep:
                pause = self._finger_pause()
                sweep = self._sweep_length()
                in_sweep = 0
            else:
                pause = self._tick_pause()
            pauses.append(pause)
            in_sweep += 1
            remaining -= profile.wheel_tick_px
        return [(pause, delta) for pause in pauses]

    def _tick_pause(self) -> float:
        value = self.rng.normal(
            self.profile.scroll_tick_pause_mean_ms, self.profile.scroll_tick_pause_sd_ms
        )
        return float(max(value, 15.0))

    def _finger_pause(self) -> float:
        """The longer break while the finger moves back on the wheel."""
        value = self.rng.normal(
            self.profile.scroll_finger_pause_mean_ms,
            self.profile.scroll_finger_pause_sd_ms,
        )
        return float(max(value, 120.0))

    def _sweep_length(self) -> int:
        mean = self.profile.scroll_ticks_per_sweep_mean
        return int(max(2, round(self.rng.normal(mean, mean * 0.3))))

    # -- scrollbar dragging -----------------------------------------------------

    #: Frame interval while dragging the scrollbar thumb (display rate).
    DRAG_FRAME_MS = 16.0

    def plan_scrollbar_drag(
        self,
        distance_px: float,
        current_scroll_y: float = 0.0,
    ) -> List[Tuple[float, float]]:
        """A scrollbar drag: ``[(dt_ms, absolute_scroll_y), ...]``.

        Appendix D lists the scroll bar among the wheel-less scroll
        origins.  The thumb is browser chrome: the page sees *only* the
        resulting ``scroll`` events -- continuous, frame-paced, with a
        human reach profile (minimum-jerk plus hand tremor), nothing
        like wheel ticks.
        """
        from repro.humans.pointing import minimum_jerk_profile

        if distance_px == 0:
            return []
        # Drag duration grows sub-linearly with distance (it is one hand
        # movement, not repeated ticks).
        duration_ms = float(
            max(500.0, 300.0 + abs(distance_px) * 0.38)
            * np.exp(self.rng.normal(0.0, 0.15))
        )
        n = max(4, int(round(duration_ms / self.DRAG_FRAME_MS)))
        s = minimum_jerk_profile(n)
        tremor = self.rng.normal(0.0, abs(distance_px) * 0.004, size=n)
        tremor[0] = tremor[-1] = 0.0
        targets = current_scroll_y + distance_px * s + tremor
        return [(self.DRAG_FRAME_MS, target) for target in targets.tolist()[1:]]
