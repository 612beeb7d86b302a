"""HLISA's scrolling model (Section 4.1, "Scrolling").

Selenium offers no scrolling API; its programmatic scrolls lack wheel
events and cover arbitrary distances.  HLISA extends the API with a
function that simulates mouse-wheel scrolling:

- the default wheel tick distance (57 pixels);
- a normal distribution of short breaks between ticks;
- a slightly longer break "to account for moving one's finger to continue
  scrolling the mouse wheel".

Plans are generated one tick at a time.  Batching each sweep's tick
pauses into one array draw was measured at 0.86-1.43x and dropped; the
same-seed plans are pinned by golden digests in the tier-1 tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

ScrollTick = Tuple[float, float]  # (dt since previous tick ms, delta_y px)


@dataclass
class ScrollParams:
    """HLISA scroll parameters (defaults from the paper/experiment)."""

    #: Default mouse-wheel scroll distance (paper: 57 px).
    wheel_tick_px: float = 57.0
    #: Mean/SD of the short break between ticks (ms).
    tick_pause_mean_ms: float = 95.0
    tick_pause_sd_ms: float = 30.0
    #: Ticks per wheel sweep before the finger is repositioned.
    ticks_per_sweep_mean: float = 7.0
    #: Mean/SD of the finger-repositioning break (ms).
    finger_pause_mean_ms: float = 370.0
    finger_pause_sd_ms: float = 120.0


class ScrollCadence:
    """Generates HLISA wheel-tick plans."""

    def __init__(self, rng: np.random.Generator, params: Optional[ScrollParams] = None) -> None:
        self.rng = rng
        self.params = params or ScrollParams()

    def plan(self, distance_px: float) -> List[ScrollTick]:
        """Wheel ticks covering ``distance_px`` (sign = direction)."""
        p = self.params
        if distance_px == 0:
            return []
        direction = 1.0 if distance_px > 0 else -1.0
        delta = direction * p.wheel_tick_px
        pauses: List[float] = []
        remaining = abs(distance_px)
        sweep = self._sweep_length()
        in_sweep = 0
        # The first tick is free; a full sweep ends with the
        # finger-repositioning pause, every other tick with a short one.
        while remaining > 0:
            if not pauses:
                pause = 0.0
            elif in_sweep == sweep:
                pause = float(
                    max(self.rng.normal(p.finger_pause_mean_ms, p.finger_pause_sd_ms), 100.0)
                )
                sweep = self._sweep_length()
                in_sweep = 0
            else:
                pause = float(
                    max(self.rng.normal(p.tick_pause_mean_ms, p.tick_pause_sd_ms), 12.0)
                )
            pauses.append(pause)
            in_sweep += 1
            remaining -= p.wheel_tick_px
        return [(pause, delta) for pause in pauses]

    def _sweep_length(self) -> int:
        mean = self.params.ticks_per_sweep_mean
        return int(max(2, round(self.rng.normal(mean, mean * 0.3))))
