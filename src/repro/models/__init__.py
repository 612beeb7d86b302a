"""HLISA's internal interaction models.

These are the models Section 4.1 builds into HLISA, parametrised "with
values found in our experiment":

- :mod:`repro.models.bezier` -- mouse trajectories: a Bézier curve modified
  to start with acceleration and end with deceleration, overlaid with
  jitter (Fig. 1 D).  Also the *naive* plain-Bézier baseline (Fig. 1 C)
  and a straight-line helper.
- :mod:`repro.models.clicks` -- click placement from a normal distribution
  (Fig. 2 bottom-right), plus the naive uniform baseline (bottom-left).
- :mod:`repro.models.typing_rhythm` -- random dwell times from a normal
  distribution, Shift synthesis for capitals, and contextual pauses based
  on Alves et al.
- :mod:`repro.models.scroll_cadence` -- mouse-wheel scrolling with the
  default 57 px tick, normally-distributed short breaks and a longer break
  for repositioning the finger.
- :mod:`repro.models.calibration` -- fits model parameters from recorded
  (human) interaction, closing the loop of Appendix E.

Note the deliberate simplification the paper concedes in Appendix F:
HLISA uses **normal distributions** throughout, while real human timing is
not normally distributed -- the gap a refined level-2 detector could
exploit (see :mod:`repro.armsrace`).
"""

from repro.models.bezier import (
    BezierTrajectory,
    TrajectoryParams,
    hlisa_path,
    naive_bezier_path,
    straight_line_path,
)
from repro.models.clicks import ClickParams, hlisa_click_point, uniform_click_point
from repro.models.typing_rhythm import TypingParams, TypingRhythm
from repro.models.scroll_cadence import ScrollParams, ScrollCadence
from repro.models.calibration import (
    calibrate_click_params,
    calibrate_typing_params,
    calibrate_scroll_params,
)
from repro.models.scalar_reference import (
    ScalarHumanPointing,
    ScalarHumanScrolling,
    ScalarLognormalTypingRhythm,
    ScalarTypingRhythm,
    scalar_hlisa_path,
    scalar_naive_bezier_path,
)

__all__ = [
    "BezierTrajectory",
    "TrajectoryParams",
    "hlisa_path",
    "naive_bezier_path",
    "straight_line_path",
    "ClickParams",
    "hlisa_click_point",
    "uniform_click_point",
    "TypingParams",
    "TypingRhythm",
    "ScrollParams",
    "ScrollCadence",
    "calibrate_click_params",
    "calibrate_typing_params",
    "calibrate_scroll_params",
    "ScalarHumanPointing",
    "ScalarHumanScrolling",
    "ScalarLognormalTypingRhythm",
    "ScalarTypingRhythm",
    "scalar_hlisa_path",
    "scalar_naive_bezier_path",
]
