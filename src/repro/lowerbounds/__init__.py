"""Lower bounds for constrained DTW.

These cheap bounds never exceed the true cDTW distance, so a 1-NN
search can discard most candidates without running the O(n*w) dynamic
program at all.  The paper's Section 3.4 leans on exactly this: lower
bounding (plus early abandoning) applies *only* to exact cDTW -- not to
FastDTW -- and buys "a further two to five orders of magnitude".
"""

from .cascade import BatchNearest, CascadeBatch, CascadeScan, CascadeStats
from .envelope import Envelope, envelope
from .lb_improved import clip_to_envelope, lb_improved
from .lb_keogh import lb_keogh, lb_keogh_reversed
from .lb_kim import lb_kim
from .nd import (
    envelopes_nd,
    lb_improved_nd,
    lb_keogh_nd,
    lb_keogh_reversed_nd,
    lb_kim_nd,
)

__all__ = [
    "BatchNearest",
    "CascadeBatch",
    "CascadeScan",
    "CascadeStats",
    "Envelope",
    "clip_to_envelope",
    "envelope",
    "envelopes_nd",
    "lb_improved",
    "lb_improved_nd",
    "lb_keogh",
    "lb_keogh_nd",
    "lb_keogh_reversed",
    "lb_keogh_reversed_nd",
    "lb_kim",
    "lb_kim_nd",
]
