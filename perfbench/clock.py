"""Wall time corrected for the speed of the machine at the moment.

On a shared virtual machine the same Python computation can run up to
1.8x slower in spells lasting from a fraction of a second to minutes;
process CPU time slows down with it.  Measured over 30 s chunks of a
4-minute run, the median latency of one rewriting job varied by 14 %
(quartile spread over median), while its median ratio to this rewriting
closure (grown to 6000 words) run right next to it varied by 1.2 %.

So a frozen rewriting closure, the calibration, is timed between jobs,
at least every CAL_EVERY_S, and each timed interval is scaled by
CAL_NOMINAL_S over the mean of the calibrations just before and just
after it.  The result is in nominal seconds: seconds on a machine where
the calibration takes CAL_NOMINAL_S.  The calibration uses none of
dimeralg, so no change to the library moves it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from time import perf_counter

# faces of fig_nested(2), as arrow ids; each arrow lies on two faces and
# may be replaced by the rest of either face, as in dimeralg's rewriting
FACES = (
    (12, 4, 9), (13, 5, 11), (14, 6, 8), (15, 7, 10), (0, 12, 8), (1, 13, 9),
    (3, 14, 10), (2, 15, 11), (24, 16, 21), (25, 17, 23), (26, 18, 20),
    (27, 19, 22), (4, 24, 20), (5, 25, 21), (6, 26, 22), (7, 27, 23),
    (16, 17, 19, 18), (1, 0, 3, 2),
)
START = (2, 1, 13, 5, 11, 14, 10, 15, 7, 6, 8, 0, 15, 11)
CAL_STATES = 1500
CAL_MAX_LENGTH = 18
CAL_NOMINAL_S = 0.010  # the calibration's time on a 2.0 GHz Xeon guest, fast spells
CAL_EVERY_S = 0.25


def _arcs():
    arcs: dict[int, list] = {}
    for face in FACES:
        for k, aid in enumerate(face):
            arcs.setdefault(aid, []).append(face[k + 1:] + face[:k])
    rules: dict[tuple, list] = {}
    for left, right in arcs.values():
        rules.setdefault(left, []).append(right)
        rules.setdefault(right, []).append(left)
    return rules


RULES = _arcs()
ARC_LENGTHS = sorted({len(arc) for arc in RULES})


def calibration_s() -> float:
    """Time of a breadth-first rewriting closure of START, CAL_STATES words."""
    start = perf_counter()
    seen = {START}
    frontier = [START]
    while frontier and len(seen) < CAL_STATES:
        grown = []
        for word in frontier:
            for length in ARC_LENGTHS:
                for pos in range(len(word) - length + 1):
                    for repl in RULES.get(word[pos:pos + length], ()):
                        new = word[:pos] + repl + word[pos + length:]
                        if len(new) <= CAL_MAX_LENGTH and new not in seen:
                            seen.add(new)
                            grown.append(new)
        frontier = grown
    return perf_counter() - start


class Timeline:
    """Timed intervals with calibrations interleaved between them."""

    def __init__(self):
        self.cal_at: list[float] = []
        self.cal_s: list[float] = []
        self.spans: list[tuple[float, float]] = []

    def calibrate(self, force: bool = False) -> None:
        now = perf_counter()
        if force or not self.cal_at or now - self.cal_at[-1] >= CAL_EVERY_S:
            self.cal_at.append(now)
            self.cal_s.append(calibration_s())

    def start(self) -> float:
        self.calibrate()
        return perf_counter()

    def stop(self, start: float) -> None:
        self.spans.append((start, perf_counter()))

    def raw(self) -> list[float]:
        return [end - start for start, end in self.spans]

    def nominal(self) -> list[float]:
        """Every span in nominal seconds; call after a closing calibrate(force=True)."""
        out = []
        for start, end in self.spans:
            before = self.cal_s[bisect_right(self.cal_at, start) - 1]
            after = self.cal_s[min(bisect_left(self.cal_at, end), len(self.cal_s) - 1)]
            out.append((end - start) * CAL_NOMINAL_S / ((before + after) / 2))
        return out
