"""Order statistics and failure accounting used by the benchmark."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field


def median(values):
    """Median of a non-empty sequence, or None when it is empty."""
    values = list(values)
    return statistics.median(values) if values else None


#: The tail percentile is the highest one with at least this many samples beyond it.
TAIL_BEYOND = 10


def tail(values):
    """The highest percentile with at least :data:`TAIL_BEYOND` samples beyond it.

    Of n sorted samples, that is the sample at rank n - TAIL_BEYOND
    (nearest rank), the 100 * (n - TAIL_BEYOND) / n percentile. Returns
    ``(value, percentile, n)``, or None when there are not more than
    ``TAIL_BEYOND`` samples.
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = n - TAIL_BEYOND
    if rank < 1:
        return None
    return ordered[rank - 1], 100.0 * rank / n, n


@dataclass
class OpTally:
    """Attempted and failed op counts; a failed op keeps its time and is never dropped.

    ``known`` counts failures whose symptom matches a defect the
    benchmark documents as present in the program; ``unexpected`` holds
    the messages of every other failure, which make the run incorrect.
    """

    attempted: int = 0
    failed: int = 0
    known: int = 0
    unexpected: list = field(default_factory=list)

    def record(self, failure=None, known=False):
        self.attempted += 1
        if failure is None:
            return
        self.failed += 1
        if known:
            self.known += 1
        else:
            self.unexpected.append(failure)

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and not self.unexpected
