"""Study calendar: the four-year weekly snapshot timeline.

The paper collected the Alexa Top 1M landing pages every week from March
2018 to February 2022 — 207 scheduled snapshots of which 6 were pruned for
network problems, leaving 201 usable weeks.  :class:`StudyCalendar` models
that schedule: a start date, a fixed number of scheduled weeks, and a set
of pruned snapshot indices.

All dates are :class:`datetime.date` values; weeks are referenced by their
zero-based *snapshot index* into the scheduled sequence.
"""

from __future__ import annotations

import dataclasses
import datetime
from typing import Iterator, List, Optional, Sequence, Tuple

from .errors import ConfigError

#: First scheduled snapshot in the paper's collection (first Monday of
#: March 2018).
DEFAULT_START = datetime.date(2018, 3, 5)

#: Scheduled weekly snapshots in the paper (Mar 2018 – Feb 2022).
DEFAULT_SCHEDULED_WEEKS = 207

#: Snapshot indices pruned by the paper because of collection problems.
#: The paper does not identify which six weeks were dropped, so we pick a
#: fixed, documented set spread across the four years.
DEFAULT_PRUNED_WEEKS = (31, 66, 104, 141, 170, 198)


@dataclasses.dataclass(frozen=True)
class Week:
    """One usable weekly snapshot.

    Attributes:
        index: Zero-based index into the *scheduled* snapshot sequence.
        ordinal: Zero-based position among the *kept* (non-pruned) weeks.
        date: The calendar date the snapshot was taken.
    """

    index: int
    ordinal: int
    date: datetime.date

    @property
    def year(self) -> int:
        return self.date.year

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"week[{self.index}]@{self.date.isoformat()}"


class StudyCalendar:
    """The weekly collection schedule of the measurement study.

    Args:
        start: Date of the first scheduled snapshot.
        scheduled_weeks: Total number of scheduled weekly snapshots.
        pruned: Indices of scheduled snapshots discarded from the dataset.

    Raises:
        ConfigError: If the schedule parameters are inconsistent.
    """

    def __init__(
        self,
        start: datetime.date = DEFAULT_START,
        scheduled_weeks: int = DEFAULT_SCHEDULED_WEEKS,
        pruned: Sequence[int] = DEFAULT_PRUNED_WEEKS,
    ) -> None:
        if scheduled_weeks <= 0:
            raise ConfigError("scheduled_weeks must be positive")
        pruned_set = set(pruned)
        for index in pruned_set:
            if not 0 <= index < scheduled_weeks:
                raise ConfigError(
                    f"pruned week index {index} outside schedule of "
                    f"{scheduled_weeks} weeks"
                )
        if len(pruned_set) >= scheduled_weeks:
            raise ConfigError("cannot prune every scheduled week")
        self.start = start
        self.scheduled_weeks = scheduled_weeks
        self.pruned = frozenset(pruned_set)
        self._weeks: List[Week] = []
        ordinal = 0
        for index in range(scheduled_weeks):
            if index in self.pruned:
                continue
            date = start + datetime.timedelta(weeks=index)
            self._weeks.append(Week(index=index, ordinal=ordinal, date=date))
            ordinal += 1

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def weeks(self) -> Tuple[Week, ...]:
        """All kept weeks in chronological order."""
        return tuple(self._weeks)

    def __len__(self) -> int:
        return len(self._weeks)

    def describe(self) -> str:
        """The schedule's identity — start, scheduled weeks and pruned
        indices — as :func:`~repro.canonical.to_canonical_dict` encodes
        the calendar inside a config digest."""
        pruned = ",".join(str(index) for index in sorted(self.pruned))
        return f"{self.start.isoformat()}+{self.scheduled_weeks}w-[{pruned}]"

    def __iter__(self) -> Iterator[Week]:
        return iter(self._weeks)

    @property
    def first(self) -> Week:
        return self._weeks[0]

    @property
    def last(self) -> Week:
        return self._weeks[-1]

    @property
    def end_date(self) -> datetime.date:
        """Date of the final kept snapshot."""
        return self.last.date

    def date_of(self, index: int) -> datetime.date:
        """Date of a *scheduled* snapshot index (pruned or not)."""
        if not 0 <= index < self.scheduled_weeks:
            raise ConfigError(f"week index {index} outside schedule")
        return self.start + datetime.timedelta(weeks=index)

    def week_at(self, ordinal: int) -> Week:
        """The kept week at the given ordinal position."""
        return self._weeks[ordinal]

    # ------------------------------------------------------------------
    # Date <-> week mapping
    # ------------------------------------------------------------------
    def index_for_date(self, date: datetime.date) -> int:
        """Scheduled index of the snapshot covering ``date``.

        Dates before the schedule map to index 0; dates past the end map to
        the final scheduled index.  The snapshot *covering* a date is the
        most recent snapshot at or before it.
        """
        delta_days = (date - self.start).days
        index = delta_days // 7
        return max(0, min(self.scheduled_weeks - 1, index))

    def week_for_date(self, date: datetime.date) -> Week:
        """The kept week whose snapshot date is closest at-or-before ``date``.

        If the covering scheduled week was pruned, the nearest earlier kept
        week is returned (or the first kept week for very early dates).
        """
        index = self.index_for_date(date)
        candidate: Optional[Week] = None
        for week in self._weeks:
            if week.index <= index:
                candidate = week
            else:
                break
        return candidate if candidate is not None else self._weeks[0]

    def contains(self, date: datetime.date) -> bool:
        """Whether ``date`` falls inside the collection period."""
        return self.start <= date <= self.end_date

    # ------------------------------------------------------------------
    # Windows and spans
    # ------------------------------------------------------------------
    def weeks_between(
        self,
        start: Optional[datetime.date] = None,
        end: Optional[datetime.date] = None,
    ) -> Tuple[Week, ...]:
        """Kept weeks with ``start <= week.date <= end`` (inclusive)."""
        lo = start or self.start
        hi = end or self.end_date
        return tuple(w for w in self._weeks if lo <= w.date <= hi)

    def last_month(self) -> Tuple[Week, ...]:
        """The final four kept weeks — the paper's accessibility window.

        The paper removes domains that were unreachable for the four
        consecutive weeks in the last month of the collection period.
        """
        return tuple(self._weeks[-4:])

    def days_elapsed(self, week: Week, since: datetime.date) -> int:
        """Days between a reference date and a snapshot (may be negative)."""
        return (week.date - since).days


def default_calendar() -> StudyCalendar:
    """The paper's calendar: 207 scheduled weeks, 6 pruned, 201 kept."""
    return StudyCalendar()
