"""Adobe Flash usage model (Section 8).

Flash usage decays over the four years: steady abandonment, a step at
the official end of life (Dec 31 2020), and a persistent cohort that
never leaves (the paper traces it to the 360-browser / flash.cn
ecosystem, four of its thirteen top-10K cases being Chinese-operated).

Per site the model yields a usage interval plus embed attributes:
``AllowScriptAccess`` configuration (the insecure ``always`` share grows
from ~21% to ~30% of Flash sites, Figure 11), embed visibility (about
half of the top-10K survivors render nothing visible), and whether the
movie is served cross-origin.
"""

from __future__ import annotations

import dataclasses
import datetime
from typing import Optional, Sequence, Tuple

import numpy as np

from ..config import FlashConfig
from ..timeline import StudyCalendar
from ..vulndb.flash_data import FLASH_END_OF_LIFE


@dataclasses.dataclass(frozen=True)
class FlashAssignment:
    """Flash behaviour of one site over the study.

    Attributes:
        uses_flash: Site embeds Flash at the first snapshot.
        drop_week: Kept-week ordinal at which the site removes Flash
            (None = keeps it through the end).
        access_draw: Uniform draw deciding the site's AllowScriptAccess
            group against the time-varying shares.
        specifies_access: Whether the parameter is written at all.
        never_option: Site uses the (safe) ``never`` option.
        visible: The movie is visually rendered.
        external_swf: The ``.swf`` is served from another origin.
    """

    uses_flash: bool
    drop_week: Optional[int]
    access_draw: float
    specifies_access: bool
    never_option: bool
    visible: bool
    external_swf: bool

    def active_at(self, ordinal: int) -> bool:
        if not self.uses_flash:
            return False
        return self.drop_week is None or ordinal < self.drop_week


class FlashModel:
    """Samples per-site Flash behaviour."""

    def __init__(self, config: FlashConfig, calendar: StudyCalendar) -> None:
        self.config = config
        self.calendar = calendar
        self._eol_ordinal = self._ordinal_of(FLASH_END_OF_LIFE)

    def _ordinal_of(self, date: datetime.date) -> int:
        return self.calendar.week_for_date(date).ordinal

    def always_share_at(self, ordinal: int) -> float:
        """Insecure ``always`` share of Flash sites at a week ordinal."""
        total = max(1, len(self.calendar) - 1)
        frac = ordinal / total
        cfg = self.config
        return cfg.always_share_start + frac * (
            cfg.always_share_end - cfg.always_share_start
        )

    def assign(
        self, rng: np.random.Generator, rank_percentile: float
    ) -> FlashAssignment:
        """Sample one site's Flash behaviour.

        Args:
            rng: Per-site generator.
            rank_percentile: rank / population, 0 = most popular.  Flash
                is rarer among top sites (Figure 8's tiers).
        """
        cfg = self.config
        usage_p = cfg.initial_share * (0.30 + 1.40 * rank_percentile)
        if rng.random() >= usage_p:
            return FlashAssignment(
                uses_flash=False,
                drop_week=None,
                access_draw=1.0,
                specifies_access=False,
                never_option=False,
                visible=True,
                external_swf=False,
            )

        drop_week: Optional[int] = None
        if rng.random() >= cfg.persistent_share:
            total = len(self.calendar)
            # Weekly abandonment hazard, with an extra mass at EOL.
            ordinal = int(rng.geometric(cfg.weekly_abandon_hazard))
            if ordinal >= self._eol_ordinal:
                if rng.random() < cfg.eol_abandon_probability:
                    ordinal = self._eol_ordinal + int(rng.integers(0, 5))
            if ordinal < total:
                drop_week = ordinal

        access_draw = float(rng.random())
        specifies = bool(rng.random() < 0.55)
        never = specifies and bool(rng.random() < 0.06)
        return FlashAssignment(
            uses_flash=True,
            drop_week=drop_week,
            access_draw=access_draw,
            specifies_access=specifies,
            never_option=never,
            visible=bool(rng.random() < 0.55),
            external_swf=bool(rng.random() < 0.20),
        )

    def script_access_at(
        self, assignment: FlashAssignment, ordinal: int
    ) -> Tuple[Optional[str], bool]:
        """The (value, specified) AllowScriptAccess state at a week.

        The ``always`` share ramps up over time: a site whose draw falls
        under the current share writes ``always``; otherwise it writes
        ``sameDomain``/``never`` if it specifies the parameter at all.
        """
        if not assignment.uses_flash:
            return None, False
        if assignment.access_draw < self.always_share_at(ordinal):
            return "always", True
        if not assignment.specifies_access:
            return None, False
        if assignment.never_option:
            return "never", True
        return "sameDomain", True
