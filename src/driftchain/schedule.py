"""The step-indexed chain schedule for nonautonomous evolution.

Forward evolution from the crash date needs the matrix *governing each
step*: the seasonal chain picked by the calendar date at which the step
starts.  A time-homogeneous model is the same chain in every season.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date

from .absorb import AugmentedChain
from .csr import Csr
from .grid import StateRoles
from .ingest import DEFAULT_EPOCH, Season, season_of_day


@dataclass(frozen=True)
class SeasonalSchedule:
    """Seasonal chains selected by the calendar date each step starts on.

    Step k covers days [kT, (k+1)T) after ``start_date``; the season of
    its first day picks the matrix.  All three chains must agree on state
    layout, roles, and transition time.
    """

    chains: dict[Season, AugmentedChain]
    start_date: date = DEFAULT_EPOCH

    def __post_init__(self):
        missing = [s for s in Season if s not in self.chains]
        if missing:
            raise ValueError(f"schedule lacks chains for seasons {missing}")
        ref = self.chains[Season.W]
        for season, chain in self.chains.items():
            if chain.matrix.shape != ref.matrix.shape:
                raise ValueError("seasonal chains must share the state layout")
            if chain.transition_time != ref.transition_time:
                raise ValueError("seasonal chains must share the transition time")
            if chain.roles != ref.roles:
                raise ValueError("seasonal chains must share the state roles")

    @property
    def chain(self) -> AugmentedChain:
        """The W chain; every chain shares its layout, roles and transition time."""
        return self.chains[Season.W]

    @property
    def transition_time(self) -> float:
        return self.chain.transition_time

    @property
    def n_states(self) -> int:
        return self.chain.n_states

    @property
    def n_grid_states(self) -> int:
        return self.chain.n_grid_states

    @property
    def n_targets(self) -> int:
        return self.chain.n_targets

    @property
    def cemetery(self) -> int:
        return self.chain.cemetery

    @property
    def roles(self) -> StateRoles:
        return self.chain.roles

    def target_state(self, label: int) -> int:
        return self.chain.target_state(label)

    def season_of_step(self, k: int) -> Season:
        if k < 0:
            raise ValueError("step index must be nonnegative")
        return season_of_day(k * self.transition_time, self.start_date)

    def matrix_for_step(self, k: int) -> Csr:
        return self.chains[self.season_of_step(k)].matrix

    def season_label(self, k: int) -> str:
        return self.chains[self.season_of_step(k)].label
