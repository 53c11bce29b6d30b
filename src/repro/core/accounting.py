"""Privacy-budget accounting for repeated location releases.

PANDA's clients release a perturbed location every timestep and may *re-send*
their recent history under an updated policy during contact tracing.  Each
noisy release costs its mechanism's epsilon; exact (policy-permitted)
disclosures cost nothing.  :class:`BudgetLedger` records every expenditure
per user and enforces sequential composition against an optional cap, which
is how the experiments report the total privacy cost of the tracing protocol.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import repeat
from typing import Iterator

import numpy as np

from repro.errors import BudgetError, ValidationError
from repro.utils.validation import check_non_negative

__all__ = ["BudgetEntry", "BudgetLedger"]


@dataclass(frozen=True)
class BudgetEntry:
    """One recorded expenditure: ``user`` spent ``epsilon`` at time ``t``."""

    user: int
    time: int
    epsilon: float
    purpose: str = ""


class BudgetLedger:
    """Sequential-composition ledger of per-user epsilon expenditure.

    Parameters
    ----------
    cap:
        Optional per-user lifetime budget.  :meth:`charge` raises
        :class:`~repro.errors.BudgetError` when an expenditure would exceed
        it, *before* recording the entry.
    record_entries:
        When ``False`` the ledger keeps only the per-user running totals
        and skips the per-charge entry log — the population-scale setting
        (a 10M-row ingest would otherwise retain ~10M entries).  Cap
        enforcement and every total (:meth:`spent`, :meth:`total_spent`)
        are unaffected; :attr:`entries` / :meth:`spent_in_window` /
        :meth:`by_purpose` cover only recorded entries.  Store-backed runs
        lose nothing: the ``releases`` table *is* the durable per-charge
        log.  When on, :meth:`charge` logs one :class:`BudgetEntry` and
        :meth:`charge_many` one block of columns; :attr:`entries` builds
        the entry objects only when it is read.
    """

    def __init__(self, cap: float | None = None, record_entries: bool = True) -> None:
        if cap is not None:
            check_non_negative("cap", cap)
        self.cap = cap
        self.record_entries = bool(record_entries)
        #: Recorded charges in order: a BudgetEntry per charge, a
        #: ``(users, times, epsilons, purpose)`` column block per charge_many.
        self._log: list = []
        self._n_entries = 0
        self._spent: dict[int, float] = defaultdict(float)

    # ------------------------------------------------------------------
    def charge(self, user: int, time: int, epsilon: float, purpose: str = "") -> BudgetEntry:
        """Record an expenditure; zero-cost entries (exact disclosures) allowed."""
        check_non_negative("epsilon", epsilon)
        if self.cap is not None and self._spent[user] + epsilon > self.cap + 1e-12:
            raise BudgetError(
                f"user {user} would spend {self._spent[user] + epsilon:.4g} "
                f"exceeding cap {self.cap:.4g}"
            )
        entry = BudgetEntry(user=int(user), time=int(time), epsilon=float(epsilon), purpose=purpose)
        if self.record_entries:
            self._log.append(entry)
            self._n_entries += 1
        self._spent[entry.user] += entry.epsilon
        return entry

    def charge_many(self, users, times, epsilons, purpose: str = "") -> int:
        """Bulk :meth:`charge` over parallel arrays; returns the row count.

        Semantically ``for u, t, e in zip(...): self.charge(u, t, e,
        purpose)`` — same validation, same sequential cap enforcement, same
        entries — folded as arrays.  Per-user totals go through one
        ``np.add.at`` that starts from each user's existing total; it is
        unbuffered and applies the adds in row order, so each user's float
        adds run in the scalar loop's sequence and the totals are
        bit-identical.  Recorded entries are kept as one column block.

        A row whose epsilon is non-finite or negative, or a cap that some
        user's final total would exceed, sends the rows through the scalar
        loop instead: it raises at exactly the offending row, with every
        earlier row charged.  Totals never decrease, so a final total
        within the cap bounds every running total before it.
        """
        users = np.array(users, dtype=np.int64)
        times = np.array(times, dtype=np.int64)
        epsilons = np.array(epsilons, dtype=float)
        if users.ndim != 1 or not users.shape == times.shape == epsilons.shape:
            raise ValidationError(
                "charge_many needs flat arrays of one length, got shapes "
                f"{users.shape}, {times.shape} and {epsilons.shape}"
            )
        keys, slots = np.unique(users, return_inverse=True)
        keys = keys.tolist()
        totals = np.array([self._spent.get(key, 0.0) for key in keys], dtype=float)
        valid = bool((np.isfinite(epsilons) & (epsilons >= 0)).all())
        if valid:
            np.add.at(totals, slots, epsilons)
        if not valid or (self.cap is not None and (totals > self.cap + 1e-12).any()):
            for user, time, epsilon in zip(users.tolist(), times.tolist(), epsilons.tolist()):
                self.charge(user, time, epsilon, purpose)
            return len(users)
        self._spent.update(zip(keys, totals.tolist()))
        if self.record_entries and len(users):
            self._log.append((users, times, epsilons, purpose))
            self._n_entries += len(users)
        return len(users)

    def spent(self, user: int) -> float:
        """Total epsilon spent by ``user`` (sequential composition)."""
        return self._spent.get(int(user), 0.0)

    def remaining(self, user: int) -> float:
        """Budget left for ``user``; infinite when no cap is set."""
        if self.cap is None:
            return float("inf")
        return max(self.cap - self.spent(user), 0.0)

    def spent_in_window(self, user: int, start: int, end: int) -> float:
        """Epsilon spent by ``user`` with ``start <= time <= end``."""
        user = int(user)
        return sum(
            epsilon
            for row_user, time, epsilon, _ in self._rows()
            if row_user == user and start <= time <= end
        )

    # ------------------------------------------------------------------
    def _rows(self) -> Iterator[tuple[int, int, float, str]]:
        """``(user, time, epsilon, purpose)`` of every recorded charge, in order."""
        for item in self._log:
            if isinstance(item, BudgetEntry):
                yield item.user, item.time, item.epsilon, item.purpose
            else:
                users, times, epsilons, purpose = item
                yield from zip(users.tolist(), times.tolist(), epsilons.tolist(), repeat(purpose))

    @property
    def entries(self) -> tuple[BudgetEntry, ...]:
        return tuple(
            BudgetEntry(user=user, time=time, epsilon=epsilon, purpose=purpose)
            for user, time, epsilon, purpose in self._rows()
        )

    def users(self) -> frozenset[int]:
        return frozenset(self._spent)

    def total_spent(self) -> float:
        """Epsilon summed over all users (system-wide cost metric)."""
        return sum(self._spent.values())

    def by_purpose(self) -> dict[str, float]:
        """Total epsilon grouped by the ``purpose`` tag of each entry."""
        totals: dict[str, float] = defaultdict(float)
        for _, _, epsilon, purpose in self._rows():
            totals[purpose] += epsilon
        return dict(totals)

    def __len__(self) -> int:
        return self._n_entries

    def __repr__(self) -> str:
        return (
            f"BudgetLedger(entries={len(self)}, users={len(self._spent)}, "
            f"cap={self.cap})"
        )
