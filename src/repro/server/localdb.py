"""The client-side location database (Fig. 1, "Loc. DB").

Each user "locally maintains [a] location database (e.g., all locations in
the past two weeks)".  :class:`LocalLocationDB` is that store: a rolling
window of (time, cell) observations in a plain dict, with automatic
pruning.  The window holds true locations, so it stays on the client: the
collector's :class:`~repro.store.TraceStore` never sees it.
"""

from __future__ import annotations

from repro.errors import DataError
from repro.utils.validation import check_integer

__all__ = ["LocalLocationDB"]


class LocalLocationDB:
    """Rolling-window store of one user's true locations.

    Parameters
    ----------
    window:
        Retention horizon in timesteps (the paper's two weeks).  Entries
        older than ``newest_time - window + 1`` are pruned on insert.
    """

    def __init__(self, window: int = 14 * 24) -> None:
        self.window = check_integer("window", window, minimum=1)
        self._entries: dict[int, int] = {}

    def record(self, time: int, cell: int) -> None:
        """Store the user's location at ``time``, pruning expired entries.

        Re-recording a time overwrites (GPS fix refinement); times may arrive
        out of order as long as they are within the current window.
        """
        time = int(time)
        newest = max(self._entries) if self._entries else time
        horizon = max(newest, time) - self.window + 1
        if time < horizon:
            raise DataError(
                f"time {time} is outside the {self.window}-step retention window"
            )
        self._entries[time] = int(cell)
        self._prune(max(newest, time))

    def _prune(self, now: int) -> None:
        horizon = now - self.window + 1
        expired = [t for t in self._entries if t < horizon]
        for t in expired:
            del self._entries[t]

    # ------------------------------------------------------------------
    def location_at(self, time: int) -> int | None:
        return self._entries.get(int(time))

    def history(self, start: int | None = None, end: int | None = None) -> list[tuple[int, int]]:
        """Time-ordered ``(time, cell)`` pairs within ``[start, end]``."""
        return [
            (t, c)
            for t, c in sorted(self._entries.items())
            if (start is None or t >= start) and (end is None or t <= end)
        ]

    def times(self) -> list[int]:
        return sorted(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, time: int) -> bool:
        return int(time) in self._entries

    def __repr__(self) -> str:
        span = f"[{min(self._entries)}..{max(self._entries)}]" if self._entries else "[]"
        return f"LocalLocationDB(window={self.window}, entries={len(self._entries)}, span={span})"
