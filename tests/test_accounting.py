"""Unit tests for the privacy-budget ledger."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.accounting import BudgetLedger
from repro.errors import BudgetError, ValidationError


class TestCharging:
    def test_accumulates(self):
        ledger = BudgetLedger()
        ledger.charge(1, 0, 0.5)
        ledger.charge(1, 1, 0.25)
        assert ledger.spent(1) == pytest.approx(0.75)

    def test_users_separate(self):
        ledger = BudgetLedger()
        ledger.charge(1, 0, 0.5)
        ledger.charge(2, 0, 1.5)
        assert ledger.spent(1) == 0.5
        assert ledger.spent(2) == 1.5

    def test_zero_cost_disclosure(self):
        ledger = BudgetLedger()
        ledger.charge(1, 0, 0.0, purpose="exact-disclosure")
        assert ledger.spent(1) == 0.0
        assert len(ledger) == 1

    def test_negative_rejected(self):
        ledger = BudgetLedger()
        with pytest.raises(ValidationError):
            ledger.charge(1, 0, -0.1)

    def test_unknown_user_spends_zero(self):
        assert BudgetLedger().spent(99) == 0.0


class TestCap:
    def test_cap_enforced(self):
        ledger = BudgetLedger(cap=1.0)
        ledger.charge(1, 0, 0.6)
        with pytest.raises(BudgetError):
            ledger.charge(1, 1, 0.5)
        # Failed charge must not have been recorded.
        assert ledger.spent(1) == pytest.approx(0.6)

    def test_exact_cap_allowed(self):
        ledger = BudgetLedger(cap=1.0)
        ledger.charge(1, 0, 0.5)
        ledger.charge(1, 1, 0.5)
        assert ledger.spent(1) == pytest.approx(1.0)

    def test_remaining(self):
        ledger = BudgetLedger(cap=2.0)
        ledger.charge(1, 0, 0.5)
        assert ledger.remaining(1) == pytest.approx(1.5)
        assert ledger.remaining(2) == pytest.approx(2.0)

    def test_remaining_without_cap_infinite(self):
        assert BudgetLedger().remaining(1) == float("inf")

    def test_negative_cap_rejected(self):
        with pytest.raises(ValidationError):
            BudgetLedger(cap=-1.0)


class TestQueries:
    def test_window(self):
        ledger = BudgetLedger()
        for time in range(5):
            ledger.charge(1, time, 0.1)
        assert ledger.spent_in_window(1, 1, 3) == pytest.approx(0.3)

    def test_by_purpose(self):
        ledger = BudgetLedger()
        ledger.charge(1, 0, 0.5, purpose="stream")
        ledger.charge(1, 1, 0.5, purpose="stream")
        ledger.charge(1, 2, 1.0, purpose="tracing-resend")
        totals = ledger.by_purpose()
        assert totals["stream"] == pytest.approx(1.0)
        assert totals["tracing-resend"] == pytest.approx(1.0)

    def test_total_and_users(self):
        ledger = BudgetLedger()
        ledger.charge(1, 0, 0.5)
        ledger.charge(2, 0, 0.25)
        assert ledger.total_spent() == pytest.approx(0.75)
        assert ledger.users() == frozenset({1, 2})

    def test_entries_immutable_copy(self):
        ledger = BudgetLedger()
        ledger.charge(1, 0, 0.5)
        entries = ledger.entries
        assert len(entries) == 1
        assert entries[0].epsilon == 0.5


class TestChargeMany:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.5])
    def test_bad_epsilon_raises_at_its_row(self, bad):
        # A NaN total would disable the cap for good (nan + e > cap is false).
        ledger = BudgetLedger(cap=1.0)
        with pytest.raises(ValidationError):
            ledger.charge_many([1, 1, 2], [0, 1, 0], [0.25, bad, 0.5])
        assert ledger.spent(1) == 0.25  # rows before the bad one stay charged
        assert ledger.spent(2) == 0.0
        assert len(ledger) == 1

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValidationError):
            BudgetLedger().charge_many([1, 2], [0], [0.5, 0.5])


_ROWS = st.lists(
    st.tuples(
        st.integers(0, 4),
        st.integers(0, 20),
        st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False),
    ),
    max_size=12,
)

#: ``(op index, row index, epsilon)``: one row of one operation carries a
#: bad epsilon.
_POISON = st.none() | st.tuples(
    st.integers(0, 99), st.integers(0, 99), st.sampled_from([math.nan, math.inf, -math.inf, -0.25])
)


def _state(ledger: BudgetLedger) -> str:
    """Every observable of ``ledger``, with floats in their exact repr."""
    return repr(
        (
            len(ledger),
            ledger.entries,
            sorted((user, ledger.spent(user)) for user in ledger.users()),
            sorted(ledger.by_purpose().items()),
            [
                ledger.spent_in_window(user, start, end)
                for user in range(5)
                for start, end in ((0, 20), (3, 9), (10, 10))
            ],
        )
    )


def _charge(ledger: BudgetLedger, rows, purpose: str, as_batch: bool):
    """Charge ``rows`` in one ``charge_many`` or a ``charge`` loop; the error raised."""
    try:
        if as_batch:
            users, times, epsilons = zip(*rows) if rows else ((), (), ())
            assert ledger.charge_many(users, times, epsilons, purpose) == len(rows)
        else:
            for user, time, epsilon in rows:
                ledger.charge(user, time, epsilon, purpose)
    except (BudgetError, ValidationError) as exc:
        return type(exc)
    return None


@settings(max_examples=150, deadline=None)
@given(
    cap=st.none() | st.floats(0.5, 3.0),
    ops=st.lists(
        st.tuples(st.booleans(), _ROWS, st.sampled_from(["stream", "tracing-resend"])),
        max_size=6,
    ),
    poison=_POISON,
)
def test_charge_many_matches_scalar_charge_loop(cap, ops, poison):
    # Mixed charge / charge_many calls, so batches start from non-zero
    # totals; a crossed cap or a bad epsilon mid-batch must raise the same
    # error at the same row and leave the same state.
    if poison is not None and ops:
        op, row, bad = poison
        rows = ops[op % len(ops)][1]
        if rows:
            user, time, _ = rows[row % len(rows)]
            rows[row % len(rows)] = (user, time, bad)
    batched, reference = BudgetLedger(cap=cap), BudgetLedger(cap=cap)
    for as_batch, rows, purpose in ops:
        raised = _charge(reference, rows, purpose, as_batch=False)
        assert _charge(batched, rows, purpose, as_batch) is raised
        assert _state(batched) == _state(reference)
        if raised:
            break
