"""The frozen battery's membership, pinned.

A change to the evolution (or to the fixture's checks) that moves a
candidate in or out of the battery fails here, so it is recorded rather
than silent.
"""

from collections import Counter

from drphase.criteria import SUBCRITICAL, SUPERCRITICAL, UNDETERMINED

DRAWS = [8, 12, 39, 47, 52, 55, 57, 63, 78, 80, 91, 107, 108, 110, 119, 134,
         141, 142, 146, 149]


def test_battery_membership_is_pinned(battery):
    # the last member is draw 149, so the build made 150 attempts
    assert [entry.draw for entry in battery] == DRAWS
    verdicts = Counter(entry.verdict.verdict for entry in battery)
    assert verdicts == {SUPERCRITICAL: 12, SUBCRITICAL: 5, UNDETERMINED: 3}
