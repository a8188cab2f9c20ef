"""The benchmark suite's timing helpers, driven by stub sides (no clock)."""

from benchmarks.common import alternating, spread


def test_alternating_starts_round_i_at_side_i_mod_n():
    order = []

    def side(position):
        calls = []

        def call():
            order.append(position)
            calls.append(position)
            return f"{position}:{len(calls)}"

        return call

    results = alternating(4, side(0), side(1), side(2))

    assert order == [0, 1, 2, 1, 2, 0, 2, 0, 1, 0, 1, 2]
    firsts = order[::3]
    for position in range(3):
        assert [i for i, first in enumerate(firsts) if first == position] == [
            i for i in range(4) if i % 3 == position
        ]
    # what each side returned, one list per side, in round order
    assert results == [
        [f"{position}:{n}" for n in range(1, 5)] for position in range(3)
    ]


def test_spread_reads_median_min_max_and_count():
    assert spread([5.0, 0.1234, 2.5]) == "2.5 [0.123, 5] over 3"
    assert spread([4.0, 1.0, 3.0, 2.0]) == "2.5 [1, 4] over 4"
