import pytest

from commitbench import speed
from commitbench.speed import NEAR_PROBES, NOMINAL_NS, SpeedProbe


def _probe(points):
    probe = SpeedProbe()
    probe.stamps = [stamp for stamp, _ in points]
    probe.kernel_ns = [ns for _, ns in points]
    return probe


def test_kernel_is_fixed_work():
    assert speed.kernel() == speed.kernel()
    assert speed.time_kernel() > 0


def test_kernel_around_averages_the_medians_of_both_sides():
    assert NEAR_PROBES == 3
    # Before 100: 10, 11, 90 -> 11; after 200: 40, 41, 99 -> 41.
    probe = _probe([(10, 500), (20, 10), (30, 11), (40, 90),
                    (300, 40), (310, 99), (320, 41), (330, 700)])
    assert probe.kernel_around(100, 200) == 26
    # Probes at the interval's ends are inside it: 500, 10, 11 and 99, 41, 700.
    assert probe.kernel_around(40, 300) == (11 + 99) / 2


def test_kernel_around_uses_one_side_at_the_ends():
    probe = _probe([(10, 30), (20, 50), (30, 40)])
    assert probe.kernel_around(40, 50) == 40
    assert probe.kernel_around(0, 5) == 40


def test_slow_machine_scales_down_and_fast_scales_up():
    probe = _probe([(0, NOMINAL_NS * 2), (5000, NOMINAL_NS * 2)])
    assert probe.scaled(100, 1000) == 500
    probe = _probe([(0, NOMINAL_NS // 2), (5000, NOMINAL_NS // 2)])
    assert probe.scale(1000, 100, 1100) == 2000


def test_no_probes_is_an_error():
    with pytest.raises(ValueError):
        SpeedProbe().kernel_around(0, 1)


def test_probe_records_stamped_kernel_times():
    probe = SpeedProbe()
    probe.probe(3)
    assert len(probe.stamps) == len(probe.kernel_ns) == 3
    assert probe.stamps == sorted(probe.stamps)
    assert all(ns > 0 for ns in probe.kernel_ns)
