"""Tests for boundary extension of control-point sequences.

Each kind gets an exact frozen case on an unevenly spaced grid, then a
property check over random grids: mirrored values for even, point
reflection through the anchors for odd, periodicity for cyclic.
"""

import numpy as np
import numpy.testing as npt
import pytest

from fastimd import extend


def test_even_frozen():
    t = np.array([0.0, 1.0, 3.0, 6.0])
    v = np.array([1.0, 2.0, 3.0, 4.0])
    et, ev = extend(t, v, "even")
    npt.assert_array_equal(et, [-3.0, -1.0, 0.0, 1.0, 3.0, 6.0, 9.0, 11.0])
    npt.assert_array_equal(ev, [3.0, 2.0, 1.0, 2.0, 3.0, 4.0, 3.0, 2.0])


def test_even_is_a_mirror():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(3, 20))
        t = np.sort(rng.uniform(0.0, 50.0, n)) + np.arange(n) * 1e-2
        v = rng.normal(size=n)
        et, ev = extend(t, v, "even")
        # head: synthetic point at distance d before t[0] carries the value
        # found at distance d after it
        assert et[1] == pytest.approx(t[0] - (t[1] - t[0]), abs=1e-12)
        assert et[0] == pytest.approx(t[0] - (t[2] - t[0]), abs=1e-12)
        assert ev[1] == v[1] and ev[0] == v[2]
        assert et[-2] == pytest.approx(t[-1] + (t[-1] - t[-2]), abs=1e-12)
        assert et[-1] == pytest.approx(t[-1] + (t[-1] - t[-3]), abs=1e-12)
        assert ev[-2] == v[-2] and ev[-1] == v[-3]
        npt.assert_array_equal(et[2:-2], t)
        npt.assert_array_equal(ev[2:-2], v)


def test_odd_frozen():
    t = np.array([1.0, 2.0, 4.0])
    v = np.array([3.0, 5.0, 1.0])
    et, ev = extend(t, v, "odd", start_anchor=(0.0, 0.0), end_anchor=(5.0, 2.0))
    npt.assert_array_equal(et, [-2.0, -1.0, 1.0, 2.0, 4.0, 6.0, 8.0])
    npt.assert_array_equal(ev, [-5.0, -3.0, 3.0, 5.0, 1.0, 3.0, -1.0])


def test_odd_reflects_through_anchors():
    """Every synthetic point is the point reflection of a control point, so
    anchor = midpoint in both coordinates."""
    rng = np.random.default_rng(6)
    for _ in range(30):
        n = int(rng.integers(3, 20))
        t = np.sort(rng.uniform(1.0, 49.0, n)) + np.arange(n) * 1e-2
        v = rng.normal(size=n)
        sa = (t[0] - rng.uniform(0.1, 1.0), rng.normal())
        ea = (t[-1] + rng.uniform(0.1, 1.0), rng.normal())
        et, ev = extend(t, v, "odd", start_anchor=sa, end_anchor=ea)
        for syn, src in [(0, 1), (1, 0)]:
            assert (et[syn] + t[src]) / 2.0 == pytest.approx(sa[0], abs=1e-9)
            assert (ev[syn] + v[src]) / 2.0 == pytest.approx(sa[1], abs=1e-9)
        for syn, src in [(-2, -1), (-1, -2)]:
            assert (et[syn] + t[src]) / 2.0 == pytest.approx(ea[0], abs=1e-9)
            assert (ev[syn] + v[src]) / 2.0 == pytest.approx(ea[1], abs=1e-9)


def test_odd_needs_anchors():
    t = np.array([0.0, 1.0, 2.0])
    v = np.array([0.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        extend(t, v, "odd")
    with pytest.raises(ValueError):
        extend(t, v, "odd", start_anchor=(0.0, 0.0))


def test_odd_anchor_on_first_point_collides():
    t = np.array([0.0, 1.0, 2.0])
    v = np.array([0.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        extend(t, v, "odd", start_anchor=(0.0, 0.0), end_anchor=(3.0, 0.0))


def test_cyclic_head_is_periodic():
    t = np.array([0.0, 1.0, 2.0, 4.0])
    v = np.array([5.0, 7.0, 9.0, 5.0])
    et, ev = extend(t, v, "cyclic")
    period = t[-1] - t[0]
    # both head points repeat the value one period later
    for i in range(2):
        j = int(np.argmin(np.abs(t - (et[i] + period))))
        assert t[j] == pytest.approx(et[i] + period, abs=1e-12)
        assert ev[i] == v[j]


def test_cyclic_tail_variants():
    t = np.array([0.0, 1.0, 2.0, 4.0])
    v = np.array([5.0, 7.0, 9.0, 5.0])
    # strict keeps the printed index mix: second tail time lands at +3, one
    # step short of where the value it carries recurs
    et, ev = extend(t, v, "cyclic", variant="strict")
    npt.assert_array_equal(et[-2:], [5.0, 7.0])
    npt.assert_array_equal(ev[-2:], [7.0, 9.0])
    # consistent, the default, places it at +2 so the tail is truly periodic
    et, ev = extend(t, v, "cyclic")
    npt.assert_array_equal(et[-2:], [5.0, 6.0])
    npt.assert_array_equal(ev[-2:], [7.0, 9.0])
    period = t[-1] - t[0]
    for i in (-2, -1):
        j = int(np.argmin(np.abs(t - (et[i] - period))))
        assert t[j] == pytest.approx(et[i] - period, abs=1e-12)
        assert ev[i] == v[j]


def test_cyclic_strict_collision_is_caught():
    # first gap wider than the span of the last three points: the strict
    # tail times come out reversed and the call must refuse
    t = np.array([0.0, 5.0, 5.5, 6.0])
    v = np.array([1.0, 2.0, 3.0, 1.0])
    with pytest.raises(ValueError):
        extend(t, v, "cyclic", variant="strict")
    extend(t, v, "cyclic", variant="consistent")


def test_cyclic_variants_agree_on_uniform_grid():
    t = np.arange(6.0)
    v = np.array([2.0, 4.0, 1.0, 3.0, 5.0, 2.0])
    s = extend(t, v, "cyclic", variant="strict")
    c = extend(t, v, "cyclic", variant="consistent")
    npt.assert_array_equal(s[0], c[0])
    npt.assert_array_equal(s[1], c[1])


def test_cyclic_needs_matching_ends():
    t = np.array([0.0, 1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        extend(t, np.array([1.0, 2.0, 3.0, 4.0]), "cyclic")
    # agreement within rounding is accepted
    v = np.array([1.0, 2.0, 3.0, 1.0 + 1e-12])
    extend(t, v, "cyclic")


def test_minimum_counts():
    with pytest.raises(ValueError):
        extend(np.array([0.0, 1.0]), np.array([0.0, 1.0]), "even")
    with pytest.raises(ValueError):
        extend(
            np.array([0.0, 1.0]),
            np.array([0.0, 1.0]),
            "odd",
            start_anchor=(-1.0, 0.0),
            end_anchor=(2.0, 0.0),
        )
    with pytest.raises(ValueError):
        extend(np.array([0.0, 1.0, 2.0]), np.array([1.0, 0.0, 1.0]), "cyclic")


def test_rejects_nonsense():
    t = np.array([0.0, 1.0, 2.0])
    v = np.array([0.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        extend(t, v, "mirror")
    with pytest.raises(ValueError):
        extend(t, v, "even", variant="loose")
    with pytest.raises(ValueError):
        extend(np.array([0.0, 2.0, 1.0]), v, "even")
    with pytest.raises(ValueError):
        extend(t, np.array([0.0, 1.0]), "even")


@pytest.mark.parametrize("kind", ["even", "odd", "cyclic"])
@pytest.mark.parametrize("t", [[0.0, 1.0, np.nan, 3.0], [0.0, 1.0, 1.0, 3.0],
                               [0.0, 2.0, 1.0, 3.0]], ids=["nan", "equal", "decreasing"])
def test_unordered_control_times_raise(t, kind):
    with pytest.raises(ValueError, match="strictly increasing"):
        extend(np.array(t), np.array([1.0, 0.0, 2.0, 1.0]), kind,
               start_anchor=(-1.0, 0.0), end_anchor=(4.0, 0.0))


def test_result_is_sorted_and_superset():
    rng = np.random.default_rng(9)
    for kind in ("even", "odd", "cyclic"):
        for _ in range(10):
            n = int(rng.integers(4, 15))
            t = np.sort(rng.uniform(0.0, 20.0, n)) + np.arange(n) * 1e-2
            v = rng.normal(size=n)
            kwargs = {}
            if kind == "odd":
                kwargs = {
                    "start_anchor": (t[0] - 0.5, 0.0),
                    "end_anchor": (t[-1] + 0.5, 0.0),
                }
            if kind == "cyclic":
                # the default, consistent tail never collides on irregular
                # grids, where the strict one can
                v[-1] = v[0]
            et, ev = extend(t, v, kind, **kwargs)
            assert len(et) == n + 4
            assert np.all(np.diff(et) > 0.0)
            npt.assert_array_equal(et[2:-2], t)
            npt.assert_array_equal(ev[2:-2], v)
