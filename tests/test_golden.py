"""Golden bits: the exact outputs of ``decompose`` and ``filter_series``.

The inputs are integer random walks on an integer grid, built from integers
only, so the data itself is the same bits on every machine; the refinement
uses only IEEE arithmetic (no ``cos``, whose SIMD implementations differ
between machines). A change that is meant to keep outputs bit-identical must
keep these digests; a change that moves outputs on purpose updates them and
says so.
"""

import hashlib

import numpy as np
import pytest

from fastimd import FilterCriteria, TimeSeries, decompose, filter_series


def _integer_walk(seed, n):
    steps = np.random.default_rng(seed).integers(-3, 4, n)
    return TimeSeries(np.arange(n, dtype=np.float64), steps.cumsum().astype(np.float64))


# seed, n, mode count, decompose digest, filter_series digest
GOLDEN = [
    (1, 2000, 9,
     "73899a5d61ba1c4c6cd3a928ecabbb72817ad060c5eeedefe7b7de4ee3c2add5",
     "59a94f1dd82b9d941d778622662ff12d0e2e6517ac958552cde8244874af7069"),
    (2, 2000, 8,
     "47ff41de41ce43b5c21bf0669b508a5b5ab32b32b331bfa082bea594819ab447",
     "178e96a487aa21edd23bcb6b7beef14ae0155c09dded2758576970896711402b"),
    (3, 5000, 8,
     "e00c237b28f5cd818eae82d67c6b80d118a3189c263877ca82c74ad6d9e774a2",
     "b73de7f734b957a15496051ddd374230dbc5d8b0c60812ba089c77eb555339b5"),
    (4, 777, 8,
     "d7b2c3b4863151897e203bf970f45d5e92c2cfe6cf07dee3668b0e62f5ea3a12",
     "42036bafa0a826ff4734f7ac12205949bc2d3d6852ef457664dced43fe2f7a22"),
]


@pytest.mark.parametrize("seed, n, modes, decompose_digest, filter_digest", GOLDEN)
def test_outputs_keep_their_bits(seed, n, modes, decompose_digest, filter_digest):
    data = _integer_walk(seed, n)
    result = decompose(data)
    h = hashlib.sha256()
    for mode in result.modes:
        h.update(mode.imf.values.tobytes())
        h.update(mode.residue.values.tobytes())
    h.update(result.final_residue.values.tobytes())
    assert len(result.modes) == modes
    assert h.hexdigest() == decompose_digest

    kept = filter_series(data, FilterCriteria(jump_time_blocks=((0.0, 20.0),)))
    h = hashlib.sha256(kept.filtered.values.tobytes() + kept.blocked.values.tobytes())
    assert h.hexdigest() == filter_digest


def test_outputs_keep_their_bits_without_the_copying_hand_over(monkeypatch):
    # the library hands every series it computes over once, checked and
    # uncopied; with_values, the copying path for values from outside, is
    # never needed to reach the same bits
    def refuse(self, values):
        raise AssertionError("with_values called inside the library")

    monkeypatch.setattr(TimeSeries, "with_values", refuse)
    for row in GOLDEN:
        test_outputs_keep_their_bits(*row)
