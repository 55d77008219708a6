"""Tests for the argument checks of the synthetic signal generators."""

import pytest

from fastimd import random_walk, sinusoid, synth, two_cosine
from fastimd.signals import SYNTH_KINDS


@pytest.mark.parametrize("make", [two_cosine, random_walk, sinusoid])
@pytest.mark.parametrize("step", [0.0, -1.0])
def test_step_must_be_positive(make, step):
    with pytest.raises(ValueError) as err:
        make(step=step)
    assert str(err.value) == f"step must be a positive number, got {step!r}"


@pytest.mark.parametrize("period", [0.0, -30.0])
def test_sinusoid_period_must_be_positive(period):
    with pytest.raises(ValueError) as err:
        sinusoid(period=period)
    assert str(err.value) == f"period must be a positive number, got {period!r}"


def test_synth_rejects_an_unknown_kind():
    # the command line offers only the known kinds, so only a library call gets here
    with pytest.raises(ValueError) as err:
        synth("sawtooth")
    assert str(err.value) == f"unknown synthetic signal 'sawtooth'; pick one of {SYNTH_KINDS}"
