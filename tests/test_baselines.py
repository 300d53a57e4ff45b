"""Tests for the closed-form baselines and the 2x2 scheme search."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linrelay import baselines
from linrelay.baselines import (
    _grid,
    _scheme,
    block_markov_bound,
    bounds_records,
    cutset_bound,
    two_by_two_bound,
)
from linrelay.bound import ChannelParams
from linrelay.codes import evaluate_rank1


class TestClosedForms:
    def test_block_markov_reference_point(self):
        # (a^2 + b^2)/(a^2 (1 + b^2)) at (1.1, 1) is 2.21/2.42.
        value = block_markov_bound(ChannelParams(a=1.1, b=1.0))
        assert value == pytest.approx(2.21 / 2.42, abs=1e-15)

    def test_cutset_reference_point(self):
        # (1 + 1 + 1)/(2 * 2) at (1, 1).
        value = cutset_bound(ChannelParams(a=1.0, b=1.0))
        assert value == pytest.approx(0.75, abs=1e-15)

    def test_block_markov_clamps_at_direct(self):
        # A vanishing relay link leaves only the direct path.
        value = block_markov_bound(ChannelParams(a=1.1, b=1e-12))
        assert value == 1.0

    def test_block_markov_large_b_limit(self):
        # As b grows the expression approaches 1/a^2.
        value = block_markov_bound(ChannelParams(a=1.1, b=1e6))
        assert value == pytest.approx(1.0 / 1.21, rel=1e-9)

    @given(a=st.floats(0.1, 5.0), b=st.floats(0.01, 100.0))
    @settings(max_examples=100, deadline=None)
    def test_cutset_below_block_markov(self, a, b):
        ch = ChannelParams(a=a, b=b)
        assert cutset_bound(ch) <= block_markov_bound(ch) + 1e-12

    @given(a=st.floats(0.1, 5.0), b=st.floats(0.01, 100.0))
    @settings(max_examples=100, deadline=None)
    def test_both_in_unit_interval(self, a, b):
        ch = ChannelParams(a=a, b=b)
        assert 0.0 < cutset_bound(ch) <= 1.0
        assert 0.0 < block_markov_bound(ch) <= 1.0


class TestTwoByTwo:
    def test_reference_value(self, two_by_two_cache):
        # Frozen output of the grid + refinement at (1.1, 2).
        value = two_by_two_cache(1.1, 2.0)
        assert value == pytest.approx(0.9568873603879826, abs=1e-6)

    def test_beats_direct_when_relay_strong(self, two_by_two_cache):
        assert two_by_two_cache(1.1, 5.0) < 1.0

    def test_power_floor_not_binding_when_relay_strong(self, two_by_two_cache, monkeypatch):
        # Halving the smallest allowed power must not move the optimum when
        # the argmin is interior; this validates the floor choice.
        value = two_by_two_cache(1.1, 5.0)
        monkeypatch.setattr(baselines, "_POWER_LO", 5e-7)
        halved = two_by_two_bound(ChannelParams(a=1.1, b=5.0))
        assert halved == pytest.approx(value, abs=1e-7)

    def test_closed_form_grid_matches_dense_oracle(self):
        # The scan ranks the grid by the matrix formula in closed form; the
        # dense certifier, looped over every grid scheme here, must agree to
        # rounding and pick the same first minimum.
        channel = ChannelParams(a=1.1, b=2.0)
        betas, powers, values = _grid(channel)
        dense = np.array(
            [
                [
                    [
                        evaluate_rank1(channel, *_scheme(channel, beta, P1, P2)).normalized
                        for P2 in powers.tolist()
                    ]
                    for P1 in powers.tolist()
                ]
                for beta in betas.tolist()
            ]
        )
        assert values.shape == dense.shape == (41, 31, 31)
        np.testing.assert_allclose(values, dense, rtol=1e-14, atol=0.0)
        assert np.argmin(values) == np.argmin(dense)


class TestBoundsRecord:
    def test_fields_are_consistent(self, optimized_cache, two_by_two_cache):
        (record,) = bounds_records([ChannelParams(a=1.1, b=2.0)])
        assert record.a == 1.1
        assert record.b == 2.0
        assert record.block_markov == block_markov_bound(ChannelParams(a=1.1, b=2.0))
        assert record.cutset == cutset_bound(ChannelParams(a=1.1, b=2.0))
        # Same channel, same deterministic searches as the cached fixtures.
        assert record.rank1_eval == optimized_cache(1.1, 2.0)
        assert record.two_by_two == two_by_two_cache(1.1, 2.0)

    def test_records_go_on_after_a_channel_that_raises(self, monkeypatch):
        # Stand-in searches and 2x2 baselines: channel 1's rank-1 search and
        # channel 2's 2x2 baseline fail.  Each channel raises its own error
        # in its turn, the 2x2 baseline's before the search's, and the
        # channels after it still give their records.
        channels = [ChannelParams(a=1.1, b=b) for b in (1.0, 2.0, 3.0, 4.0)]

        def rank1(channel):
            if channel.b == 2.0:
                raise LookupError("search 2")
            return channel.b

        def two_by_two(channel):
            if channel.b == 3.0:
                raise KeyError("2x2 3")
            return -channel.b

        monkeypatch.setattr(baselines, "optimize_bounds", lambda chs: map(rank1, chs))
        monkeypatch.setattr(baselines, "two_by_two_bound", two_by_two)
        records = bounds_records(channels)
        assert next(records).rank1_eval == 1.0
        with pytest.raises(LookupError, match="search 2"):
            next(records)
        with pytest.raises(KeyError, match="2x2 3"):
            next(records)
        record = next(records)
        assert (record.rank1_eval, record.two_by_two) == (4.0, -4.0)
        assert next(records, None) is None
