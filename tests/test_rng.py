"""The SplitMix64 stream: the array form of the uniform draws against the
one-draw-at-a-time form."""

import warnings

import numpy as np
import pytest

from qmkdv.rng import MASK64, SplitMix64


@pytest.mark.parametrize("seed", [0, 7, MASK64])
@pytest.mark.parametrize("count, lo, hi", [(0, 0.0, 1.0), (1, 0.0, 1.0), (1000, -20.0, 20.0), (257, 0.05, 8.0)])
def test_uniforms_equal_the_uniform_stream(seed, count, lo, hi):
    one, block = SplitMix64(seed), SplitMix64(seed)
    want = np.array([one.uniform(lo, hi) for _ in range(count)], dtype=np.float64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the uint64 wrap-around must not warn
        got = block.uniforms(count, lo, hi)
    assert got.dtype == np.float64 and got.shape == (count,)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    assert block.state == one.state
    # the stream continues where it left off, in either form
    assert block.next_u64() == one.next_u64()


def test_uniforms_then_uniform_continue_one_stream():
    a, b = SplitMix64(11), SplitMix64(11)
    mixed = [*a.uniforms(3), a.uniform(), *a.uniforms(2, -1.0, 1.0)]
    plain = [b.uniform() for _ in range(4)] + [b.uniform(-1.0, 1.0) for _ in range(2)]
    assert mixed == plain
