"""The SplitMix64 stream: the array form of the uniform draws against the
one-draw-at-a-time form, also where the identities study draws its inputs."""

import warnings

import numpy as np
import pytest

from qmkdv import identities
from qmkdv.model import CoefficientSpec
from qmkdv.rng import MASK64, SplitMix64
from qmkdv.spectral_core import GridSpec


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


def _scalar_draw_records(seed: int, samples: int) -> list:
    """identities.run's resonance and local-phase records with their inputs
    drawn as first written: one SplitMix64.uniform call per number."""
    rng = SplitMix64(seed)
    for _ in range(6):
        rng.uniforms(samples)  # the six sample arrays drawn before them
    signed = [rng.uniform(0.05, 8.0) * (1.0 if rng.uniform() < 0.5 else -1.0) for _ in range(500)]
    grad_err, phase_err = map(identities._largest, zip(*[identities.resonance_errors(x) for x in signed]))
    local = []
    for _ in range(2000):
        x, z1, z2 = rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)
        denom = max(1.0, abs(x) ** 3, abs(z1) ** 3, abs(z2) ** 3)
        local += [abs(identities.local_phase_residual(x, z1, z2)) / denom,
                  abs(identities.local_phase_residual(x, z1, 0.0))]
    errors = {"local_phase_residual": identities._largest(local), "resonance_gradients": grad_err,
              "resonance_phase_values": phase_err}
    return [{"name": name, "max_error": err, "tolerance": 1e-12, "passed": err <= 1e-12}
            for name, err in errors.items()]


@pytest.mark.parametrize("seed", [1, 3, 7])
def test_identities_draw_the_bits_of_the_scalar_loops(seed):
    records = identities.run(seed, 100, GridSpec(n=64, box_length=60.0), CoefficientSpec())
    want = _scalar_draw_records(seed, 100)
    assert [r for r in records if r["name"] in {w["name"] for w in want}] == want
