"""repro.rng: the sanctioned generator fallbacks."""

import numpy as np

from repro.rng import DEFAULT_SEED, ensure_rng, restored_rng


def _draws(rng):
    return rng.random(4).tolist()


def test_bare_calls_draw_the_default_seed_stream():
    expected = _draws(np.random.default_rng(DEFAULT_SEED))
    assert _draws(ensure_rng()) == expected
    assert _draws(ensure_rng(None)) == expected


def test_given_generator_or_seed_is_honoured():
    rng = np.random.default_rng(5)
    assert ensure_rng(rng) is rng
    assert _draws(ensure_rng(7)) == _draws(np.random.default_rng(7))


def test_restored_rng_resumes_the_recorded_stream():
    rng = np.random.default_rng(11)
    rng.random(3)
    state = rng.bit_generator.state
    assert _draws(restored_rng(state)) == _draws(rng)
