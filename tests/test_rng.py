import numpy as np
import pytest

from lexiphylo._rng import rekey, stream

DRAWS = (
    lambda g: g.permutation(11),
    lambda g: g.standard_normal(13),
    lambda g: g.random(5),
    lambda g: g.integers(0, 1000, 7, dtype=np.uint32),
)


@pytest.mark.parametrize("stream_id", [0, 1, 2**63, 2**64 - 1, -1])
def test_rekey_reproduces_stream_draw_for_draw(stream_id):
    g = stream(99, 5)
    g.permutation(8)  # bounded 32-bit draws; an odd count leaves a cached half
    g.standard_normal(3)
    state = g.bit_generator.state
    assert state["has_uint32"] == 1 and state["buffer_pos"] < 4

    rekey(g, 12345, stream_id)
    fresh = stream(12345, stream_id)
    for draw in DRAWS:
        assert np.array_equal(draw(g), draw(fresh))


def test_rekey_masks_ids_like_stream():
    g = stream(0, 0)
    rekey(g, -2, -1)
    fresh = stream(2**64 - 2, 2**64 - 1)
    assert np.array_equal(g.random(9), fresh.random(9))
