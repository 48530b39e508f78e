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


def _shuffled_row(g):
    row = np.arange(8.0)
    g.shuffle(row)
    return row


def _normals_into(g):
    out = np.empty(4)
    g.standard_normal(out=out)
    return out


# The first draws of stream (7, 3) under each Generator method on the byte
# path: the D statistic's shuffle, BM innovations and tie-key replay
# (permutation), and k-means' first centers (integers) and uniforms (random).
# Floats are pinned by their bits, written as float.hex.
PINNED_DRAWS = {
    "shuffle": (_shuffled_row, [
        "0x1.0000000000000p+2", "0x1.8000000000000p+1", "0x1.4000000000000p+2",
        "0x1.8000000000000p+2", "0x0.0p+0", "0x1.c000000000000p+2",
        "0x1.0000000000000p+0", "0x1.0000000000000p+1",
    ]),
    "standard_normal": (_normals_into, [
        "-0x1.2edfec22026c5p+1", "-0x1.641be76fbfd2bp+0",
        "-0x1.73f2d9cf51503p-1", "-0x1.305b6d2601348p+0",
    ]),
    "random": (lambda g: g.random(4), [
        "0x1.edb31ec618b30p-2", "0x1.72c1e5d4967f1p-1",
        "0x1.9bae5c02bbd60p-5", "0x1.43b6c348a9a9ap-2",
    ]),
    "integers": (lambda g: np.array([g.integers(50) for _ in range(4)]), [26, 24, 14, 36]),
    "permutation": (lambda g: g.permutation(8), [4, 3, 5, 6, 0, 7, 1, 2]),
}


@pytest.mark.parametrize("method", sorted(PINNED_DRAWS))
def test_generator_draws_are_pinned(method):
    # Every artifact's bytes rest on these streams, and numpy does not promise
    # them across versions (NEP 19), so a change fails here by name instead of
    # as scattered golden and D mismatches.
    draw, pinned = PINNED_DRAWS[method]
    drawn = draw(stream(7, 3)).tolist()
    if isinstance(pinned[0], str):
        drawn = [value.hex() for value in drawn]
    assert drawn == pinned, (
        f"numpy {np.__version__} draws other numbers from Generator.{method} on a Philox "
        "stream than the numpy these were pinned with; NEP 19 does not promise stable "
        "Generator streams across numpy versions, so every D value and artifact digest "
        "moves with them"
    )
