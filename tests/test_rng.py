import numpy as np
import pytest

from wglab import InvalidParameterError, RngState
from wglab.rng import PURPOSES


def test_substream_keys_unchanged():
    assert RngState(7).substream(3) == RngState(7, 3)
    assert RngState(7, 2).substream(5) == RngState(7, (2 << 32) + 5)


@pytest.mark.parametrize("parent,worker", [(0, 2 ** 32), (0, -1),
                                           (2 ** 32, 0), (-1, 0)])
def test_substream_ids_outside_32_bits_rejected(parent, worker):
    # RngState(s, 0).substream(2**32) would alias RngState(s, 1).substream(0)
    with pytest.raises(InvalidParameterError):
        RngState(7, parent).substream(worker)


def test_purposes_key_streams_of_their_own():
    # tv (and profile) block 0, sweep point 0 block 0, clt and the limit
    # Monte Carlo, all with one seed, each read a stream of their own
    firsts = [RngState(7, 0, p).substream(0).generator().standard_normal()
              for p in PURPOSES]
    assert PURPOSES == ("tv", "sweep", "clt", "limit")
    assert len(set(firsts)) == 4
    heads = [RngState(7, 0, p).generator().random() for p in PURPOSES]
    assert len(set(heads)) == 4
    assert RngState(7).substream(3) == RngState(7, 3, "tv")
    assert RngState(7, 0, "clt").substream(3) == RngState(7, 3, "clt")


def test_generator_is_sfc64_keyed_by_spawn_key():
    gen = RngState(7, 3, "clt").generator()
    ref = np.random.Generator(np.random.SFC64(
        np.random.SeedSequence(7, spawn_key=(PURPOSES.index("clt"), 3))))
    assert isinstance(gen.bit_generator, np.random.SFC64)
    np.testing.assert_array_equal(gen.integers(0, 2 ** 63, 8),
                                  ref.integers(0, 2 ** 63, 8))


def test_unknown_purpose_rejected():
    with pytest.raises(InvalidParameterError):
        RngState(7, purpose="profile")


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 65 + 7])
def test_seed_outside_64_bits_rejected(seed):
    # a seed masked to 64 bits would share the stream of seed % 2**64
    with pytest.raises(InvalidParameterError):
        RngState(seed)

