import pytest

from wglab import InvalidParameterError, RngState


def test_substream_keys_unchanged():
    assert RngState(7).substream(3) == RngState(7, 3)
    assert RngState(7, 2).substream(5) == RngState(7, (2 << 32) + 5)


@pytest.mark.parametrize("parent,worker", [(0, 2 ** 32), (0, -1),
                                           (2 ** 32, 0), (-1, 0)])
def test_substream_ids_outside_32_bits_rejected(parent, worker):
    # RngState(s, 0).substream(2**32) would alias RngState(s, 1).substream(0)
    with pytest.raises(InvalidParameterError):
        RngState(7, parent).substream(worker)
