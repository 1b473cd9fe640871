import wglab


def test_all_names_resolve():
    assert len(set(wglab.__all__)) == len(wglab.__all__)
    assert [name for name in wglab.__all__ if not hasattr(wglab, name)] == []
