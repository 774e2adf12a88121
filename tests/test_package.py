import polardet


def test_every_export_resolves_and_is_listed_once():
    names = polardet.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(polardet, n)] == []
