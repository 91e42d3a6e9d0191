import poishom


def test_all_names_resolve_once():
    assert len(poishom.__all__) == len(set(poishom.__all__))
    for name in poishom.__all__:
        assert getattr(poishom, name) is not None, name
