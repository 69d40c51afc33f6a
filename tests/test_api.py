import types

import stratumlab


def test_all_lists_exactly_the_public_names():
    public = {
        name
        for name, value in vars(stratumlab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(stratumlab.__all__) == len(set(stratumlab.__all__))
    assert set(stratumlab.__all__) == public
