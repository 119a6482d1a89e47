import transientscan


def test_every_public_name_resolves():
    # a name removed from a module but left in __all__ fails here, not at a
    # user's star import
    missing = [name for name in transientscan.__all__ if not hasattr(transientscan, name)]
    assert missing == []
    namespace = {}
    exec("from transientscan import *", namespace)
    assert set(transientscan.__all__) <= namespace.keys()
