"""The package's public names: a name left in ``__all__`` after its
definition is deleted breaks ``from tdmilp import *``."""

import tdmilp


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from tdmilp import *", namespace)
    for name in tdmilp.__all__:
        assert namespace[name] is getattr(tdmilp, name)
