"""The package's public names: a name left in ``__all__`` after its
definition is deleted breaks ``from tdmilp import *``, and an exported
exception must be the base class a caller can catch every case by."""

import tdmilp
from tdmilp import fracbound, linalg, simplex, structure


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from tdmilp import *", namespace)
    for name in tdmilp.__all__:
        assert namespace[name] is getattr(tdmilp, name)


def test_exported_errors_are_the_base_classes():
    assert tdmilp.CapExceededError is structure.CapExceededError
    assert issubclass(fracbound.CapExceededError, tdmilp.CapExceededError)
    assert tdmilp.SolverError is simplex.SolverError
    assert tdmilp.LinalgError is linalg.LinalgError
    assert issubclass(tdmilp.SingularMatrixError, tdmilp.LinalgError)
    assert issubclass(tdmilp.DimensionError, tdmilp.LinalgError)

