import doctest

import exactlp
import schubvanish.gpermutahedron
import schubvanish.permcore
import schubvanish.schubitope
import schubvanish.schubpoly


def test_module_doctests():
    failures = 0
    for module in (
        schubvanish.permcore,
        schubvanish.schubpoly,
        schubvanish.schubitope,
        schubvanish.gpermutahedron,
        exactlp,
    ):
        result = doctest.testmod(module)
        failures += result.failed
    assert failures == 0
