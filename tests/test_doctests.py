import doctest

import schubvanish.permcore
import schubvanish.schubitope
import schubvanish.schubpoly


def test_module_doctests():
    # each module must have examples, so the test cannot pass vacuously
    for module in (schubvanish.permcore, schubvanish.schubpoly, schubvanish.schubitope):
        result = doctest.testmod(module)
        assert result.attempted > 0, module.__name__
        assert result.failed == 0, module.__name__
