"""The public API is derived: ``abtaut.__all__`` is the union of the module
lists, so each public name is listed once, in its module."""

import abtaut
from abtaut import boundary, charclass, graded, rationals, satake, tautring


def test_public_api_is_the_union_of_the_module_lists():
    modules = (rationals, graded, charclass, tautring, boundary, satake)
    assert len(abtaut.__all__) == len(set(abtaut.__all__))
    assert set(abtaut.__all__) == {name for module in modules for name in module.__all__}
    for module in modules:
        for name in module.__all__:
            assert getattr(abtaut, name) is getattr(module, name), (module.__name__, name)
