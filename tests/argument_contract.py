"""The argument contract of the public functions, as the rejects tables check it.

An argument that is not an int, or is a bool, is a TypeError that names the
function and the argument.  An int below the argument's lower bound is the one
ValueError ``{function} requires {name} >= {low}, got {value}``; the tables
give such an int only as low - 1.
"""

import inspect
import re

import pytest


def rejects(function, name, args):
    """``pytest.raises`` for ``function(*args)``, whose argument ``name``
    breaks the contract."""
    value = args[list(inspect.signature(function).parameters).index(name)]
    qualname = re.escape(function.__qualname__)
    if type(value) is int:
        return pytest.raises(ValueError, match=rf"^{qualname} requires {name} >= {value + 1}, got {value}$")
    return pytest.raises(TypeError, match=rf"^{qualname} requires an int {name}, got ")
