"""The argument contract of the public functions, as the rejects tables check it.

An argument that is not an int, or is a bool, is a TypeError that names the
function and the argument.  An int below the argument's lower bound is the one
ValueError ``{function} requires {name} >= {low}, got {value}``; the tables
give such an int only as low - 1.  A mapping of coefficients with one value
that is not an int or a Fraction, or is a bool, is the TypeError
``expected an integer or Fraction, got {value!r}`` of
``GradedRing.from_terms``.
"""

import inspect
import re
from collections.abc import Mapping
from fractions import Fraction

import pytest


def rejects(function, name, args):
    """``pytest.raises`` for ``function(*args)``, whose argument ``name``
    breaks the contract."""
    value = args[list(inspect.signature(function).parameters).index(name)]
    if isinstance(value, Mapping):
        [bad] = [c for c in value.values() if isinstance(c, bool) or not isinstance(c, (int, Fraction))]
        return pytest.raises(TypeError, match=rf"^expected an integer or Fraction, got {re.escape(repr(bad))}\Z")
    qualname = re.escape(function.__qualname__)
    if type(value) is int:
        return pytest.raises(ValueError, match=rf"^{qualname} requires {name} >= {value + 1}, got {value}$")
    return pytest.raises(TypeError, match=rf"^{qualname} requires an int {name}, got ")
