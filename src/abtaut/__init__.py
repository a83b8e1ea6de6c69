"""Exact computations in the tautological ring of moduli of abelian varieties.

Everything is carried out over arbitrary-precision rationals; there is no
floating point anywhere in the computational paths.  The public API is the
union of the modules' ``__all__`` lists, each name listed once, in its module.
"""

from . import boundary, charclass, graded, rationals, satake, tautring
from .boundary import *
from .charclass import *
from .graded import *
from .rationals import *
from .satake import *
from .tautring import *

__version__ = "0.1.0"

__all__ = [name for module in (rationals, graded, charclass, tautring, boundary, satake) for name in module.__all__]
