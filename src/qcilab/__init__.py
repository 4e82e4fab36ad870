"""qcilab: a numerical laboratory for geodesic admissibility and
eigenfunction restriction decay on surfaces of revolution.

The package answers two linked questions at desk scale:

1. Given a surface of revolution and a pair of commuting classical
   symbols, is a geodesic arc admissible (does the second symbol move
   at a definite rate along the arc on the first symbol's energy
   shell)? See `admissibility`.

2. Do integrals of joint Laplace eigenfunctions over such arcs decay
   like h^{1/2} when the arc is admissible, and stay O(1) when it is
   not? See `sweep` for the experiment harness, `specfun` and
   `eigensolve` for the eigenfunctions, `lineintegral` for the
   oscillation-resolved quadrature.

The public names are each module's `__all__`; this package re-exports
them all.
"""

from . import admissibility, eigensolve, geometry, lineintegral, specfun, sweep, symbol_dsl
from .admissibility import *  # noqa: F403
from .eigensolve import *  # noqa: F403
from .geometry import *  # noqa: F403
from .lineintegral import *  # noqa: F403
from .specfun import *  # noqa: F403
from .sweep import *  # noqa: F403
from .symbol_dsl import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *admissibility.__all__,
    *eigensolve.__all__,
    *geometry.__all__,
    *lineintegral.__all__,
    *specfun.__all__,
    *sweep.__all__,
    *symbol_dsl.__all__,
]
