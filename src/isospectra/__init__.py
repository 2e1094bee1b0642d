"""Spectral geometry of isoparametric hypersurfaces and focal submanifolds in spheres.

Modules by concern:

* ``catalog``       admissible multiplicity pairs, dimensions, angles, known facts
* ``clifford``      exact symmetric Clifford systems on R^{2l}
* ``fkm``           the Clifford quartic, level-set/focal sampling, shape operators
* ``certificates``  the eigenvalue inequality chain, decided by integer inequalities
                    and cross-checked in floating point
* ``exact``         exact half-integer Gamma/Beta and sign decisions, kept as the
                    oracle the certificates are tested against
"""

import logging

__version__ = "0.1.0"

# the package logs at DEBUG (sampling counters) and is silent unless the caller adds a handler
logging.getLogger(__name__).addHandler(logging.NullHandler())
