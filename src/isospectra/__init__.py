"""Spectral geometry of isoparametric hypersurfaces and focal submanifolds in spheres.

Modules by concern:

* ``catalog``       admissible multiplicity pairs, dimensions, angles, known facts
* ``clifford``      exact symmetric Clifford systems on R^{2l}
* ``fkm``           the Clifford quartic, level-set/focal sampling, shape operators
* ``certificates``  high-precision verification of the eigenvalue inequality chain
"""

__version__ = "0.1.0"
