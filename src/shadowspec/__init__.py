"""shadowspec: spectral verdicts and shadow trajectories for invertible linear operators.

Decides hyperbolicity, uniform expansivity and the shadowing property from
spectra (dense matrices numerically, two-sided weighted shifts analytically),
builds the unit-circle Riesz projector by inverse-free repeated squaring and
resolvent Laurent coefficients by contour quadrature, and explicitly
constructs shadow trajectories for pseudo-orbits, cross-checked by a
least-squares oracle.
"""

from .errors import *
from .operators import *
from .projector import *
from .shadowing import *
from .spectral import *

__version__ = "0.1.0"
