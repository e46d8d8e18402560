"""Self-similar Gaussian random fields with stationary rectangular increments.

Covariance kernels for the sheet-like field families, their increment
algebra and stationarity classification, Lamperti transforms and spectral
densities, moving-average representations, quadrature oracles for the
underlying integral identities, and exact Cholesky-based simulation.

The package exports the ``__all__`` of each of those modules, the one list
of its public names.
"""

from .gammafn import *
from .increments import *
from .kernels import *
from .lamperti import *
from .movingavg import *
from .quadrature import *
from .simulate import *
from .spectral import *

__version__ = "0.1.0"
