"""poisskern: Poisson kernels, boundary blow-ups, and harmonic-measure estimates.

The package has four layers:

* **Model kernels** (:mod:`poisskern.model_kernels`): closed-form Poisson
  kernels for balls and halfspaces, harmonic extension by quadrature against
  those kernels, and normalization checks.

* **Harmonic measure** (:mod:`poisskern.harmonic_measure`): walk-on-spheres
  estimation of exit distributions on general smooth domains, and
  kernel-density estimates from cap measures.

* **Boundary blow-up** (:mod:`poisskern.scaling` and
  :mod:`poisskern.geometry`): orthonormal boundary frames on smooth domains,
  the dilation that magnifies a boundary neighborhood to unit scale, the
  transferred defining function that converges to a halfspace's, and the
  pulled-back kernel identity.

* **Asymptotic ratio diagnostics** (:mod:`poisskern.asymptotics`): two-sided
  boundary ratio sweeps and direction-resolved derivative diagnostics.
"""

from __future__ import annotations

__version__ = "0.1.0"

# Each module's ``__all__`` is the one list of its public names.
from . import asymptotics, domain_spec, errors, geometry, harmonic_measure, model_kernels, scaling
from .asymptotics import *  # noqa: F401,F403
from .domain_spec import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .geometry import *  # noqa: F401,F403
from .harmonic_measure import *  # noqa: F401,F403
from .model_kernels import *  # noqa: F401,F403
from .scaling import *  # noqa: F401,F403

__all__ = [
    "__version__",
    *errors.__all__,
    *geometry.__all__,
    *model_kernels.__all__,
    *scaling.__all__,
    *harmonic_measure.__all__,
    *asymptotics.__all__,
    *domain_spec.__all__,
]
