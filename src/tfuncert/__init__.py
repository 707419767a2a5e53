"""Numerical laboratory for time-frequency uncertainty principles.

Sampled functions on centered grids, unitary Fourier / STFT / ambiguity
transforms, weighted and modulation norms, sharp constants with their
domain checks, inequality certification batteries, and the two variational
problems (weighted-form eigenproblem and two-moment ratio minimization).

The public surface is each layer module's ``__all__``, re-exported here.
"""

from . import certifier, constants, norms, sampling, transforms, variational
from .constants import *  # noqa: F401,F403
from .sampling import *  # noqa: F401,F403
from .transforms import *  # noqa: F401,F403
from .norms import *  # noqa: F401,F403
from .certifier import *  # noqa: F401,F403
from .variational import *  # noqa: F401,F403
from .cli import main

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "main",
    *constants.__all__,
    *sampling.__all__,
    *transforms.__all__,
    *norms.__all__,
    *certifier.__all__,
    *variational.__all__,
]
