"""Volume-correlation subspace detector library.

Detects a known-subspace target signal buried in clutter from an unknown
low-rank subspace plus white noise, by tracking volumes of parallelotopes
spanned by streamed samples and the known target basis.

The package exports each library module's ``__all__``; ``vcdetect.experiment``
(the Monte Carlo runner) is imported on its own.
"""

from .bounds import *
from .detector import *
from .geometry import *
from .scenario import *

__version__ = "0.4.0"
