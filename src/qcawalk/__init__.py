"""Float64 amplitude lab for 1D lattice automata and coined quantum walks.

Each module's ``__all__`` is its export list; the package re-exports the
union of the five lists.
"""

from . import amplitudes, asymptotics, coined_walks, correspondence, qca_core
from .amplitudes import *  # noqa: F403
from .asymptotics import *  # noqa: F403
from .coined_walks import *  # noqa: F403
from .correspondence import *  # noqa: F403
from .qca_core import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted(
    {
        name
        for module in (amplitudes, asymptotics, coined_walks, correspondence, qca_core)
        for name in module.__all__
    }
)
