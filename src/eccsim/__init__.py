"""Edge/cloud computing-power market: population dynamics and provider game.

End users split across N edge providers and one cloud provider and migrate
by imitation toward better per-price computing power; providers steer that
flow by trading wholesale capacity (requests against a cloud price) and are
modeled as a leader-followers differential game solved through its adjoint
system.  The package exposes the model layer (states, utilities), the
population field and its closed-form rest point, the stationarity and
adjoint formulas of the provider game, fixed-step integrators including a
delayed variant, and the forward-backward sweep that ties them together.
Its public names are those of the four modules' `__all__` lists.
"""

from . import model, replicator, solver, stackelberg
from .model import *
from .replicator import *
from .stackelberg import *
from .solver import *

__version__ = "0.1.0"

__all__ = []
__all__ += model.__all__
__all__ += replicator.__all__
__all__ += stackelberg.__all__
__all__ += solver.__all__
