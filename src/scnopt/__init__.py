"""scnopt: evolutionary multi-objective design of three-echelon supply chains.

A seeded elitist non-dominated-sorting engine (:mod:`scnopt.nsga2`) searches
real-coded network designs (:mod:`scnopt.model`) for Pareto fronts trading
total network cost against delivery delay.  :mod:`scnopt.instances` handles
instance files, generation, and front export; :mod:`scnopt.cli` is the
command-line harness.
"""

from . import instances, metrics, model, nsga2
from .instances import *  # noqa: F401,F403
from .metrics import *  # noqa: F401,F403
from .model import *  # noqa: F401,F403
from .nsga2 import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__", *nsga2.__all__, *model.__all__, *instances.__all__, *metrics.__all__]
