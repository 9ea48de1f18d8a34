"""Paths and indices of maximal tail dependence in bivariate copulas.

The package answers three questions about a bivariate copula C:

* along which path does the probability of a shrinking area-u^2 rectangle
  stay largest (``taildep.paths``);
* how fast does that maximal probability decay, and how does it compare
  with the classical diagonal decay (``taildep.indices``);
* what do the corresponding tail risk measures of a coupled loss sum look
  like under heavy-tailed marginals (``taildep.risk``).

See README.md for the CLI and the acceptance suite.
"""

from taildep import config, copulas, errors, indices, paths, risk
from taildep.config import *  # noqa: F403
from taildep.copulas import *  # noqa: F403
from taildep.errors import *  # noqa: F403
from taildep.indices import *  # noqa: F403
from taildep.paths import *  # noqa: F403
from taildep.risk import *  # noqa: F403

# the config grammar's registry stays in taildep.copulas
del FAMILIES  # noqa: F405

__version__ = "0.1.0"

__all__ = [name for module in (copulas, config, paths, indices, risk, errors)
           for name in module.__all__ if name != "FAMILIES"]
