"""Estimating the number of communities in weighted networks.

The entry point is select, which runs the selector a MethodSpec names
on a WeightedAdjacency network: the sequential spectral test on the
variance-profile-scaled adjacency (svps) or a penalized-likelihood
baseline (cbic, icl). svps_select and score_select are shorthands for
it. Each module's __all__ is the one list of its public names; the
package re-exports them all.
"""

from . import bench, datasets, fitting, model, network, scaling, selection, spectral
from .network import *
from .model import *
from .spectral import *
from .fitting import *
from .scaling import *
from .selection import *
from .bench import *
from .datasets import *

__version__ = "0.1.0"

__all__ = [
    *network.__all__,
    *model.__all__,
    *spectral.__all__,
    *fitting.__all__,
    *scaling.__all__,
    *selection.__all__,
    *bench.__all__,
    *datasets.__all__,
    "__version__",
]
