"""Finite-statistics decoy-state BB84 post-processing.

The package turns the observed counts of a decoy-state session into a
certified secret key: exact binomial confidence bounds feed a
photon-number linear program whose single-photon yield/error bounds
price the privacy amplification, alongside measured efficiencies for
error reconciliation (CASCADE) and bias removal (iterated pairwise
extraction).  A Monte-Carlo channel simulator, a scheme optimizer, a
range-curve sweep, and a calibration routine for the demonstration
link round out the toolkit; the ``decoyqkd`` console script exposes it
all on the command line.

Each module's ``__all__`` is the one list of its public names; the
package re-exports all of them.
"""

from . import core, stats, decoy, keyrate, recon, extract, sim, opt
from .core import *
from .stats import *
from .decoy import *
from .keyrate import *
from .recon import *
from .extract import *
from .sim import *
from .opt import *

__version__ = "0.1.0"

__all__ = ["__version__", *core.__all__, *stats.__all__, *decoy.__all__, *keyrate.__all__,
           *recon.__all__, *extract.__all__, *sim.__all__, *opt.__all__]
