"""Exact Chern-class calculus for ACM vector bundles on low-degree
hypersurfaces in P^4: Riemann-Roch, twisting, genus, admissibility bounds,
the rank-3/rank-4 invariant tables, and extension-realizability search."""

from . import chern, constraints, extensions
from .chern import *
from .constraints import *
from .extensions import *

__version__ = "0.1.0"

__all__ = ["__version__", *chern.__all__, *constraints.__all__, *extensions.__all__]
