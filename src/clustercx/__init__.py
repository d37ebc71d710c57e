"""Exact combinatorics of cluster moduli strata, signs, and bar-complex
algebra.

Submodules:
  trees     -- planar (colored) trees, enumeration, contraction order
  strata    -- face posets, boundary signs, corners, tiles, collars
  signs     -- closed-form orientation signs and Koszul bookkeeping
  labelings -- edge labelings, balance, smoothing maps, charts
  barcx     -- tensor words over the Novikov ring and relation checkers
  indexcalc -- index formulas, reduction surgeries, end labelings
  fields    -- typed readers for the fields of JSON input files
  cli       -- the ``clustercx`` command line
"""

__version__ = "0.1.0"

from . import barcx, indexcalc, labelings, signs, strata, trees  # noqa: F401
from .errors import ClusterCxError  # noqa: F401
