"""Numerical substrate: generic NLP, water-filling and k-means.

This subpackage replaces the proprietary IMSL numerical libraries the
paper used.  (The exact solver's root-find, the inversion of the
marginal kernel, is elementwise and lives beside the kernel in
:func:`repro.core.freshness.invert_marginal_gain`.)  It contains:

* :mod:`repro.numerics.optimize` — a generic projected-gradient solver
  for concave maximization under a single linear constraint.  This is
  the "black-box NLP package" stand-in whose superlinear cost in the
  number of variables motivates the paper's heuristics.
* :mod:`repro.numerics.kmeans` — a seeded Lloyd's-algorithm k-means
  used by the cluster-refinement step (paper §4.1.3).
* :mod:`repro.numerics.waterfill` — generic water-filling machinery
  for separable concave resource allocation.
* :mod:`repro.numerics.sorting` — the stable time and element-id
  sorts on unique (key, position) int64 keys, shared by the sync
  schedule, the event-tape merge, the request draws and the replay
  kernel.
* :mod:`repro.numerics.blocks` — the one block size of the replay's
  element-range and event-block passes.
"""

from repro.numerics.kmeans import KMeansResult, kmeans, kmeans_iterate
from repro.numerics.optimize import NlpResult, ProjectedGradientSolver
from repro.numerics.stats import (
    ConfidenceInterval,
    mean_confidence_interval,
    t_critical_value,
)
from repro.numerics.waterfill import WaterfillResult, waterfill

__all__ = [
    "ConfidenceInterval",
    "mean_confidence_interval",
    "t_critical_value",
    "ProjectedGradientSolver",
    "NlpResult",
    "kmeans",
    "kmeans_iterate",
    "KMeansResult",
    "waterfill",
    "WaterfillResult",
]
