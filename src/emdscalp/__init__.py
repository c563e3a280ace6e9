"""Quantifying agreement between EEG channel-relevance maps and motor-cortex
domain knowledge with exact earth mover's distance, plus the Riemannian
minimum-distance-to-mean classification pipeline that produces those maps.

The package runs on numpy alone: no module imports scipy, so neither the
package nor any command loads it.  README.md describes each module's method.
"""

from .montage import (
    GridLayout,
    SpatialMap,
    binary_map,
    default_layout,
    load_grid_layout,
    weighted_map,
)
from .relevance import MI_BASELINE_CHANNELS, mi_baseline, top_k
from .spdgeom import (
    backward_elimination,
    covariance,
    frechet_mean,
    mdm_fit,
    mdm_predict,
    riemannian_distance,
)
from .stats import chance_level, cohort_summary, evaluate, wilcoxon_signed_rank
from .transport import emd, ground_cost, rebalance

__version__ = "0.1.0"

__all__ = [
    "GridLayout",
    "SpatialMap",
    "MI_BASELINE_CHANNELS",
    "binary_map",
    "weighted_map",
    "default_layout",
    "load_grid_layout",
    "mi_baseline",
    "top_k",
    "covariance",
    "riemannian_distance",
    "frechet_mean",
    "mdm_fit",
    "mdm_predict",
    "backward_elimination",
    "evaluate",
    "chance_level",
    "cohort_summary",
    "wilcoxon_signed_rank",
    "emd",
    "ground_cost",
    "rebalance",
    "__version__",
]
