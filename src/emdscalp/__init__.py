"""Agreement between EEG channel-relevance maps and motor-cortex domain knowledge
by exact earth mover's distance, with the Riemannian minimum-distance-to-mean
pipeline that produces those maps, in numpy alone: no module imports scipy.
Entry points are the names below and the ``emdscalp`` command (`emdscalp.cli`).
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
