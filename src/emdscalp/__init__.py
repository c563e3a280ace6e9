"""Quantifying agreement between EEG channel-relevance maps and motor-cortex
domain knowledge with exact earth mover's distance, plus the Riemannian
minimum-distance-to-mean classification pipeline that produces those maps.

The package runs on numpy alone: no module imports scipy, so neither the
package nor any command loads it.  `transport` solves the exact EMD by a
transportation simplex and proves each plan optimal by duality;
`signal.bandpass` designs its Butterworth filter and runs the zero-phase
recurrence in numpy, in blocks of 64 samples, to within about 1e-13 of
scipy's ``filtfilt``; `spdgeom` reduces every SPD distance and eigenproblem
by a Cholesky whitener, and `mdm_fit` maps its class means over a thread
pool of up to the CPUs the process may use: the centroids are the same
bytes on any CPU count, and the first failing class in class order raises.
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
