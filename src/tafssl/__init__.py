"""Task-adaptive feature subspace learning (TAFSSL) for few-shot classification.

Given precomputed feature vectors, this package fits a low-dimensional
task-specific subspace (PCA or FastICA) on the pooled samples of a few-shot
episode, classifies queries by nearest prototype, and optionally refines the
decision with clustering-based inference: Bayesian k-means (BKM) or
mean-shift propagation (MSP).  A benchmark harness samples episodes from
real feature files or a synthetic mixture-of-Gaussians generator and reports
accuracy with 0.95 confidence intervals.
"""

from tafssl.classify import Prototypes, build_prototypes, nn_classify
from tafssl.cluster import Clustering, MspResult, bkm, kmeans, msp
from tafssl.config import BenchmarkConfig, MethodPipeline
from tafssl.episodes import (
    Episode,
    EpisodeSpec,
    FeatureStore,
    MoGSpec,
    generate_mog_store,
    mutual_information_diagnostic,
    sample_episode,
)
from tafssl.features_io import load_features, save_features
from tafssl.harness import run_ablation, run_benchmark
from tafssl.linalg import NumericalWarning, sym_eig
from tafssl.report import RunReport
from tafssl.subspace import SubspaceProjection, fit_ica, fit_pca, whiten

__version__ = "0.1.0"

__all__ = [
    "BenchmarkConfig",
    "Clustering",
    "Episode",
    "EpisodeSpec",
    "FeatureStore",
    "MethodPipeline",
    "MoGSpec",
    "MspResult",
    "NumericalWarning",
    "Prototypes",
    "RunReport",
    "SubspaceProjection",
    "bkm",
    "build_prototypes",
    "fit_ica",
    "fit_pca",
    "generate_mog_store",
    "kmeans",
    "load_features",
    "msp",
    "mutual_information_diagnostic",
    "nn_classify",
    "run_ablation",
    "run_benchmark",
    "sample_episode",
    "save_features",
    "sym_eig",
    "whiten",
]
