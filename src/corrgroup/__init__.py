"""Correspondence grouping for 3D point cloud matching.

Seven grouping algorithms over a shared correspondence data model, a
synthetic benchmark generator with exact ground truth, and a
precision/recall/timing evaluation harness.
"""

from .corr_model import (
    Correspondence,
    CorrespondenceFormatError,
    CorrespondenceSet,
    distance_compatibility,
    load_correspondences,
    load_ground_truth,
    rigidity_score,
    save_correspondences,
    save_ground_truth,
    strip_lrfs,
)
from .evaluation import (
    ALGORITHM_NAMES,
    EvaluationRecord,
    InstanceSpec,
    SweepPlan,
    judge,
    records_from_csv,
    records_to_csv,
    run_algorithm,
    run_sweep,
    score,
    time_algorithms,
    write_csv,
)
from .geom3d import (
    AmbiguousFrameError,
    DegenerateSampleError,
    InsufficientSupportError,
    LocalReferenceFrame,
    PointCloud,
    RigidTransform,
    apply_transform,
    compute_resolution,
    estimate_lrf,
    estimate_rigid_transform,
)
from .grouping import (
    AlgorithmParams,
    GroupingResult,
    HoughAccumulator,
    NonConvergenceError,
    group_3dhv,
    group_gc,
    group_nnsr,
    group_ransac,
    group_si,
    group_ss,
    group_st,
    otsu_threshold,
    principal_eigenvector,
)
from .ply import PlyFormatError, load_ply, save_ply
from .synthbench import (
    MODEL_KINDS,
    CorrespondenceRecipe,
    SceneRecipe,
    SimilarityModel,
    generate_correspondences,
    generate_scene,
    make_test_model,
)

__version__ = "0.1.0"
