"""trifree: exact simulation of the triangle-free random graph process.

Core pieces:
    process     the stepping engine with exact pair statuses
    trajectory  deterministic reference curves and checkpoints
    patterns    fixed-pattern monitoring, density auditors, blocking
    oracle      permutation-ordering reference implementation
    harness     run drivers, sweeps, audits, file outputs
    cli         the `trifree` command
"""

from .process import (
    AuditReport,
    PairStatus,
    ProcessState,
    Saturation,
    SizingError,
    StepResult,
    Steps,
    StopCondition,
)
from .trajectory import (
    Checkpoint,
    TrajectoryParams,
    open_pair_curve,
    partial_vertex_curve,
    scaled_time,
    step_horizon,
    take_checkpoint,
)
from .patterns import (
    BlockReport,
    FirstAppearanceTracker,
    KSubsetResult,
    Pattern,
    PatternError,
    PlacementClass,
    blocked_placements,
    classify_placement,
    complete_bipartite_pattern,
    cycle_pattern,
    find_copy,
    load_pattern_file,
    make_pattern,
    max_edges_k_subset,
    parse_pattern,
    path_pattern,
    single_edge_pattern,
)
from .harness import RunConfig, RunSummary, run_simulation

__version__ = "0.1.0"
