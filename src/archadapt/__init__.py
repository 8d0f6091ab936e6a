"""Architecture adaptation for growing datasets.

Measures distribution shift between dataset snapshots with a closed-form
Gaussian Wasserstein distance, gates adaptation on the incumbent
architecture's accuracy drop, and searches for the adjusted architecture
with a shift-aware reinforcement-learned controller.
"""

from .controller import (
    ControllerParams,
    TrainerConfig,
    Trajectory,
    embed_state,
    greedy_decode,
    init_params,
    reward,
    sample,
    score,
    train,
)
from .datagen import (
    CLASS_GROWTH,
    VOLUME_GROWTH,
    GrowthPlan,
    Snapshot,
    SnapshotMeta,
    gen_prototypes,
    gen_snapshot,
    load_snapshot,
    save_snapshot,
)
from .errors import (
    ArchAdaptError,
    DegenerateInput,
    DimensionMismatch,
    DivisionByZeroShift,
    InvalidConfig,
    InvalidData,
    InvalidStep,
    InvalidToken,
    NotSPD,
    NumericalError,
    ParseError,
    ShapeError,
    SpaceTooLarge,
)
from .evaluator import (
    SurrogateConfig,
    complexity_score,
    make_evaluator,
    oracle_best,
    surrogate_accuracy,
)
from .gaussian import (
    GaussianSummary,
    fit_gaussian,
    js_divergence_mc,
    load_features_csv,
    save_features_csv,
    sqrt_spd,
    wasserstein2_gaussian,
)
from .gate import GateConfig, accuracy_drop, should_adapt
from .orchestrator import (
    AdaptationRecord,
    RunConfig,
    compare_distance_metrics,
    derive_seed,
    lambda_sweep,
    run_adaptation,
    wd_ablation,
    write_records,
)
from .search_space import (
    Architecture,
    SpaceConfig,
    decode,
    encode,
    enumerate_space,
    madds,
    max_arch,
    min_arch,
    space_size,
)

__version__ = "0.1.0"
