"""shrinkcut: penalized QUBO construction, SDP-guided Max-Cut shrinking,
pluggable solving, and verified reconstruction with repair."""

from .instances import (
    MdkpInstance,
    MisInstance,
    ParseError,
    QapInstance,
    load_optima,
    parse_mdkp,
    parse_mis_edgelist,
    parse_qaplib,
    serialize_mdkp,
    serialize_mis_edgelist,
    serialize_qaplib,
)
from .qubo import (
    PenaltyPolicy,
    QuboModel,
    build_mdkp_qubo,
    build_mis_qubo,
    build_qap_qubo,
    coefficient_scale,
    evaluate_qubo,
    model_from_json,
    model_to_json,
    slack_bit_count,
)
from .maxcut import (
    MaxCutGraph,
    binary_to_spins,
    cut_value,
    graph_from_json,
    graph_to_json,
    graph_to_qubo,
    qubo_to_maxcut,
    spins_to_binary,
)
from .sdp import (
    EmbeddingVectors,
    default_rank,
    extract_correlations,
    sdp_objective,
    solve_maxcut_sdp,
)
from .spectral import Spectrum, laplacian, select_target_size, symmetric_eigenvalues
from .shrink import (
    MergeStep,
    ShrinkConfig,
    ShrinkResult,
    ShrinkStats,
    WorkingGraph,
    local_correlation_update,
    merge_score,
    merge_steps_from_jsonl,
    merge_steps_to_jsonl,
    run_shrink,
    select_merge,
)
from .feasibility import (
    RepairReport,
    hungarian,
    mdkp_violations,
    mis_violations,
    qap_violations,
    repair_mdkp,
    repair_mis,
    repair_qap,
)
from .solvers import Solution, solve_exact, solve_qubo, solve_sa, solve_vqe_sim
from .reconstruct import LiftedSolution, decode_solution, lift_solution
from .pipeline import (
    CSV_COLUMNS,
    KINDS,
    PHASES,
    STRATEGIES,
    PipelineConfig,
    PipelineError,
    Report,
    build_model,
    is_feasible,
    load_instance,
    local_search,
    make_penalty,
    objective_value,
    optimality_gap,
    penalty_summaries,
    recommend_penalty,
    repair,
    report_to_json,
    rsq,
    run_bench,
    run_pipeline,
    violations,
)

__version__ = "0.1.0"
