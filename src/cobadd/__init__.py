"""Consensus-based dual decomposition with primal recovery.

Solvers, a deterministic synchronous-network simulator, theoretical
bound calculators, independent ground-truth oracles, and an experiment
CLI for decomposable convex programs whose scalar box-constrained
variables are coupled by one scalar inequality and one linear matrix
inequality.
"""

from .bounds import TheoreticalBounds, default_beta0, theoretical_bounds
from .central import central_init, central_solve, central_step
from .errors import ConfigurationError
from .network import (ConsensusMatrix, Graph, check_consensus_conditions,
                      consensus_round, exact_averaging_matrix, metropolis_weights,
                      random_connected_graph)
from .oracles import OracleResult, dual_bisection, dykstra_project, grid_search_lmi
from .problem import (DualPoint, DualSetSpec, NodeSpec, ProblemInstance,
                      ScalarFunction, SlaterCertificate, SubgradientBounds,
                      build_dual_sets, constraint_values, dual_function_value,
                      dual_function_values, dual_set_threshold, evaluate_primal,
                      instance_from_json, instance_to_json,
                      make_sample_lmi_instance, make_sample_num_instance,
                      project_psd_ball_stack, slater_certificate, subgradient_bounds)
from .solver import (CobaddConfig, NodeState, SolverState, cobadd_init,
                     cobadd_solve, cobadd_step, record_run)
from .trace import TRACE_COLUMNS, RunTrace

__version__ = "0.1.0"
