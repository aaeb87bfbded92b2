"""Rare-event chance-constrained linear programs and their small-risk limits."""

from .errors import (ContractError, InputError, ParameterError, RareccError,
                     UnboundedError)
from .experiments import (ExperimentConfig, ReportRow, ks_distance,
                          run_experiment, write_report)
from .limits import (LimitSolution, angular_moment, lambda_eval,
                     limit_to_decision, rate_I, rate_J, solve_ht_limit,
                     solve_lt_limit)
from .methods import (MethodResult, analytic_ccp_value, analytic_cvar_value,
                      ccp_oracle, cvar_solve, sample_size_rule,
                      scenario_solve, violation_prob, wilson_halfwidth)
from .model import ProblemInstance, box_clip, phi, phi_many
from .sampler import (HeavyTailModel, LightTailModel, SampleBatch, TailModel,
                      heavy_fbar_inv, joint_tail_light, light_qinv, sample_tail)

__version__ = "0.1.0"
