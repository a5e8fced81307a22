"""Two-agent assisted learning with additive linear predictors.

Stage 1 lets agent A decide whether agent B's covariates are useful from a
privacy-aware random sketch of B's data; stage 2 trains the virtually pooled
M-estimator by alternating offset fits, exchanging only linear-predictor
vectors. Baselines, synthetic-data generators, and a socket agent round out
the toolkit.
"""

from .baselines import (BaselineConfig, BaselineSession, default_step_grid,
                        train_baseline, tune_step)
from .data import (AgentView, AlignedDataset, Column, Owner, from_arrays,
                   load_aligned_csv, split_rows, write_owner_csvs)
from .losses import LossFamily, parse_family
from .messages import PROTOCOL_VERSION, decode, encode
from .protocol import (Prediction, StopCriterion, TrainSession, joint_loss,
                       predict, replay, train)
from .screening import ScreenReport, lrt_screen, wald_screen
from .simulate import (SETTINGS, Ownership, SimDesign, eta_bound, gen_covariates,
                       gen_response, map_T, oracle_fit, simulate)
from .sketch import (MaskedResponse, SketchPackage, clip_rows, laplace_noise,
                     make_projection, make_sketch, mask_response, project,
                     unmask_probability)
from .solver import FitResult, SolverConfig, fit_offset, sandwich_pieces
from .stats import TestDecision, auc, chi2_sf, ks_uniform, normal_quantile

__version__ = "0.1.0"
