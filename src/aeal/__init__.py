"""Two-agent assisted learning with additive linear predictors.

Stage 1 lets agent A decide whether agent B's covariates are useful from a
privacy-aware random sketch of B's data; stage 2 trains the virtually pooled
M-estimator by alternating offset fits, exchanging only linear-predictor
vectors. Baselines, synthetic-data generators, and a socket agent round out
the toolkit.
"""

from .baselines import BaselineSession, default_step_grid, train_baseline, tune_step
from .data import AgentView, Owner, load_agent_csv
from .losses import LossFamily, parse_family
from .messages import PROTOCOL_VERSION, decode, encode
from .protocol import (Prediction, StopCriterion, TrainSession, joint_loss,
                       predict, replay, train)
from .screening import ScreenReport, lrt_screen, screen_context, wald_screen
from .simulate import (SETTINGS, Ownership, SimDesign, eta_bound, gen_covariates,
                       gen_response, map_T, oracle_fit, simulate)
from .sketch import (SketchOffer, SketchPackage, make_sketch, mask_response,
                     unmask_probability)
from .solver import FitResult, fit_offset, sandwich_pieces
from .stats import ScreenResult, auc, chi2_sf, normal_quantile

__version__ = "0.1.0"
