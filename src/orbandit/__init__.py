"""Batch Thompson sampling for binary rewards with odds-ratio posteriors.

The package implements three policies for batched A/B-style experiments:
classic Beta-Bernoulli Thompson sampling, a full-rank logistic model with
Gaussian (Laplace) posteriors, and an odds-ratio variant that keeps the
shared baseline diffuse so relative arm effects survive non-stationary
traffic.  A continuous-experiment layer carries beliefs across rounds with
changing arm sets, and a simulation harness with a CLI reproduces regret
comparisons between the policies.
"""

from . import continuous, errors, gaussian_belief, logistic_model, policy, simulation
from .continuous import *
from .errors import *
from .gaussian_belief import *
from .logistic_model import *
from .policy import *
from .simulation import *

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (gaussian_belief, logistic_model, policy, continuous, simulation, errors)
    for name in module.__all__
]
