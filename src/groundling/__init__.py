"""Language-guided construction of compact world models for robot
instruction grounding.

An instruction is parsed into a phrase tree; three log-linear
correspondence models map it to scene symbols, perceptual classifiers, and
grounding symbols.  The scene symbols filter the robot's observation log,
the classifier symbols decide which perception stages run, and the
grounding symbols resolve to a navigation action in the resulting world
model -- which stays small because only the relevant observations and
classifiers ever feed it.
"""

from .correspondence import (
    Assignment,
    CorrespondenceModel,
    infer,
    phrase_logits,
    resolve_action,
    train,
)
from .errors import GroundlingError
from .grammar import parse_text
from .pipeline import MODES, ModelBundle, benchmark, run
from .symbols import ClassifierRegistry, default_registry
from .world import WorldModel, build_world_model, simulate

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "ClassifierRegistry",
    "CorrespondenceModel",
    "GroundlingError",
    "MODES",
    "ModelBundle",
    "WorldModel",
    "__version__",
    "benchmark",
    "build_world_model",
    "default_registry",
    "infer",
    "parse_text",
    "phrase_logits",
    "resolve_action",
    "run",
    "simulate",
    "train",
]
