"""Deterministic desk-scale simulator for adapter-based federated fine-tuning."""

__version__ = "0.1.0"

from .adapter import AdapterConfig, TuningScheme
from .model import ModelSpec, ModelState, build_model
from .session import SessionConfig, load_config, run_session_config
from .tensor_nn import Parameter, SeededRng, Tensor

__all__ = [
    "AdapterConfig",
    "ModelSpec",
    "ModelState",
    "Parameter",
    "SeededRng",
    "SessionConfig",
    "Tensor",
    "TuningScheme",
    "build_model",
    "load_config",
    "run_session_config",
    "__version__",
]
