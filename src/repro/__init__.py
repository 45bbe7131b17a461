"""PIGEON: a general path-based representation for predicting program
properties.

Reproduction of Alon, Zilberstein, Levy & Yahav, PLDI 2018.  The public
API surfaces three layers:

* **Representation** -- :class:`~repro.core.ast_model.Ast` trees from any
  of the four language frontends, AST paths, path-contexts and
  abstractions, and the :class:`~repro.core.extraction.PathExtractor`.
* **Learning** -- the CRF and word2vec engines any representation plugs
  into.
* **PIGEON** -- :class:`~repro.api.Pipeline`, the registry-driven
  train/predict facade: every (language, task, representation, learner)
  cell is one :class:`~repro.api.RunSpec` away, and trained pipelines
  persist to a single file.

Languages, tasks, representations and learners are plugin registries
(:mod:`repro.registry`); registering a new implementation makes it
reachable from :class:`~repro.api.Pipeline`, the experiment harness and
the CLI alike.
"""

from .core.abstractions import ABSTRACTIONS, get_abstraction
from .core.ast_model import Ast, Node
from .core.extraction import ExtractionConfig, PathExtractor, extract_path_contexts
from .core.path_context import PathContext
from .core.paths import AstPath, NWisePath, path_between, semi_path
from .api import Pipeline, RunSpec, UnknownPluginError, UnsupportedSpecError
from .lang.base import parse_source, supported_languages

__version__ = "1.1.0"

__all__ = [
    "ABSTRACTIONS",
    "Ast",
    "AstPath",
    "ExtractionConfig",
    "NWisePath",
    "Node",
    "PathContext",
    "PathExtractor",
    "Pipeline",
    "RunSpec",
    "UnknownPluginError",
    "UnsupportedSpecError",
    "extract_path_contexts",
    "get_abstraction",
    "parse_source",
    "path_between",
    "semi_path",
    "supported_languages",
    "__version__",
]
