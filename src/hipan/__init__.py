"""Hierarchies as p-adic codes: encoding, digit-head models, diagnostics.

The pieces compose in one line each: parse or synthesize a rooted
hierarchy (`tree`), encode its leaves as fixed-length base-p codes whose
valuation metric mirrors ancestry (`padic`, `tree`), fit per-digit heads
to those codes with a lattice or Adam trainer (`model`, `optim`), then
check what the geometry and the fit actually deliver (`metrics`).

Each module's `__all__` is its public interface; the package re-exports
all of them, and from `checkpoint` the file-level helpers below.
"""

from . import metrics, model, optim, padic, rng, tree
from .checkpoint import (
    canonical_json,
    checkpoint_fingerprint,
    config_hash,
    load_checkpoint,
    save_checkpoint,
)
from .metrics import *  # noqa: F403
from .model import *  # noqa: F403
from .optim import *  # noqa: F403
from .padic import *  # noqa: F403
from .rng import *  # noqa: F403
from .tree import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *padic.__all__,
    *tree.__all__,
    *model.__all__,
    *optim.__all__,
    *metrics.__all__,
    *rng.__all__,
    "canonical_json",
    "checkpoint_fingerprint",
    "config_hash",
    "load_checkpoint",
    "save_checkpoint",
]
