"""Checkpoint files: canonical JSON, content hashes, resume safety.

A checkpoint is a single JSON document holding the model snapshot, the
optimizer state, the position in the phase plan where training should
resume, the master seed, and a hash of the run configuration.  Files are
written in canonical form (sorted keys, minimal separators, shortest
round-trip float text for scalars), so identical state always produces
identical bytes.

Format v4 stores only what training changed.  Its model state names
the init scheme ("init": "uniform-v3", the draws of
`new_model(config, seed)`) and stores each latent array as the rows
whose bits differ from that init; each Adam moment array is stored as
its rows whose bits differ from zero (`model.pack_rows`).  A stored
array is {"rows": ascending row indices, packed by `model.pack_array`
(base64 of little-endian int16 when that is exact, float64 otherwise),
"values": base64 of the zlib-deflated little-endian XOR of those rows'
float64 bits against the base they are stored against}.  Each entry of
a 1-d array (a head's anchors) is a row.  A lattice move changes one
entry by 1, so a trained row XORs to mostly zero bytes and deflates to
little more than its moved entries.  Loading draws the init again and
XORs the stored rows over it (`model.unpack_rows`), so every array comes
back bit for bit, whichever rows training reached.  A checkpoint whose
cursor is a phase entry holds no Adam moments, since training resets
them there (`optim.optim_state_dict`).

Only format v4 with init "uniform-v3" is read.  Formats v1 and v2, and
files stored against init "uniform-v1" or "uniform-v2", hold an earlier
head layout, and format v3 stores whole rows; loading any of them raises
ValueError naming its format or init.

`created_unix_ms` is the one intentionally nondeterministic field; the
fingerprint zeroes it before hashing so two runs of the same seed yield
identical fingerprints.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import Any

from .model import HiPaNModel, model_from_state, model_state
from .tree import _typed

FORMAT = "hipan-checkpoint-v4"


def canonical_json(obj: Any) -> str:
    """Deterministic JSON text: sorted keys, no whitespace, exact floats."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def config_hash(config: dict | None) -> str:
    """sha256 over the canonical form of a configuration mapping."""
    return hashlib.sha256(canonical_json(config or {}).encode()).hexdigest()


def checkpoint_fingerprint(doc: dict) -> str:
    """Content hash of a checkpoint with its timestamp zeroed."""
    scrubbed = dict(doc)
    scrubbed["created_unix_ms"] = 0
    return hashlib.sha256(canonical_json(scrubbed).encode()).hexdigest()


def save_checkpoint(
    path: str,
    model: HiPaNModel,
    *,
    optim_state: dict | None = None,
    cursor: dict | None = None,
    seed: int = 0,
    run_config: dict | None = None,
    created_unix_ms: int | None = None,
) -> str:
    """Write a checkpoint document atomically; returns the path written.

    The document goes to a temporary file in the target's directory,
    is flushed to disk, then renamed over the target, so a failed write
    leaves any previous file at the path as it was.

    Raises:
        ValueError: a latent array holds NaN or infinity.
    """
    doc = {
        "format": FORMAT,
        "model": model_state(model),
        "optim": optim_state or {},
        "cursor": cursor or {"phase": 0, "epoch": 0},
        "seed": seed,
        "config_hash": config_hash(run_config) if run_config is not None else None,
        "created_unix_ms": (
            int(time.time() * 1000) if created_unix_ms is None else created_unix_ms
        ),
    }
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(doc))
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def load_checkpoint(path: str) -> dict:
    """Read and validate a checkpoint document; its arrays stay packed
    until load_model.

    Raises:
        ValueError: not a checkpoint file, or a format tag other than
            FORMAT (named).
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict) or "format" not in doc:
        raise ValueError(f"{path}: not a checkpoint file")
    if doc["format"] != FORMAT:
        raise ValueError(
            f"{path}: unknown checkpoint format {doc['format']!r}; this version reads {FORMAT!r}"
        )
    return doc


def load_model(doc: dict) -> HiPaNModel:
    """Model snapshot out of a loaded checkpoint document.

    Raises:
        ValueError: the model state is not a mapping, or model_from_state
            refuses it.
    """
    return model_from_state(_typed(doc, "model", dict, "checkpoint"))


def config_matches(doc: dict, run_config: dict | None) -> bool:
    """Whether a resume configuration matches the one the file was trained
    under.  Checkpoints written without a configuration match anything."""
    stored = doc.get("config_hash")
    if stored is None:
        return True
    return stored == config_hash(run_config)


__all__ = [
    "FORMAT",
    "canonical_json",
    "checkpoint_fingerprint",
    "config_hash",
    "config_matches",
    "load_checkpoint",
    "load_model",
    "save_checkpoint",
]
