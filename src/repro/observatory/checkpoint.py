"""Durable ingest checkpoints (versioned, atomic write-rename).

A checkpoint is one JSON document capturing *everything* the ingest
needs to resume exactly: the update/RIB stream watermarks (timestamp +
how many records were already consumed at that timestamp — the archive
merge order is total, so that pair addresses an exact stream position),
the number of events appended to the store, and full snapshots of the
streaming detector, resurrection monitor and lifespan session.

Writes go to a temp file in the same directory followed by
``os.replace``, so a crash leaves either the old checkpoint or the new
one — never a torn file.  The document is encoded one top-level key at
a time with :func:`json.dumps` (the C encoder; :func:`json.dump` always
takes the pure-Python one) and the bytes are exactly what
``json.dump(document, handle, sort_keys=True)`` writes, while only one
section's text is alive at a time.

Loading fails closed: anything but a JSON object of the current version
raises :class:`CheckpointError` naming the file.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Optional, Union

__all__ = ["CHECKPOINT_VERSION", "CheckpointError", "load_checkpoint",
           "save_checkpoint"]

CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    """A checkpoint file exists but is not a usable checkpoint."""


def save_checkpoint(path: Union[str, Path], document: dict[str, Any]) -> None:
    """Atomically persist ``document`` (stamped with the version).

    The top-level keys are strings, so ``json.dumps(key)`` is the key
    text ``json.dump`` would write."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = dict(document)
    payload["version"] = CHECKPOINT_VERSION
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write("{")
        for index, key in enumerate(sorted(payload)):
            if index:
                handle.write(", ")
            handle.write(json.dumps(key))
            handle.write(": ")
            handle.write(json.dumps(payload[key], sort_keys=True))
        handle.write("}")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def load_checkpoint(path: Union[str, Path]) -> Optional[dict[str, Any]]:
    """The checkpoint document, or None when no checkpoint exists yet."""
    path = Path(path)
    if not path.exists():
        return None
    try:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"{path}: checkpoint is not UTF-8: {exc}") \
            from exc
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"{path}: checkpoint is not JSON: {exc}") \
            from exc
    if not isinstance(document, dict):
        raise CheckpointError(
            f"{path}: checkpoint is a JSON {type(document).__name__}, "
            f"not an object")
    if document.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint version: "
            f"{document.get('version')!r}")
    return document
