"""Deterministic seed derivation.

All randomness flows from one root seed; each pipeline stage derives its own
seed from (root, stage labels) through SHA-256, so stages are reproducible
in isolation and do not consume each other's streams.
"""

from __future__ import annotations

import hashlib


def derive_seed(root: int, *labels) -> int:
    h = hashlib.sha256()
    h.update(str(int(root)).encode())
    for label in labels:
        h.update(b"/")
        h.update(str(label).encode())
    return int.from_bytes(h.digest()[:8], "little")
