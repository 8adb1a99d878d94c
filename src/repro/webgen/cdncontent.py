"""Canonical library file contents.

The paper's Section 9 validity experiment downloads every JavaScript
library file from a fresh Alexa-100K snapshot and compares file hashes
against the official distributions, finding that the only mismatches
were whitespace/comment edits, never manual security patches.

This module provides the "official distribution": a deterministic body
for every (library, version) pair, plus mutators producing the benign
whitespace-variant copies some sites self-host.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Tuple

_LICENSE = "Released under the MIT license"


def official_content(library: str, version: str) -> bytes:
    """The canonical file body for a library release.

    Deterministic, unique per (library, version), and carrying the
    banner-comment form real distributions use (which also lets the
    fingerprint engine's inline-banner patterns match).
    """
    digest = hashlib.sha256(f"{library}|{version}".encode()).hexdigest()
    banner = f"/*! {library} v{version} | {_LICENSE} */"
    body = (
        f"{banner}\n"
        f"(function(global){{'use strict';\n"
        f"  var LIB_ID='{digest[:16]}';\n"
        f"  var VERSION='{version}';\n"
        f"  function init(){{return {{id:LIB_ID,version:VERSION}};}}\n"
        f"  global['{library.replace('-', '_')}']=init();\n"
        f"}})(typeof window!=='undefined'?window:this);\n"
    )
    return body.encode("utf-8")


def whitespace_variant(library: str, version: str, flavor: int = 0) -> bytes:
    """A benign locally-modified copy (extra newlines / edited comment).

    These are the only kinds of modification the paper observed in the
    wild — no manual security patches.
    """
    base = official_content(library, version).decode("utf-8")
    if flavor % 3 == 0:
        mutated = base + "\n\n"
    elif flavor % 3 == 1:
        mutated = base.replace("/*!", "/* locally mirrored:", 1)
    else:
        mutated = base.replace("\n", "\n\n", 1) + " "
    return mutated.encode("utf-8")


class CdnContentStore:
    """Lazy content registry for CDN virtual hosts."""

    def __init__(self) -> None:
        self._cache: Dict[Tuple[str, str], bytes] = {}
        self.lookups = 0

    def get(self, library: str, version: str) -> bytes:
        self.lookups += 1
        key = (library, version)
        body = self._cache.get(key)
        if body is None:
            body = official_content(library, version)
            self._cache[key] = body
        return body

    def __len__(self) -> int:
        return len(self._cache)
