"""Detection of libraries hosted on collaborative version control.

Section 6.5: libraries loaded straight from GitHub/GitLab/Bitbucket
pages cannot be trusted the way official CDNs can, because repository
maintainers and contributors are unvetted.
"""

from __future__ import annotations

import functools
from typing import Optional, Tuple

#: Host suffixes identifying collaborative-VCS hosting.
UNTRUSTED_HOST_SUFFIXES: Tuple[str, ...] = (
    "github.io",
    "github.com",
    "githubusercontent.com",
    "gitlab.io",
    "gitlab.com",
    "bitbucket.io",
    "bitbucket.org",
)


@functools.lru_cache(maxsize=4096)
def is_untrusted_host(hostname: Optional[str]) -> bool:
    """True when ``hostname`` is served from a VCS hosting platform."""
    if not hostname:
        return False
    hostname = hostname.lower()
    return any(
        hostname == suffix or hostname.endswith("." + suffix)
        for suffix in UNTRUSTED_HOST_SUFFIXES
    )
