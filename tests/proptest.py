"""A tiny stdlib-only property-testing layer for the invariant suite
and the page-scanner equivalence tests.

No hypothesis dependency: generators are plain functions over
``random.Random``, and :func:`forall` sweeps a property over a fixed
seed matrix so every run — local or CI — exercises the identical cases.
On failure the offending seed is named, so a red property reproduces
with ``REPRO_PROP_SEEDS=<seed>``.

Generators lean small on purpose: the suite runs on a 1-CPU container,
so populations stay in the tens and week windows in the single digits —
enough to cover shard-boundary, retry, and merge edge cases without
minutes of wall clock.
"""

from __future__ import annotations

import os
import random
from typing import Callable, List, Sequence, Tuple

#: The fixed CI seed matrix.  Every seed is one generated scenario ×
#: fault plan × sharding combination; override (e.g. to widen the sweep
#: or replay one failure) with REPRO_PROP_SEEDS=11,97,...
SEED_MATRIX: Tuple[int, ...] = (11, 47, 83)


def seed_matrix() -> Tuple[int, ...]:
    env = os.environ.get("REPRO_PROP_SEEDS")
    if env:
        return tuple(int(token) for token in env.split(",") if token.strip())
    return SEED_MATRIX


def forall(
    prop: Callable[[random.Random, int], None],
    seeds: Sequence[int] = (),
) -> None:
    """Run ``prop(rng, seed)`` for every seed; name the seed on failure."""
    for seed in seeds or seed_matrix():
        rng = random.Random(seed)
        try:
            prop(rng, seed)
        except AssertionError as exc:
            raise AssertionError(
                f"property {prop.__name__} failed at seed={seed}: {exc}"
            ) from exc


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
def contiguous_partition(
    rng: random.Random, total: int, max_parts: int
) -> List[Tuple[int, int]]:
    """Random contiguous ``[lo, hi)`` runs covering ``range(total)`` exactly."""
    if total <= 0:
        return []
    parts = rng.randint(1, max(1, min(max_parts, total)))
    cuts = sorted(rng.sample(range(1, total), parts - 1)) if parts > 1 else []
    bounds = [0] + cuts + [total]
    return [(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]


def grid_splits(
    rng: random.Random,
    n_weeks: int,
    n_domains: int,
    max_parts_per_axis: int = 3,
) -> List[Tuple[int, int, int, int]]:
    """A random rectangular partition of the ``weeks × domains`` grid.

    Returns ``(week_lo, week_hi, domain_lo, domain_hi)`` blocks whose
    week runs are contiguous and non-interleaved per domain — the same
    invariant the shard planner guarantees, so
    :meth:`~repro.crawler.ObservationStore.merge` must reassemble them
    exactly.
    """
    week_runs = contiguous_partition(rng, n_weeks, max_parts_per_axis)
    domain_runs = contiguous_partition(rng, n_domains, max_parts_per_axis)
    return [
        (w_lo, w_hi, d_lo, d_hi)
        for (w_lo, w_hi) in week_runs
        for (d_lo, d_hi) in domain_runs
    ]


def fault_plan(rng: random.Random, week_ordinals: Sequence[int]):
    """A random-but-seeded fault plan over the given crawl window."""
    from repro.runtime import FaultPlan

    surge_weeks: Tuple[int, ...] = ()
    if week_ordinals and rng.random() < 0.7:
        count = rng.randint(1, len(week_ordinals))
        start = rng.randrange(len(week_ordinals) - count + 1)
        surge_weeks = tuple(week_ordinals[start : start + count])
    return FaultPlan(
        seed=rng.randrange(1 << 16),
        crash_rate=rng.choice((0.0, 0.3, 0.6, 1.0)),
        timeout_rate=rng.choice((0.0, 0.25, 0.5)),
        surge_weeks=surge_weeks,
        surge_connect_failure_rate=rng.choice((0.0, 0.2)),
        surge_timeout_rate=rng.choice((0.0, 0.3)),
        surge_server_error_rate=rng.choice((0.0, 0.4)),
    )


#: Tag names for :func:`tag_soup`: the scanner's own names plus near
#: misses it must not take for them.
_SOUP_TAGS = (
    "script", "link", "meta", "style", "img", "object", "embed", "param",
    "iframe", "svg", "div", "p", "scripts", "script-x", "objects",
)
_SOUP_ATTRS = (
    "src", "href", "name", "value", "data-x", "async", "x:y", "a.b",
    "AllowScriptAccess", "integrity", "width", "type",
)
_SOUP_VALUES = (
    "/a.js", "/m.swf", "always", "", "x y", "/dir/", "<b>", "</object>",
    "<script>", "</script >", "a=b", "v1.2",
)
_SOUP_TEXT = (
    "hello", " ", "\n", "a < b", "x > y", "<", ">", "<!", "<!-", "-->",
    "</", "'", '"', "=",
)


def _mixed_case(rng: random.Random, word: str) -> str:
    return "".join(c.upper() if rng.random() < 0.3 else c for c in word)


def _soup_attr(rng: random.Random) -> str:
    name = _mixed_case(rng, rng.choice(_SOUP_ATTRS))
    value = rng.choice(_SOUP_VALUES)
    style = rng.randrange(5)
    if style == 0:
        return name  # valueless
    if style == 1:
        return f'{name}="{value}"'
    if style == 2:
        return f"{name}='{value}'"
    if style == 3:
        return f"{name}={value.replace(' ', '') or 'x'}"  # unquoted
    return f'{name} = "{value}"'


def _soup_open(rng: random.Random, name: str) -> str:
    attrs = "".join(
        rng.choice((" ", "  ", "\n")) + _soup_attr(rng)
        for _ in range(rng.randrange(4))
    )
    return f"<{_mixed_case(rng, name)}{attrs}{rng.choice(('', '', '/', ' /'))}>"


def _soup_fragment(rng: random.Random, depth: int = 0) -> str:
    kind = rng.randrange(10)
    if kind == 0:
        return rng.choice(_SOUP_TEXT)
    if kind == 1:
        return _soup_open(rng, rng.choice(_SOUP_TAGS))
    if kind == 2:  # a whole inline script, often with tag text inside
        body = rng.choice(
            (
                "var a=1;",
                "",
                "  ",
                "/*! jQuery v1.12.4 */",
                "document.write('<script src=/x.js></scr' + 'ipt>');",
                "document.write('<img src=\"/y.png\">');",
                "if (a<b) { c(); }",
            )
        )
        close = rng.choice(("</script>", "</SCRIPT >", "</script\n>"))
        return _soup_open(rng, "script") + body + close
    if kind == 3:  # an unclosed script
        return _soup_open(rng, "script") + rng.choice(_SOUP_TEXT)
    if kind == 4:  # an object with params, sometimes nested or left open
        inner = "".join(
            _soup_open(rng, rng.choice(("param", "param", "object", "embed")))
            for _ in range(rng.randrange(4))
        )
        close = rng.choice(("</object>", "</object >", "</OBJECT\n>", ""))
        return _soup_open(rng, "object") + inner + close
    if kind == 5:
        return _soup_open(rng, "param")
    if kind == 6:
        return rng.choice(
            ("</object>", "</object >", "</script>", "</Script  >", "</div>", "</objects>")
        )
    if kind == 7 and depth < 2:  # a comment around other markup
        inner = "".join(
            _soup_fragment(rng, depth + 1) for _ in range(rng.randrange(3))
        )
        return "<!--" + inner + rng.choice(("-->", "-->", "", "<!-- -->-->"))
    if kind == 8:
        return rng.choice(
            ("<!---->", "<!<!-- x -->-- y -->", "<!-- <script src=/c.js> -->")
        )
    return rng.choice(("<div>", "<p>", "<br/>", "<html>", "</body>"))


def tag_soup(rng: random.Random, max_fragments: int = 24) -> str:
    """Seeded, deliberately malformed HTML for the page scanner.

    It mixes case; double-quoted, single-quoted, unquoted and valueless
    attributes; ``/>``; tag text inside script bodies; unclosed
    ``<script>``s; stray and nested ``<param>``/``<object>``;
    ``</object >``; markup inside attribute values; and comments, some
    unclosed and some that re-form after one strip.
    """
    return "".join(
        _soup_fragment(rng) for _ in range(rng.randint(1, max_fragments))
    )
