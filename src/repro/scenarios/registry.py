"""Scenario-pack registry: named, parameterized config transforms.

A *scenario pack* is a pure transform over
:class:`~repro.config.ScenarioConfig`: given a base config and a typed
parameter set it returns a new config with the pack's sections adjusted
(bundling, advisory drift, behaviour mix, ...).  Packs declare their
parameters up front — names, types, defaults, help — so the CLI, the
sweep grid parser, and the digest all derive from one declaration.

Identity rules:

* Applying a pack stamps a :class:`~repro.config.PackSelection` (pack
  name + fully resolved params, canonically encoded) onto the config.
  :func:`~repro.config.scenario_digest` hashes the canonical JSON of
  every dataset field of the config, so the selection — and therefore
  the pack digest — is folded into dataset identity automatically: a
  checkpoint written under one pack refuses to resume under another,
  and the web generator's per-process site-state cache keeps one set
  of states per pack and parameters.
* The ``baseline`` pack with default params stamps the *default*
  selection, so an explicitly-selected baseline and an unset pack are
  the same dataset (byte-identical store, equal scenario digest).

Registration is decorator-based::

    @register_pack(
        "bundled-deps",
        description="vendored bundles with transitive inclusion",
        params=(PackParam("share", float, 0.25, "bundled-site share"),),
    )
    def bundled_deps(config, params):
        return dataclasses.replace(
            config, bundling=BundlingConfig(share=params["share"])
        )
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Callable, Dict, Mapping, Optional, Tuple

from ..config import PackSelection, ScenarioConfig
from ..errors import ConfigError

#: Schema version folded into every pack digest.
PACK_FORMAT = 1

Transform = Callable[[ScenarioConfig, Dict[str, object]], ScenarioConfig]


@dataclasses.dataclass(frozen=True)
class PackParam:
    """One declared pack parameter.

    Attributes:
        name: Parameter name (also the grid-spec / CLI spelling).
        type: Value type — ``float``, ``int``, ``str``, or ``bool``.
        default: Resting value when the caller gives nothing.
        help: One-line description for ``repro packs`` / ``--help``.
        choices: Allowed values (strings), enforced on parse.
    """

    name: str
    type: type
    default: object
    help: str = ""
    choices: Tuple[str, ...] = ()

    def parse(self, raw: object):
        """Coerce a raw (often string) value to this parameter's type."""
        if self.type is bool and isinstance(raw, str):
            lowered = raw.strip().lower()
            if lowered in ("1", "true", "yes", "on"):
                return True
            if lowered in ("0", "false", "no", "off"):
                return False
            raise ConfigError(
                f"pack parameter {self.name}: expected a boolean, got {raw!r}"
            )
        try:
            value = self.type(raw)
        except (TypeError, ValueError):
            raise ConfigError(
                f"pack parameter {self.name}: expected {self.type.__name__}, "
                f"got {raw!r}"
            ) from None
        if self.choices and str(value) not in self.choices:
            raise ConfigError(
                f"pack parameter {self.name}: {value!r} is not one of "
                f"{', '.join(self.choices)}"
            )
        return value


def encode_params(params: Mapping[str, object]) -> Tuple[Tuple[str, str], ...]:
    """Canonical ``PackSelection.params`` encoding: sorted (name, JSON)."""
    return tuple(
        (name, json.dumps(params[name], sort_keys=True))
        for name in sorted(params)
    )


def decode_params(encoded: Tuple[Tuple[str, str], ...]) -> Dict[str, object]:
    """Inverse of :func:`encode_params`."""
    return {name: json.loads(text) for name, text in encoded}


@dataclasses.dataclass(frozen=True)
class PackSpec:
    """A registered scenario pack: declaration + transform."""

    name: str
    description: str
    params: Tuple[PackParam, ...]
    transform: Transform

    def param(self, name: str) -> PackParam:
        for declared in self.params:
            if declared.name == name:
                return declared
        known = ", ".join(p.name for p in self.params) or "(none)"
        raise ConfigError(
            f"pack {self.name!r} has no parameter {name!r}; "
            f"declared parameters: {known}"
        )

    def resolve_params(
        self, given: Optional[Mapping[str, object]] = None
    ) -> Dict[str, object]:
        """Given values merged over declared defaults, all type-coerced.

        Raises:
            ConfigError: An unknown parameter name, or a value that
                fails the declared type/choices.
        """
        resolved = {p.name: p.default for p in self.params}
        for name, raw in (given or {}).items():
            resolved[name] = self.param(name).parse(raw)
        return resolved

    def digest(self, given: Optional[Mapping[str, object]] = None) -> str:
        """sha256 of the pack identity with fully resolved params."""
        document = {
            "format": PACK_FORMAT,
            "pack": self.name,
            "params": self.resolve_params(given),
        }
        text = json.dumps(document, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def selection(
        self, given: Optional[Mapping[str, object]] = None
    ) -> PackSelection:
        """The :class:`PackSelection` this pack stamps onto configs.

        The baseline pack with default params maps to the *default*
        selection (empty params), keeping "no pack given" and
        ``--scenario-pack baseline`` the same dataset identity.
        """
        resolved = self.resolve_params(given)
        if self.name == PackSelection().name and not self.params:
            return PackSelection()
        return PackSelection(name=self.name, params=encode_params(resolved))

    def apply(
        self,
        config: ScenarioConfig,
        given: Optional[Mapping[str, object]] = None,
    ) -> ScenarioConfig:
        """The transformed config, stamped with this pack's selection."""
        resolved = self.resolve_params(given)
        transformed = self.transform(config, resolved)
        return dataclasses.replace(transformed, pack=self.selection(given))


_REGISTRY: Dict[str, PackSpec] = {}


def register_pack(
    name: str,
    *,
    description: str = "",
    params: Tuple[PackParam, ...] = (),
) -> Callable[[Transform], Transform]:
    """Class-of-2023 plugin decorator: register a pack transform."""

    def decorator(transform: Transform) -> Transform:
        if name in _REGISTRY:
            raise ConfigError(f"scenario pack {name!r} is already registered")
        _REGISTRY[name] = PackSpec(
            name=name,
            description=description or (transform.__doc__ or "").strip(),
            params=tuple(params),
            transform=transform,
        )
        return transform

    return decorator


def _load_builtin_packs() -> None:
    """Import every module that registers built-in packs (idempotent)."""
    from . import packs  # noqa: F401  (registers baseline & friends)
    from ..analysis import counterfactuals  # noqa: F401  (counterfactual pack)


def available_packs() -> Tuple[str, ...]:
    """Registered pack names, sorted."""
    _load_builtin_packs()
    return tuple(sorted(_REGISTRY))


def get_pack(name: str) -> PackSpec:
    """Look up one pack.

    Raises:
        ConfigError: Unknown name — the message lists every known pack.
    """
    _load_builtin_packs()
    if name not in _REGISTRY:
        raise ConfigError(
            f"unknown scenario pack {name!r}; known packs: "
            f"{', '.join(sorted(_REGISTRY))}"
        )
    return _REGISTRY[name]


def apply_pack(
    config: ScenarioConfig,
    name: str,
    params: Optional[Mapping[str, object]] = None,
) -> ScenarioConfig:
    """Apply a registered pack by name (see :meth:`PackSpec.apply`)."""
    return get_pack(name).apply(config, params)


def pack_digest(
    name: str, params: Optional[Mapping[str, object]] = None
) -> str:
    """Digest of a named pack with the given params resolved."""
    return get_pack(name).digest(params)
