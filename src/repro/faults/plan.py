"""Seeded, deterministic fault plans for the DES.

A :class:`FaultPlan` is pure data: per-frame-kind loss probabilities, a
separate beacon-loss knob, bounded clock jitter, and a client
crash/rejoin schedule. The plan carries its own seed, so a run under a
plan is fully replayable — every invariant violation reports the seed
that produced it and re-running with the same plan reproduces the
failure byte for byte.

Plans can be parsed from a JSON file or from a compact inline spec
(``loss=0.1,seed=7,UdpPortMessage=0.5,crash=0@5:15``), which is what the
CLI's ``--fault-plan`` accepts.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from repro.errors import ConfigurationError

#: Upper bound on the clock-jitter knob. Larger jitter could reorder a
#: burst frame ahead of the beacon announcing it (adjacent deliveries
#: are at least DIFS + PHY preamble + minimum payload airtime apart,
#: ~870 µs), which would turn an injected fault into a protocol bug.
MAX_CLOCK_JITTER_S = 500e-6

#: Frame kinds the ``default_loss`` knob applies to. Beacons are
#: deliberately excluded: at the base rate they are by far the most
#: robust frames on the air, and they get their own ``beacon_loss``
#: knob so beacon-loss experiments are an explicit choice.
BEACON_KIND = "Beacon"


def _check_probability(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{name} must be in [0, 1]: {value}")


#: The keys :meth:`FaultPlan.to_dict` writes, at the top level and per crash.
_PLAN_KEYS = frozenset(
    {"seed", "default_loss", "loss_by_kind", "beacon_loss", "clock_jitter_s",
     "crashes"}
)
_CRASH_KEYS = frozenset({"client_index", "crash_at_s", "rejoin_at_s"})


def _reject_unknown_keys(what: str, data: Mapping, known: frozenset) -> None:
    unknown = sorted(map(str, set(data) - known))
    if unknown:
        raise ConfigurationError(f"unknown {what} key: {unknown[0]!r}")


@dataclass(frozen=True)
class ClientCrashEvent:
    """One scheduled client crash (and optional rejoin)."""

    client_index: int
    crash_at_s: float
    rejoin_at_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.client_index < 0:
            raise ConfigurationError(
                f"crash client index must be non-negative: {self.client_index}"
            )
        if self.crash_at_s <= 0:
            raise ConfigurationError(
                f"crash time must be positive: {self.crash_at_s}"
            )
        if self.rejoin_at_s is not None and self.rejoin_at_s <= self.crash_at_s:
            raise ConfigurationError(
                f"rejoin at {self.rejoin_at_s} must come after the crash "
                f"at {self.crash_at_s}"
            )


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic description of everything that will go wrong."""

    seed: int = 0
    #: Loss probability for any non-beacon kind without an override.
    default_loss: float = 0.0
    #: Per-frame-kind overrides, keyed by frame class name.
    loss_by_kind: Mapping[str, float] = field(default_factory=dict)
    #: Beacons are exempt from ``default_loss``; lose them explicitly.
    beacon_loss: float = 0.0
    #: Uniform [0, jitter] seconds added to each frame's delivery time.
    clock_jitter_s: float = 0.0
    crashes: Tuple[ClientCrashEvent, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "loss_by_kind", dict(self.loss_by_kind))
        object.__setattr__(self, "crashes", tuple(self.crashes))
        _check_probability("default_loss", self.default_loss)
        _check_probability("beacon_loss", self.beacon_loss)
        for kind, probability in self.loss_by_kind.items():
            _check_probability(f"loss_by_kind[{kind!r}]", probability)
        if not 0.0 <= self.clock_jitter_s <= MAX_CLOCK_JITTER_S:
            raise ConfigurationError(
                f"clock jitter must be in [0, {MAX_CLOCK_JITTER_S}] s "
                f"(larger values reorder deliveries): {self.clock_jitter_s}"
            )

    @property
    def is_null(self) -> bool:
        """True when the plan injects nothing at all.

        A null plan is the identity: running under it is defined to be
        byte-identical to running with no plan, which is what lets a
        zero-loss ``FaultPlan`` reproduce the headline numbers exactly.
        """
        return (
            self.default_loss == 0.0
            and self.beacon_loss == 0.0
            and self.clock_jitter_s == 0.0
            and not self.crashes
            and all(p == 0.0 for p in self.loss_by_kind.values())
        )

    def loss_for_kind(self, kind: str) -> float:
        if kind == BEACON_KIND:
            return self.beacon_loss
        return self.loss_by_kind.get(kind, self.default_loss)

    @classmethod
    def uniform(cls, rate: float, seed: int = 0, **kwargs) -> "FaultPlan":
        """Uniform loss over every non-beacon frame kind."""
        return cls(seed=seed, default_loss=rate, **kwargs)

    # -- serialization -------------------------------------------------

    def to_dict(self) -> Dict:
        return {
            "seed": self.seed,
            "default_loss": self.default_loss,
            "loss_by_kind": dict(sorted(self.loss_by_kind.items())),
            "beacon_loss": self.beacon_loss,
            "clock_jitter_s": self.clock_jitter_s,
            "crashes": [
                {
                    "client_index": c.client_index,
                    "crash_at_s": c.crash_at_s,
                    "rejoin_at_s": c.rejoin_at_s,
                }
                for c in self.crashes
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "FaultPlan":
        _reject_unknown_keys("fault plan", data, _PLAN_KEYS)
        try:
            for c in data.get("crashes", ()):
                _reject_unknown_keys("fault plan crash", c, _CRASH_KEYS)
            crashes = tuple(
                ClientCrashEvent(
                    client_index=int(c["client_index"]),
                    crash_at_s=float(c["crash_at_s"]),
                    rejoin_at_s=(
                        None if c.get("rejoin_at_s") is None
                        else float(c["rejoin_at_s"])
                    ),
                )
                for c in data.get("crashes", ())
            )
            return cls(
                seed=int(data.get("seed", 0)),
                default_loss=float(data.get("default_loss", 0.0)),
                loss_by_kind={
                    str(k): float(v)
                    for k, v in dict(data.get("loss_by_kind", {})).items()
                },
                beacon_loss=float(data.get("beacon_loss", 0.0)),
                clock_jitter_s=float(data.get("clock_jitter_s", 0.0)),
                crashes=crashes,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed fault plan: {exc}") from exc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"fault plan is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigurationError("fault plan JSON must be an object")
        return cls.from_dict(data)

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse ``--fault-plan``'s argument: a JSON path or inline spec.

        The inline spec is comma-separated ``key=value`` pairs:

        * ``loss=0.1`` — uniform non-beacon loss
        * ``beacon=0.05`` — beacon loss
        * ``seed=7`` — the plan seed
        * ``jitter=1e-4`` — clock jitter in seconds
        * ``crash=IDX@T1:T2`` — client IDX crashes at T1, rejoins at T2
          (``crash=IDX@T1`` never rejoins); repeat for multiple crashes
        * ``<FrameKind>=0.5`` — per-kind override, e.g.
          ``UdpPortMessage=0.5``
        """
        if os.path.exists(spec) or spec.endswith(".json"):
            with open(spec, "r", encoding="utf-8") as handle:
                return cls.from_json(handle.read())
        seed = 0
        default_loss = 0.0
        beacon_loss = 0.0
        jitter = 0.0
        by_kind: Dict[str, float] = {}
        crashes = []
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ConfigurationError(
                    f"fault plan spec entries are key=value, got {part!r}"
                )
            key, _, value = part.partition("=")
            key = key.strip()
            value = value.strip()
            try:
                if key == "seed":
                    seed = int(value)
                elif key == "loss":
                    default_loss = float(value)
                elif key == "beacon":
                    beacon_loss = float(value)
                elif key == "jitter":
                    jitter = float(value)
                elif key == "crash":
                    index_text, _, times = value.partition("@")
                    if not times:
                        raise ConfigurationError(
                            f"crash spec is IDX@T1[:T2], got {value!r}"
                        )
                    crash_text, _, rejoin_text = times.partition(":")
                    crashes.append(
                        ClientCrashEvent(
                            client_index=int(index_text),
                            crash_at_s=float(crash_text),
                            rejoin_at_s=(
                                float(rejoin_text) if rejoin_text else None
                            ),
                        )
                    )
                elif key and key[0].isupper():
                    by_kind[key] = float(value)
                else:
                    raise ConfigurationError(
                        f"unknown fault plan key: {key!r}"
                    )
            except ValueError as exc:
                raise ConfigurationError(
                    f"bad fault plan value for {key!r}: {value!r}"
                ) from exc
        return cls(
            seed=seed,
            default_loss=default_loss,
            loss_by_kind=by_kind,
            beacon_loss=beacon_loss,
            clock_jitter_s=jitter,
            crashes=tuple(crashes),
        )
