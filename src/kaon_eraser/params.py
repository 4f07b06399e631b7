"""Physical constants and configuration for the neutral-kaon pair simulator.

Unit convention
---------------
All proper times are measured in units of the K_S lifetime tau_S, all decay
widths and the mass splitting in units of 1/tau_S, with hbar = 1.  In these
units gamma_s = 1 by convention.  Only the mass difference m(K_L) - m(K_S)
is observable, so the mass scale is fixed by m(K_S) = 0, m(K_L) = delta_m.

Configuration files are flat JSON objects whose keys are exactly the field
names of :class:`PhysicsParams`.  Missing keys take the defaults below;
unknown keys are a hard error (this catches typos early).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import numbers
from pathlib import Path
from typing import Mapping, Optional, Union


class ParamsError(ValueError):
    """A configuration document is malformed or violates an invariant."""


#: Tolerance for the per-eigenstate branching-fraction budget (sum <= 1).
BRANCHING_TOL = 1e-12


@dataclasses.dataclass(frozen=True)
class PhysicsParams:
    """Immutable bundle of physical constants.

    Instances are validated on construction and safe to share across
    threads.  The defaults describe the physical neutral-kaon system with
    the width ratio gamma_s/gamma_l = 579 and branching fractions rounded
    from standard particle-data values, subject to the exact decay-width
    tie required by the Delta-S = Delta-Q rule (see
    :mod:`kaon_eraser.decay`):

        br_semileptonic_s * gamma_s == br_semileptonic_l * gamma_l
    """

    gamma_s: float = 1.0
    gamma_l: float = 1.0 / 579.0
    delta_m: float = 0.47
    br_s_2pi: float = 0.9988
    br_l_3pi: float = 0.3052
    br_semileptonic_s: float = 0.0012
    br_semileptonic_l: float = 0.6948
    lifetime_window: float = 4.8

    def __post_init__(self) -> None:
        for name in _FIELD_NAMES:
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ParamsError(f"key '{name}': expected a number, got {value!r}")
            if not math.isfinite(value):
                raise ParamsError(f"key '{name}': value must be finite, got {value!r}")
            object.__setattr__(self, name, float(value))
        if not self.gamma_l > 0.0:
            raise ParamsError("gamma_l must be > 0")
        if not self.gamma_s > self.gamma_l:
            raise ParamsError("gamma_s > gamma_l violated")
        if self.delta_m < 0.0:
            raise ParamsError("delta_m must be >= 0")
        if not self.lifetime_window > 0.0:
            raise ParamsError("lifetime_window must be > 0")
        for label, fractions in (
            ("K_S", (self.br_s_2pi, self.br_semileptonic_s)),
            ("K_L", (self.br_l_3pi, self.br_semileptonic_l)),
        ):
            if any(f < 0.0 for f in fractions):
                raise ParamsError(f"branching fractions of {label} must be >= 0")
            total = sum(fractions)
            if total > 1.0 + BRANCHING_TOL:
                raise ParamsError(
                    f"branching fractions of {label} sum to {total!r} > 1; the"
                    " residual 'other' channel cannot absorb a negative remainder"
                )
        # the lru_caches keyed on a parameter set hash it on every lookup, and
        # compare it with the cached set unless it is that very object
        key = tuple(getattr(self, n) for n in _FIELD_NAMES)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

    def __eq__(self, other: object) -> bool:
        """Equal field values: one comparison of the stored field tuples."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        """The hash of the field tuple, computed once at construction."""
        return self._hash

    # Derived accessors -------------------------------------------------

    @property
    def br_s_other(self) -> float:
        """Residual K_S branching fraction not used for identification."""
        return max(0.0, 1.0 - self.br_s_2pi - self.br_semileptonic_s)

    @property
    def br_l_other(self) -> float:
        """Residual K_L branching fraction not used for identification."""
        return max(0.0, 1.0 - self.br_l_3pi - self.br_semileptonic_l)

    # cached in the instance dict, which the frozen dataclass leaves writable
    # to cached_property: the closed forms read these on every call
    @functools.cached_property
    def delta_gamma(self) -> float:
        """Width difference gamma_l - gamma_s (strictly negative)."""
        return self.gamma_l - self.gamma_s

    @functools.cached_property
    def lambda_s(self) -> complex:
        """Complex propagation eigenvalue of K_S: m_S - i*gamma_s/2, m_S = 0."""
        return complex(0.0, -0.5 * self.gamma_s)

    @functools.cached_property
    def lambda_l(self) -> complex:
        """Complex propagation eigenvalue of K_L: delta_m - i*gamma_l/2."""
        return complex(self.delta_m, -0.5 * self.gamma_l)

    # Serialization ------------------------------------------------------

    def to_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in _FIELD_NAMES}

    def to_json(self) -> str:
        """Canonical JSON form (sorted keys, repr floats); digest input."""
        return json.dumps(self.to_dict(), sort_keys=True)

    def digest(self) -> str:
        """Content hash of the parameter set, 'sha256:<hex>'."""
        return "sha256:" + hashlib.sha256(self.to_json().encode()).hexdigest()


_FIELD_NAMES = tuple(f.name for f in dataclasses.fields(PhysicsParams))


def check_times(*times: float) -> None:
    """Refuse proper times that are not finite and >= 0.  The check asks
    for the good case, so a NaN, which compares false, fails it."""
    for tau in times:
        if not 0.0 <= tau < math.inf:
            raise ValueError(f"each time tau must be finite and >= 0, got {times}")


def check_integer(name: str, value: object, least: Optional[int] = None) -> None:
    """Refuse ``value`` unless it is a Python or NumPy integer, not a bool,
    and at least ``least``.  Without ``least`` it is a seed, which runs from
    0 to 2**64 - 1: NumPy's ``Philox`` key and ``default_rng`` seeds take
    64 bits."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is None:
        if not 0 <= value < 2**64:
            raise ValueError(f"{name} must be an integer in [0, 2**64), got {value!r}")
    elif value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def load_params(
    source: Union[None, str, Path, Mapping[str, float]] = None,
) -> PhysicsParams:
    """Build validated :class:`PhysicsParams` from a configuration source.

    ``source`` may be None (all defaults), a mapping, or a path to a JSON
    file.  Unknown keys raise :class:`ParamsError` naming the key.
    """
    if source is None:
        return PhysicsParams()
    if isinstance(source, Mapping):
        data = dict(source)
    else:
        path = Path(source)
        try:
            raw = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ParamsError(f"{path}: not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ParamsError(f"{path}: expected a flat JSON object")
        data = raw
    unknown = sorted(set(data) - set(_FIELD_NAMES))
    if unknown:
        raise ParamsError(
            "unknown key(s): " + ", ".join(unknown)
            + "; valid keys are " + ", ".join(_FIELD_NAMES)
        )
    return PhysicsParams(**data)
