"""Martin's system-level energy model (paper Section 2.4).

At frequency ``f`` the *system* (CPU + memory + fixed-power peripherals +
second-order regulator/leakage effects) draws dynamic power

    P(f) = S3·f³ + S2·f² + S1·f + S0,

so the expected energy consumed **per cycle** is

    E(f) = S3·f² + S2·f + S1 + S0/f.            (paper Eq. 1)

The S0 term makes slower-not-always-better: below some frequency the
fixed system power dominates and energy per cycle rises again, which is
what gives each task a UER-*optimal* frequency that is "not necessarily
the lowest one".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .frequency import FrequencyScale

__all__ = [
    "EnergyModel",
    "EnergyError",
    "energy_optimal_frequency",
]


class EnergyError(ValueError):
    """Raised for ill-formed energy-model parameters."""


@dataclass(frozen=True)
class EnergyModel:
    """Per-cycle system energy ``E(f) = s3·f² + s2·f + s1 + s0/f``.

    Coefficients are non-negative; at least one must be positive.  Units
    are arbitrary (the paper reports only normalised energies); the
    coefficients in the Table 2 presets pair with frequencies in MHz.
    """

    s3: float = 0.0
    s2: float = 0.0
    s1: float = 0.0
    s0: float = 0.0
    name: str = ""

    def __post_init__(self) -> None:
        for label, v in (("s3", self.s3), ("s2", self.s2), ("s1", self.s1), ("s0", self.s0)):
            if v < 0.0 or not math.isfinite(v):
                raise EnergyError(f"{label} must be finite and >= 0, got {v!r}")
        if self.s3 == self.s2 == self.s1 == self.s0 == 0.0:
            raise EnergyError("at least one coefficient must be positive")
        # Per-frequency memo for energy_per_cycle: the scheduler hot
        # paths price the same handful of ladder levels millions of
        # times per sweep (UER denominators, quantisation, accounting).
        # Values are the cached results of the exact computation, so
        # observable behaviour is bit-identical with or without it.
        object.__setattr__(self, "_epc_cache", {})

    # ------------------------------------------------------------------
    # Paper presets (Table 2).  The scanned coefficients are OCR-damaged;
    # see DESIGN.md for the reconstruction rationale.  E1 is the stated
    # conventional CPU-only cubic model.
    # ------------------------------------------------------------------
    @classmethod
    def e1(cls) -> "EnergyModel":
        """E1: conventional CPU-only model, ``P = f³`` (S3 = 1)."""
        return cls(s3=1.0, name="E1")

    @classmethod
    def e2(cls, f_max: float) -> "EnergyModel":
        """E2: half the cubic CPU term plus frequency-proportional
        subsystem power ``S1 = 0.1·f_max²`` (memory-like component)."""
        cls._check_fmax(f_max)
        return cls(s3=0.5, s1=0.1 * f_max**2, name="E2")

    @classmethod
    def e3(cls, f_max: float) -> "EnergyModel":
        """E3: half the cubic CPU term plus large fixed system power
        ``S0 = 0.5·f_max³`` (display-like component) — the setting where
        aggressive down-scaling stops paying off."""
        cls._check_fmax(f_max)
        return cls(s3=0.5, s0=0.5 * f_max**3, name="E3")

    @staticmethod
    def _check_fmax(f_max: float) -> None:
        if f_max <= 0.0 or not math.isfinite(f_max):
            raise EnergyError(f"f_max must be finite and > 0, got {f_max!r}")

    @classmethod
    def cpu_only(cls, s3: float = 1.0) -> "EnergyModel":
        """Pure ``S3·f³`` CPU model with a configurable constant."""
        return cls(s3=s3, name=f"cpu_only(s3={s3})")

    # ------------------------------------------------------------------
    def energy_per_cycle(self, frequency: float) -> float:
        """``E(f)`` — expected energy for one (M)cycle at ``frequency``.

        Memoized per frequency (only valid frequencies are cached, so
        the ``frequency <= 0`` check still fires on every bad call).
        """
        epc = self._epc_cache.get(frequency)
        if epc is None:
            if frequency <= 0.0:
                raise EnergyError(f"frequency must be > 0, got {frequency!r}")
            f = frequency
            epc = self.s3 * f * f + self.s2 * f + self.s1 + self.s0 / f
            self._epc_cache[frequency] = epc
        return epc

    def power(self, frequency: float) -> float:
        """Dynamic system power ``P(f) = f · E(f)``."""
        return frequency * self.energy_per_cycle(frequency)

    def energy_for(self, cycles: float, frequency: float) -> float:
        """Energy to execute ``cycles`` at ``frequency``."""
        if cycles < 0.0:
            raise EnergyError(f"cycles must be >= 0, got {cycles!r}")
        return cycles * self.energy_per_cycle(frequency)

    def has_fixed_power(self) -> bool:
        """Whether the model includes frequency-independent power (S0)."""
        return self.s0 > 0.0

    def __str__(self) -> str:
        return self.name or (
            f"EnergyModel(s3={self.s3}, s2={self.s2}, s1={self.s1}, s0={self.s0})"
        )


def energy_optimal_frequency(model: EnergyModel, scale: FrequencyScale) -> float:
    """Level of ``scale`` minimising energy-per-cycle ``E(f)``.

    With ``s0 == 0`` this is always ``f_min``; with fixed system power the
    minimum can move strictly inside the ladder.  (The *UER*-optimal
    frequency, which also weighs utility decay, lives in
    :mod:`repro.core.offline` because it needs the task's TUF.)
    """
    return min(scale.levels, key=model.energy_per_cycle)
