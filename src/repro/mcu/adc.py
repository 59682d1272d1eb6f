"""A 12-bit successive-approximation ADC model.

Two ADCs appear in the system: the target MCU's own ADC (used by
applications to read sensors, and — expensively — to self-measure the
capacitor voltage) and EDB's ADC (used to digitise Vcap/Vreg for energy
monitoring and the save/restore control loops).  Both share this model:
12-bit quantisation over a reference voltage, an effective resolution of
about 1 mV, and optional Gaussian noise.

The paper's Table 3 bounds the save/restore accuracy by exactly this
ADC: "a 12-bit ADC with effective resolution of approximately 1 mV
imposes a theoretical lower bound on dE of 0.08 %".
"""

from __future__ import annotations

from typing import Callable

from repro.sim.rng import RngHub


class Adc:
    """12-bit ADC over a voltage reference.

    Parameters
    ----------
    reference_voltage:
        Full-scale input voltage; codes span ``[0, 2^bits - 1]``.
    bits:
        Resolution in bits (12 on both the MSP430 and EDB's MCU).
    noise_sigma_v:
        Gaussian input-referred noise in volts (0 disables noise).
    rng / stream:
        Random hub and stream name for the noise draws.
    """

    def __init__(
        self,
        reference_voltage: float = 3.3,
        bits: int = 12,
        noise_sigma_v: float = 0.0,
        rng: RngHub | None = None,
        stream: str = "adc-noise",
    ) -> None:
        if bits <= 0:
            raise ValueError(f"bits must be positive (got {bits})")
        if reference_voltage <= 0.0:
            raise ValueError("reference voltage must be positive")
        self.reference_voltage = reference_voltage
        self.bits = bits
        self.noise_sigma_v = noise_sigma_v
        self._rng = rng
        self._stream = stream
        self.samples_taken = 0
        #: Largest output code (``2^bits - 1``).
        self.max_code = (1 << bits) - 1
        #: Voltage represented by one code step.
        self.lsb_volts = reference_voltage / (1 << bits)

    def sample(self, voltage: float) -> int:
        """Digitise ``voltage`` to an output code (clamped to range)."""
        if self.noise_sigma_v > 0.0 and self._rng is not None:
            voltage += self._rng.gauss(self._stream, 0.0, self.noise_sigma_v)
        code = round(voltage / self.lsb_volts)
        self.samples_taken += 1
        return min(max(code, 0), self.max_code)

    def to_volts(self, code: int) -> float:
        """Convert an output code back to volts."""
        return code * self.lsb_volts

    def measure(self, voltage: float) -> float:
        """Digitise and convert back: the voltage as the MCU perceives it.

        ``sample`` and ``to_volts`` in one call: the energy sampler and
        the charge/discharge control loops measure on every tick.
        """
        if self.noise_sigma_v > 0.0 and self._rng is not None:
            voltage += self._rng.gauss(self._stream, 0.0, self.noise_sigma_v)
        lsb = self.lsb_volts
        code = round(voltage / lsb)
        self.samples_taken += 1
        if code < 0:
            code = 0
        elif code > self.max_code:
            code = self.max_code
        return code * lsb


class AdcChannelMux:
    """Named analog channels in front of a single ADC.

    Register channels with a probe callable that returns the live
    voltage; ``read(name)`` samples it through the converter.
    """

    def __init__(self, adc: Adc) -> None:
        self.adc = adc
        self._channels: dict[str, Callable[[], float]] = {}

    def add_channel(self, name: str, probe: Callable[[], float]) -> None:
        """Connect an analog signal to a named channel."""
        if name in self._channels:
            raise ValueError(f"channel {name!r} already connected")
        self._channels[name] = probe

    def read(self, name: str) -> float:
        """Sample a channel, returning the ADC-quantised voltage."""
        try:
            probe = self._channels[name]
        except KeyError:
            raise KeyError(
                f"no ADC channel {name!r}; have {sorted(self._channels)}"
            ) from None
        return self.adc.measure(probe())

    def read_code(self, name: str) -> int:
        """Sample a channel, returning the raw ADC code."""
        return self.adc.sample(self._channels[name]())

    def channels(self) -> list[str]:
        """All connected channel names."""
        return sorted(self._channels)
