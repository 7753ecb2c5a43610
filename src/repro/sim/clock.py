"""Time units and clock-domain conversion.

All simulation timestamps are integer picoseconds.  A :class:`Clock` converts
between cycles in a particular clock domain and picoseconds, rounding cycle
counts up so that a component never finishes early.
"""

from __future__ import annotations

#: One picosecond -- the base unit of simulated time.
PS = 1
#: One nanosecond in picoseconds.
NS = 1_000
#: One microsecond in picoseconds.
US = 1_000_000
#: One millisecond in picoseconds.
MS = 1_000_000_000
#: One second in picoseconds.
SEC = 1_000_000_000_000

#: One megahertz, for frequency arguments expressed in Hz.
MHZ = 1_000_000
#: One gigahertz, for frequency arguments expressed in Hz.
GHZ = 1_000_000_000


class Clock:
    """A fixed-frequency clock domain.

    Parameters
    ----------
    freq_hz:
        Clock frequency in hertz.  The paper's reference design runs the RMT
        pipeline and on-chip network at 500 MHz (section 4.2), which is the
        default throughout the library.
    """

    __slots__ = ("freq_hz", "period_ps")

    def __init__(self, freq_hz: float = 500 * MHZ):
        if freq_hz <= 0:
            raise ValueError(f"clock frequency must be positive, got {freq_hz}")
        self.freq_hz = freq_hz
        period = SEC / freq_hz
        if period < 1:
            raise ValueError(f"clock frequency {freq_hz} Hz is above 1 THz")
        self.period_ps = int(round(period))

    def cycles_to_ps(self, cycles: float) -> int:
        """Return the duration of ``cycles`` clock cycles in picoseconds.

        Fractional cycle counts are allowed (e.g. an analytically derived
        service time); the result is rounded up to a whole picosecond.
        A pure function of ``cycles``: a clock holds no state a run
        changes, so every component of one frequency may share one.
        """
        if cycles < 0:
            raise ValueError(f"cycle count must be non-negative, got {cycles}")
        ps = cycles * self.period_ps
        ips = int(ps)
        return ips if ips == ps else ips + 1

    def __repr__(self) -> str:
        return f"Clock({self.freq_hz / MHZ:g} MHz, period={self.period_ps} ps)"


def format_time(ps: int) -> str:
    """Render a picosecond timestamp with a human-friendly unit."""
    if ps >= SEC:
        return f"{ps / SEC:.3f} s"
    if ps >= MS:
        return f"{ps / MS:.3f} ms"
    if ps >= US:
        return f"{ps / US:.3f} us"
    if ps >= NS:
        return f"{ps / NS:.3f} ns"
    return f"{ps} ps"
