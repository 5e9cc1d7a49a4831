"""Watermark hysteresis: the one definition of a pressure source.

Every resource the serving layer watches (``repro.core.overload``) —
the packet pools, the PM arena allocator, the metadata slab, an LSM
engine's current memtable and the CPU run queues — subclasses
:class:`PressureSignal` and keeps only the code that reads its own
level.  The pools and the arena push a new level on every alloc and
release; the adapters are polled through their ``update()``.

This module imports nothing from the package, so both ``repro.net``
and ``repro.pm`` can build on it.
"""


class PressureSignal:
    """``under_pressure`` with hysteresis, plus transition listeners.

    The flag rises when the level reaches ``high_watermark`` and falls
    once the level drops below ``low_watermark`` — or reaches it, when
    the subclass sets ``clears_at_low``.  Each rise counts one
    ``pressure_event``; every transition calls the listeners as
    ``listener(source, under_pressure)`` in registration order.
    """

    #: Clear at ``level <= low_watermark`` instead of ``< low_watermark``.
    clears_at_low = False

    def __init__(self, high_watermark=0.9, low_watermark=0.7, ceiling=1.0):
        if not 0.0 < low_watermark <= high_watermark <= ceiling:
            raise ValueError(
                f"need 0 < low_watermark <= high_watermark <= {ceiling}")
        self.high_watermark = high_watermark
        self.low_watermark = low_watermark
        self.under_pressure = False
        self.pressure_events = 0
        self._pressure_listeners = []

    def add_pressure_listener(self, callback):
        """``callback(source, under_pressure)`` fires on each crossing."""
        self._pressure_listeners.append(callback)
        return callback

    def observe(self, level):
        """Take the current level; flips the flag on a watermark crossing."""
        if not self.under_pressure:
            if level >= self.high_watermark:
                self.under_pressure = True
                self.pressure_events += 1
                for listener in self._pressure_listeners:
                    listener(self, True)
        elif level < self.low_watermark or (
                self.clears_at_low and level == self.low_watermark):
            self.under_pressure = False
            for listener in self._pressure_listeners:
                listener(self, False)
