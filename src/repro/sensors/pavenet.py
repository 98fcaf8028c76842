"""The PAVENET node model: firmware loop, LEDs, EEPROM, radio uplink.

Each tool carries one node.  The firmware is the same on every node
(the paper stresses this is what makes CoReDA "easily generalize to
other ADLs" -- only the uid differs): a 10 Hz sampling loop feeds the
3-of-10 detector, and each detection is logged to EEPROM and uplinked
as a ``usage`` frame carrying the node uid.  Downlink ``led`` frames
blink the requested LED.

The firmware samples in **blocks**: one kernel event per block of
samples, drawn vectorised from the
:class:`~repro.sensors.signals.SignalSource` and fed to the detector
in one call, with usage reports scheduled at their exact per-sample
timestamps.  An active tool is sampled in 10-sample (1 s) blocks; an
idle one in blocks that double over consecutive idle blocks, up to
60 s (*idle-horizon sampling*).  When the resident flips the signal
regime mid-block, or the node is stopped, the node rolls the
source/detector back to the block start, replays the committed
prefix, and resumes from the first uncommitted timestamp -- so the
event stream is byte-identical to a per-sample loop (see
``docs/architecture.md``).

Battery-powered nodes run that per-sample loop: the battery drains
per sample *interleaved* with transmit drains, an ordering a
pre-drawn block cannot reproduce.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.adl import Tool
from repro.core.config import SensingConfig
from repro.sensors.battery import Battery, PowerProfile
from repro.sensors.clock import RealTimeClock
from repro.sensors.detector import DetectorState, KofNDetector
from repro.sensors.eeprom import EepromLog, EepromRecord
from repro.sensors.hardware import LED_COLORS, PAVENET_SPEC, HardwareSpec
from repro.sensors.radio import (
    BASE_STATION_UID,
    DuplicateFilter,
    Frame,
    RadioMedium,
)
from repro.sensors.signals import SignalSource, SourceState
from repro.sim.kernel import Event, Simulator
from repro.sim.process import Process, Timeout
from repro.sim.tracing import TraceRecorder

__all__ = ["Led", "PavenetNode"]

#: Samples per block while the tool is handled (1 s at 10 Hz), and the
#: first idle block's length.  A pure speed constant: any block
#: lengths replay the same event stream.
_BLOCK_SAMPLES = 10
#: Cap on the idle block length (60 s at 10 Hz).  Idle blocks double
#: up to it, so a tail discarded by a regime change is never longer
#: than the idle time that preceded it.
_MAX_IDLE_SAMPLES = 600


@dataclass
class BlinkRecord:
    """One executed blink command."""

    time: float
    blinks: int


class Led:
    """One of the node's four LEDs.

    Blink commands are recorded with their timestamps; the Figure 1
    scenario harness reads these back to verify e.g. "Red LED on
    teacup" fired at the wrong-tool moment.
    """

    def __init__(self, color: str) -> None:
        self.color = color
        self.history: List[BlinkRecord] = []
        self._total_blinks = 0

    def blink(self, time: float, count: int) -> None:
        """Execute a blink command of ``count`` flashes."""
        if count <= 0:
            raise ValueError("blink count must be positive")
        self.history.append(BlinkRecord(time=time, blinks=count))
        self._total_blinks += count

    @property
    def total_blinks(self) -> int:
        """Total flashes executed since boot (O(1) running counter)."""
        return self._total_blinks

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Led({self.color!r}, commands={len(self.history)})"


class PavenetNode:
    """A simulated PAVENET module attached to one tool.

    Parameters mirror the physical build: the node's ``uid`` *is* the
    ToolID (paper section 2.1), the signal source stands in for the
    physical sensor, and the radio medium carries usage frames to the
    base station (uid 0).
    """

    def __init__(
        self,
        sim: Simulator,
        tool: Tool,
        source: SignalSource,
        radio: RadioMedium,
        config: SensingConfig,
        trace: Optional[TraceRecorder] = None,
        spec: HardwareSpec = PAVENET_SPEC,
        battery: Optional[Battery] = None,
        power_profile: Optional[PowerProfile] = None,
    ) -> None:
        self.sim = sim
        self.tool = tool
        self.uid = tool.tool_id
        self.source = source
        self.radio = radio
        self.config = config
        self.spec = spec
        self._trace = trace
        self.detector = KofNDetector(
            threshold=config.usage_threshold,
            k=config.threshold_count,
            n=config.window_size,
            refractory_samples=int(config.refractory_period * config.sampling_hz),
        )
        self.eeprom = EepromLog(spec.eeprom_bytes)
        self.rtc = RealTimeClock(drift_ppm=20.0 + (self.uid % 7) * 5.0)
        self.leds: Dict[str, Led] = {color: Led(color) for color in LED_COLORS}
        self._sequence = itertools.count(1)
        self._loop: Optional[Process] = None
        self.usage_reports = 0
        self._dedupe = DuplicateFilter()
        #: None = mains powered (tests and most experiments); a real
        #: Battery makes the node mortal.
        self.battery = battery
        self.power_profile = (
            power_profile if power_profile is not None else PowerProfile()
        )
        # Block sampler state (see module docstring).
        self._hz = config.sampling_hz
        self._period = 1.0 / config.sampling_hz
        self._idle_samples = _BLOCK_SAMPLES
        self._block_running = False
        #: True from start() until the first block is drawn, and
        #: ``_block_booted`` for that first block: its event was
        #: scheduled where a per-sample loop schedules its first read.
        self._booting = False
        self._block_booted = False
        self._block_event: Optional[Event] = None
        self._block_t0: Optional[float] = None
        self._block_n = 0
        self._block_last = 0.0
        self._block_source_state: Optional[SourceState] = None
        self._block_detector_state: Optional[DetectorState] = None
        # Usage reports scheduled for the current block's later hits.
        self._block_pending: List[Event] = []
        source.subscribe_regime(self._on_regime_change)
        radio.attach(self.uid, self._on_frame)

    def start(self) -> None:
        """Boot the firmware: begin the 10 Hz sampling loop."""
        if self.running:
            return
        if self.battery is not None:
            self._start_per_sample()
            return
        self._idle_samples = _BLOCK_SAMPLES
        self._block_running = True
        self._booting = True
        self._block_event = self.sim.schedule(0.0, self._process_block)

    def _start_per_sample(self) -> None:
        self._loop = Process(
            self.sim, self._firmware_loop(), name=f"node{self.uid}.firmware"
        )

    def stop(self) -> None:
        """Power the node down (sampling stops, radio stays attached).

        The pre-drawn tail of the current block is rolled back, so the
        source and detector are left exactly where a per-sample loop
        stopped at this instant would leave them.
        """
        if self._loop is not None:
            self._loop.interrupt()
            self._loop = None
        if self._block_running:
            self._block_running = False
            self._rollback()
            if self._block_event is not None:
                self._block_event.cancel()
                self._block_event = None
            self._block_pending = []
            self._block_t0 = None

    @property
    def running(self) -> bool:
        """True while the firmware (loop or block sampler) is alive."""
        if self._block_running:
            return True
        return self._loop is not None and not self._loop.done

    # ----- per-sample firmware (battery-powered nodes) -----------------

    def _firmware_loop(self):
        period = self._period
        while True:
            if not self._drain(
                self.power_profile.sample_cost_mj
                + self.power_profile.idle_cost_mj_per_s * period
            ):
                if self._trace is not None:
                    self._trace.emit(self.sim.now, "node.battery_dead",
                                     uid=self.uid)
                return  # the node dies in place
            sample = self.source.read(self.sim.now)
            if self.detector.observe(sample):
                self._report_usage()
            yield Timeout(period)

    # ----- block sampler -----------------------------------------------

    def _block_sample_times(self, start: float, n: int) -> np.ndarray:
        """Sample timestamps of a block, accumulated by repeated float
        addition exactly like a per-sample loop's ``Timeout(period)``
        clock: ``np.cumsum`` adds sequentially, so it reproduces the
        same bits.  Deterministic, so a rollback rebuilds them instead
        of keeping them per block.
        """
        steps = np.full(n, self._period)
        steps[0] = start
        return np.cumsum(steps)

    def _process_block(self) -> None:
        sim = self.sim
        source = self.source
        t0 = sim.now
        until = source.active_until
        if source.active and t0 < until:
            n = _BLOCK_SAMPLES
            times = self._block_sample_times(t0, n)
            if until != float("inf"):
                # Truncate at the known expiry so a block never spans
                # it; at least the first sample precedes it.
                n = int(times.searchsorted(until))
                times = times[:n]
        else:
            # Idle (or expiring at the first read): the horizon doubles
            # until a regime change or restart resets it.
            n = self._idle_samples
            self._idle_samples = min(2 * n, _MAX_IDLE_SAMPLES)
            times = self._block_sample_times(t0, n)
        # Snapshot everything a mid-block regime change would need to
        # roll back: RNG + regime, detector window.
        self._block_source_state = source.capture()
        self._block_detector_state = self.detector.snapshot()
        hits = self.detector.observe_block(source.read_block(t0, n, self._hz))
        self._block_pending = pending = []
        for index in hits:
            if index == 0:
                self._report_usage()
            else:
                pending.append(
                    sim.schedule_at(float(times[index]), self._report_usage)
                )
        last = float(times[-1])
        self._block_t0 = t0
        self._block_n = n
        self._block_last = last
        self._block_booted = self._booting
        self._booting = False
        self._block_event = sim.schedule_at(
            last + self._period, self._process_block
        )

    def _on_regime_change(self) -> None:
        """Resynchronise after ``begin_use``/``end_use``.

        The pre-drawn tail was drawn from the wrong regime: roll it
        back, re-apply the new regime on top of the committed prefix,
        and resume block sampling at the first uncommitted timestamp
        with the idle horizon reset.
        """
        if not self._block_running:
            return
        self._idle_samples = _BLOCK_SAMPLES
        source = self.source
        regime = (source.active, source.active_until)
        resume = self._rollback(regime)
        if resume is not None:
            self._block_event = self.sim.schedule_at(
                resume, self._process_block
            )

    def _rollback(
        self, regime: Optional[Tuple[bool, float]] = None
    ) -> Optional[float]:
        """Undo the current block's samples a per-sample loop has not
        read yet.

        Samples at ``t < now`` are *committed* -- a per-sample loop
        would have read them already, and their draws and any usage
        reports happened with identical bytes.  A sample at exactly
        ``now`` is committed only between runs: a per-sample loop
        schedules each read one period ahead, so an event firing at a
        sample's instant precedes that read unless it was scheduled
        less than a period earlier (the first read after ``start()``
        is scheduled by the call itself, so it keeps its order).

        Uncommitted samples must not have happened: cancel their usage
        reports and the next block event, roll the source and detector
        back to the block start, and replay the committed prefix
        (restoring the exact RNG position and window state).
        ``regime``, if given, is re-applied on top.  Returns the first
        uncommitted sample time, or None when the whole block is
        committed.
        """
        t0 = self._block_t0
        if t0 is None:
            return None
        sim = self.sim
        now = sim.now
        if now > self._block_last:
            return None
        times = self._block_sample_times(t0, self._block_n)
        if sim.dispatching:
            j = max(int(times.searchsorted(now)), int(self._block_booted))
        else:
            j = int(times.searchsorted(now, side="right"))
        if j == len(times):
            return None
        resume = float(times[j])
        kept: List[Event] = []
        for event in self._block_pending:
            if event.time >= resume:
                event.cancel()
            else:
                kept.append(event)
        self._block_pending = kept
        if self._block_event is not None:
            self._block_event.cancel()
            self._block_event = None
        source = self.source
        source.restore(self._block_source_state)
        self.detector.restore(self._block_detector_state)
        if j:
            # Replay for state only: the committed hits already fired
            # (or sit in ``kept``), so the indices are discarded.
            self.detector.observe_block(source.read_block_at(times[:j]))
        if regime is not None:
            source.set_regime(*regime)
        self._block_t0 = None
        return resume

    # ----- shared machinery --------------------------------------------

    def _drain(self, amount_mj: float) -> bool:
        if self.battery is None:
            return True
        return self.battery.drain(amount_mj)

    def _report_usage(self) -> None:
        sequence = next(self._sequence)
        self.usage_reports += 1
        self.eeprom.append(
            EepromRecord(
                timestamp=self.rtc.local_time(self.sim.now),
                node_uid=self.uid,
                sequence=sequence,
            )
        )
        if self._trace is not None:
            self._trace.emit(
                self.sim.now, "node.usage_detected", uid=self.uid, sequence=sequence
            )
        self._drain(self.power_profile.tx_attempt_cost_mj)
        self.radio.transmit(
            Frame(
                src_uid=self.uid,
                dst_uid=BASE_STATION_UID,
                kind="usage",
                sequence=sequence,
            )
        )

    def _on_frame(self, frame: Frame) -> None:
        if frame.kind != "led":
            return
        if not self._dedupe.is_fresh(frame):
            # ARQ duplicate of a blink command already executed.
            return
        color = frame.payload.get("color", "green")
        blinks = int(frame.payload.get("blinks", 1))
        led = self.leds.get(color)
        if led is None:
            return
        if not self._drain(blinks * self.power_profile.led_blink_cost_mj):
            return
        led.blink(self.sim.now, blinks)
        if self._trace is not None:
            self._trace.emit(
                self.sim.now,
                "node.led",
                uid=self.uid,
                color=color,
                blinks=blinks,
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PavenetNode(uid={self.uid}, tool={self.tool.name!r})"
