"""Energy-harvesting power traces.

The paper powers its MCU from a solar profile (NREL Oak Ridge rotating
shadowband radiometer data [17]); that dataset is not available offline, so
:func:`solar_trace` synthesizes the same character — a diurnal envelope
modulated by cloud occlusion (an Ornstein-Uhlenbeck process squashed to
[0, 1]) plus sensor noise.  Kinetic (bursty), RF (weak, steady), wind
(gusty, cubic-response), piezo (duty-cycled vibration), and constant
traces support ablations and heterogeneous fleet scenarios, and
:func:`trace_from_csv` loads real measurement files.

A :class:`PowerTrace` stores power samples on a uniform grid and exposes
interpolation, windowed means (the runtime's "charging efficiency" signal),
and exact cumulative-energy queries used by the simulator.
"""

from __future__ import annotations

import os
from typing import Optional

import numpy as np

from repro.errors import ConfigError, EnergyError
from repro.utils.rng import as_generator


class PowerTrace:
    """Harvested power (milliWatts) sampled on a uniform time grid."""

    def __init__(self, samples_mw: np.ndarray, dt: float, name: str = "trace"):
        samples = np.asarray(samples_mw, dtype=np.float64)
        if samples.ndim != 1 or samples.size < 2:
            raise ConfigError("trace needs a 1-D array of at least 2 samples")
        if dt <= 0:
            raise ConfigError("dt must be positive")
        if np.any(samples < 0):
            raise EnergyError("harvested power cannot be negative")
        self.samples_mw = samples
        self.dt = float(dt)
        self.name = name
        # Trapezoidal cumulative energy in mJ for O(1) interval queries.
        increments = 0.5 * (samples[1:] + samples[:-1]) * dt
        self._cum_energy = np.concatenate([[0.0], np.cumsum(increments)])

    @property
    def duration(self) -> float:
        """Trace length in seconds."""
        return (len(self.samples_mw) - 1) * self.dt

    def _clip_time(self, t: float) -> float:
        return min(max(t, 0.0), self.duration)

    def power(self, t):
        """Instantaneous power (mW) at ``t``, linearly interpolated.

        ``t`` may be a scalar (returns ``float``) or an array of times
        (returns an array via NumPy broadcasting) — the fleet layer queries
        traces in bulk, so the array path avoids a Python-level loop.
        """
        arr = np.asarray(t, dtype=np.float64)
        if arr.ndim == 0:
            tc = self._clip_time(float(arr))
            pos = tc / self.dt
            i = int(pos)
            if i >= len(self.samples_mw) - 1:
                return float(self.samples_mw[-1])
            frac = pos - i
            return float((1 - frac) * self.samples_mw[i] + frac * self.samples_mw[i + 1])
        pos = np.clip(arr, 0.0, self.duration) / self.dt
        i = np.minimum(pos.astype(np.int64), len(self.samples_mw) - 2)
        frac = pos - i
        return (1 - frac) * self.samples_mw[i] + frac * self.samples_mw[i + 1]

    def energy_between(self, t0, t1):
        """Harvested energy (mJ) in ``[t0, t1]``.

        ``t0``/``t1`` may be scalars (returns ``float``) or equal-shaped
        arrays of interval endpoints (returns an array) — the simulator
        precomputes every event's charge increment in one bulk query
        instead of interpolating per event.
        """
        if np.ndim(t0) == 0 and np.ndim(t1) == 0:
            if t1 < t0:
                raise EnergyError(f"interval reversed: {t0} > {t1}")
            return self._cum_at(self._clip_time(t1)) - self._cum_at(self._clip_time(t0))
        t0 = np.asarray(t0, dtype=np.float64)
        t1 = np.asarray(t1, dtype=np.float64)
        if np.any(t1 < t0):
            raise EnergyError("interval reversed in bulk energy query")
        duration = self.duration
        return self._cum_bulk(np.clip(t1, 0.0, duration)) - self._cum_bulk(
            np.clip(t0, 0.0, duration)
        )

    def _cum_at(self, t: float) -> float:
        pos = t / self.dt
        i = int(pos)
        if i >= len(self.samples_mw) - 1:
            return float(self._cum_energy[-1])
        frac = pos - i
        p0 = self.samples_mw[i]
        pt = (1 - frac) * p0 + frac * self.samples_mw[i + 1]
        partial = 0.5 * (p0 + pt) * (frac * self.dt)
        return float(self._cum_energy[i] + partial)

    def _cum_bulk(self, t: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`_cum_at` over already-clipped times.

        Matches the scalar path bit-for-bit (same interpolation
        arithmetic), including the scalar early-return for positions at or
        past the last sample — ``duration / dt`` can round a hair above
        ``n - 1`` for inexact ``dt``, where interpolating instead of
        returning the exact total would drift by an ulp.
        """
        pos = np.asarray(t, dtype=np.float64) / self.dt
        last = len(self.samples_mw) - 1
        past_end = pos >= last  # same branch as the scalar i >= len-1 return
        i = np.minimum(pos.astype(np.int64), last - 1)
        frac = pos - i
        p0 = self.samples_mw[i]
        pt = (1 - frac) * p0 + frac * self.samples_mw[i + 1]
        partial = self._cum_energy[i] + 0.5 * (p0 + pt) * (frac * self.dt)
        return np.where(past_end, self._cum_energy[-1], partial)

    @property
    def total_energy_mj(self) -> float:
        return float(self._cum_energy[-1])

    def mean_power(self, t, window: float = 30.0):
        """Average power over the trailing ``window`` seconds before ``t``.

        This is the runtime's observable "charging efficiency" P: recent
        harvesting conditions, not the unknowable future.  ``t`` may be a
        scalar or an array of query times; the simulator precomputes the
        observed P for a whole event stream in one call.
        """
        if window <= 0:
            raise ConfigError("window must be positive")
        if np.ndim(t) == 0:
            t = self._clip_time(float(t))
            t0 = max(0.0, t - window)
            if t == t0:
                return self.power(t)
            return self.energy_between(t0, t) / (t - t0)
        t = np.clip(np.asarray(t, dtype=np.float64), 0.0, self.duration)
        t0 = np.maximum(0.0, t - window)
        span = t - t0
        degenerate = span <= 0.0  # only t == 0 with a positive window
        windowed = (self._cum_bulk(t) - self._cum_bulk(t0)) / np.where(
            degenerate, 1.0, span
        )
        if degenerate.any():
            return np.where(degenerate, self.power(t), windowed)
        return windowed

    def scaled(self, factor: float) -> "PowerTrace":
        """A copy with power multiplied by ``factor``."""
        if factor < 0:
            raise EnergyError("scale factor must be non-negative")
        return PowerTrace(self.samples_mw * factor, self.dt, name=f"{self.name}*{factor:g}")


def trace_from_samples(samples_mw, dt: float, name: str = "custom") -> PowerTrace:
    """Wrap raw samples in a :class:`PowerTrace`."""
    return PowerTrace(np.asarray(samples_mw), dt, name=name)


def trace_from_csv(
    path: str, dt: Optional[float] = None, name: Optional[str] = None
) -> PowerTrace:
    """Load a trace from CSV.

    Accepts one column (power mW, requires ``dt``) or two columns
    (time s, power mW on a uniform grid).  A missing file or a directory
    is a :class:`ConfigError` naming the path.
    """
    if not os.path.isfile(path):
        problem = "is a directory" if os.path.isdir(path) else "does not exist"
        raise ConfigError(f"csv trace {path!r} {problem}")
    try:
        data = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ConfigError(f"malformed CSV {path!r}: {exc}") from exc
    if data.shape[1] == 1:
        if dt is None:
            raise ConfigError("single-column CSV requires an explicit dt")
        samples = data[:, 0]
    elif data.shape[1] >= 2:
        # Extra columns (annotations etc.) are ignored, as before.
        times, samples = data[:, 0], data[:, 1]
        steps = np.diff(times)
        if steps.size == 0 or not np.allclose(steps, steps[0], rtol=1e-3):
            raise ConfigError("CSV time column must be a uniform grid")
        dt = float(steps[0])
    else:
        raise ConfigError(f"CSV must have 1 or 2 columns, got {data.shape[1]}")
    return PowerTrace(samples, dt, name=name or f"csv:{path}")


def constant_trace(power_mw: float, duration: float, dt: float = 0.1) -> PowerTrace:
    """Steady harvesting at ``power_mw`` (tethered-supply ablation)."""
    n = int(round(duration / dt)) + 1
    return PowerTrace(np.full(n, float(power_mw)), dt, name="constant")


def _ou_process(n: int, dt: float, theta: float, sigma: float, rng) -> np.ndarray:
    """Zero-mean Ornstein-Uhlenbeck path (cloud/burst dynamics).

    The Euler-Maruyama recurrence ``x[i] = phi * x[i-1] + noise[i-1]`` with
    ``phi = 1 - theta * dt`` is an exact AR(1), so the whole path follows
    from a scan: ``x[i] = phi**i * sum_{j<i} noise[j] * phi**-(j+1)``.
    Rescaling by ``phi**-j`` overflows float64 over tens of thousands of
    samples, so the scan runs in blocks sized to bound the in-block dynamic
    range at ~1e4 (keeping the result within ~1e-12 of the sequential
    loop), carrying the block-final value across block boundaries.  Traces
    of 36k-43k samples synthesize in a handful of vectorized passes instead
    of a Python-level loop per sample — the former fleet-path bottleneck.
    """
    x = np.zeros(n)
    if n < 2:
        return x
    noise = rng.normal(size=n - 1) * sigma * np.sqrt(dt)
    phi = 1.0 - theta * dt
    if phi == 0.0:
        x[1:] = noise
        return x
    abs_phi = abs(phi)
    if abs_phi == 1.0:
        block = n - 1
    else:
        log_range = abs(np.log(abs_phi))
        block = max(16, int(np.log(1e4) / log_range) + 1)
        # Never let phi**-block overflow float64, whatever the params.
        block = min(block, max(int(np.log(1e250) / log_range), 1), n - 1)
    carry = 0.0
    for start in range(0, n - 1, block):
        stop = min(start + block, n - 1)
        powers = phi ** np.arange(1, stop - start + 1)
        x[start + 1:stop + 1] = powers * (carry + np.cumsum(noise[start:stop] / powers))
        carry = x[stop]
    return x


def solar_trace(
    duration: float = 43200.0,
    dt: float = 1.0,
    peak_mw: float = 0.027,
    day_length: float = None,
    phase: float = 0.0,
    cloud_theta: float = 0.01,
    cloud_sigma: float = None,
    cloud_depth: float = 4.0,
    cloud_bias: float = 0.5,
    noise_mw: float = 0.0005,
    seed=0,
) -> PowerTrace:
    """Synthetic solar harvesting profile (NREL-trace substitute).

    ``duration`` seconds (default: a 12-hour daylight arc, matching the
    paper's day-scale solar segment) of a half-sine diurnal envelope,
    modulated by cloud occlusion and small sensor noise.  Clouds follow a
    slow Ornstein-Uhlenbeck process squashed through a sigmoid, producing
    the strongly bimodal character of real irradiance data: long clear
    stretches near full power and long deep dips at a few percent of it.
    That variability is load-bearing for the paper's comparison — an
    all-or-nothing baseline only completes inferences during clear
    stretches, while graded exits keep producing results through the dips.

    Power is clipped at zero: outside the daylight arc nothing harvests.
    """
    gen = as_generator(seed)
    n = int(round(duration / dt)) + 1
    t = np.arange(n) * dt
    if day_length is None:
        day_length = duration
    envelope = np.sin(np.pi * (t / day_length + phase))
    envelope = np.clip(envelope, 0.0, None) ** 1.5
    if cloud_sigma is None:
        cloud_sigma = float(np.sqrt(2.0 * cloud_theta))  # unit stationary std
    clouds = _ou_process(n, dt, cloud_theta, cloud_sigma, gen)
    occlusion = 1.0 / (1.0 + np.exp(-cloud_depth * (clouds - cloud_bias)))
    power = peak_mw * envelope * occlusion
    power = power + gen.normal(0.0, noise_mw, size=n)
    return PowerTrace(np.clip(power, 0.0, None), dt, name="solar")


def kinetic_trace(
    duration: float = 3600.0,
    dt: float = 0.1,
    burst_power_mw: float = 0.5,
    burst_rate_hz: float = 0.02,
    burst_length_s: float = 20.0,
    base_mw: float = 0.005,
    seed=0,
) -> PowerTrace:
    """Bursty kinetic harvesting (e.g. footsteps): idle base + active bursts."""
    gen = as_generator(seed)
    n = int(round(duration / dt)) + 1
    power = np.full(n, base_mw)
    t = 0.0
    while t < duration:
        gap = gen.exponential(1.0 / burst_rate_hz) if burst_rate_hz > 0 else duration
        t += gap
        if t >= duration:
            break
        length = gen.exponential(burst_length_s)
        i0 = int(t / dt)
        i1 = min(n, int((t + length) / dt) + 1)
        power[i0:i1] += burst_power_mw * (0.5 + 0.5 * gen.random())
        t += length
    return PowerTrace(power, dt, name="kinetic")


def wind_trace(
    duration: float = 3600.0,
    dt: float = 0.1,
    mean_speed: float = 1.0,
    turbulence: float = 0.35,
    gust_rate_hz: float = 0.005,
    gust_strength: float = 1.2,
    gust_length_s: float = 45.0,
    peak_mw: float = 0.08,
    seed=0,
) -> PowerTrace:
    """Micro wind-turbine harvesting: slow turbulence plus discrete gusts.

    Wind speed is a mean level modulated by an Ornstein-Uhlenbeck
    turbulence process with exponential gust episodes layered on top;
    harvested power follows the cubic wind-power law, normalized so that
    steady ``mean_speed`` wind yields ``peak_mw``/2.  The cubic response
    makes the trace heavy-tailed — long near-calm stretches punctuated by
    power spikes an order of magnitude above the median, a regime between
    solar (slow, bimodal) and kinetic (sparse bursts).
    """
    if mean_speed <= 0:
        raise ConfigError(f"mean_speed must be positive, got {mean_speed}")
    gen = as_generator(seed)
    n = int(round(duration / dt)) + 1
    speed = mean_speed * (1.0 + _ou_process(n, dt, theta=0.05, sigma=turbulence * np.sqrt(0.1), rng=gen))
    t = 0.0
    while t < duration and gust_rate_hz > 0:
        t += gen.exponential(1.0 / gust_rate_hz)
        if t >= duration:
            break
        length = gen.exponential(gust_length_s)
        i0 = int(t / dt)
        i1 = min(n, int((t + length) / dt) + 1)
        # Gusts ramp in and die off (half-sine profile) rather than step.
        profile = np.sin(np.linspace(0.0, np.pi, max(i1 - i0, 1)))
        speed[i0:i1] += gust_strength * mean_speed * (0.5 + 0.5 * gen.random()) * profile
        t += length
    speed = np.clip(speed, 0.0, None)
    power = 0.5 * peak_mw * (speed / mean_speed) ** 3
    return PowerTrace(np.clip(power, 0.0, None), dt, name="wind")


def piezo_trace(
    duration: float = 3600.0,
    dt: float = 0.1,
    peak_mw: float = 0.05,
    duty_cycle: float = 0.5,
    cycle_period_s: float = 120.0,
    amplitude_jitter: float = 0.3,
    base_mw: float = 0.0002,
    seed=0,
) -> PowerTrace:
    """Piezo/vibration harvesting from duty-cycled machinery.

    Models the *envelope* of rectified vibration power (the raw kHz-scale
    oscillation is far below ``dt`` and only its mean power matters to a
    capacitor): the host machine alternates exponentially-distributed on/off
    intervals with mean on-fraction ``duty_cycle``, and while on, harvested
    power is ``peak_mw`` modulated by a slow Ornstein-Uhlenbeck amplitude
    jitter (mount resonance drifting with load).  Off intervals fall to a
    tiny ambient ``base_mw``.
    """
    gen = as_generator(seed)
    if not 0.0 < duty_cycle < 1.0:
        raise ConfigError(f"duty_cycle must be in (0, 1), got {duty_cycle}")
    n = int(round(duration / dt)) + 1
    on = np.zeros(n, dtype=bool)
    mean_on = duty_cycle * cycle_period_s
    mean_off = (1.0 - duty_cycle) * cycle_period_s
    t, machine_on = 0.0, gen.random() < duty_cycle
    while t < duration:
        length = gen.exponential(mean_on if machine_on else mean_off)
        if machine_on:
            i0 = int(t / dt)
            i1 = min(n, int((t + length) / dt) + 1)
            on[i0:i1] = True
        t += length
        machine_on = not machine_on
    jitter = _ou_process(n, dt, theta=0.02, sigma=amplitude_jitter * np.sqrt(0.04), rng=gen)
    power = np.where(on, peak_mw * np.exp(jitter), base_mw)
    return PowerTrace(np.clip(power, 0.0, None), dt, name="piezo")


def rf_trace(
    duration: float = 3600.0,
    dt: float = 0.1,
    mean_mw: float = 0.02,
    fading_sigma: float = 0.3,
    seed=0,
) -> PowerTrace:
    """Weak RF harvesting with log-normal slow fading."""
    gen = as_generator(seed)
    n = int(round(duration / dt)) + 1
    fading = _ou_process(n, dt, theta=0.02, sigma=fading_sigma * np.sqrt(0.04), rng=gen)
    power = mean_mw * np.exp(fading)
    return PowerTrace(np.clip(power, 0.0, None), dt, name="rf")
