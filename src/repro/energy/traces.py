"""Energy-harvesting power traces.

The paper powers its MCU from a solar profile (NREL Oak Ridge rotating
shadowband radiometer data [17]); that dataset is not available offline, so
:func:`solar_trace` synthesizes the same character — a diurnal envelope
modulated by cloud occlusion (an Ornstein-Uhlenbeck process squashed to
[0, 1]) plus sensor noise.  Kinetic (bursty), RF (weak, steady), wind
(gusty, cubic-response), piezo (duty-cycled vibration), and constant
traces support ablations and heterogeneous fleet scenarios, and
:func:`trace_from_csv` loads real measurement files.

Each seeded family (solar, kinetic, wind, piezo, rf) has one
implementation that builds a *stack* of traces sharing a sample grid: a
per-row loop takes each row's draws in the scalar order from its own
generator, then the OU scan, envelopes, gust and duty-cycle shaping and
the cumulative energy run once over the (rows x samples) stack.
:func:`synthesize_stacks` builds a fleet's traces that way, seeding
every row's generator in one vectorized pass; the public builders
(:func:`solar_trace` and its siblings) are a stack of one, seeded by
numpy itself, and every stacked row equals its scalar build bit for bit.

A :class:`PowerTrace` stores power samples on a uniform grid and exposes
interpolation, windowed means (the runtime's "charging efficiency" signal),
and exact cumulative-energy queries used by the simulator.  The bulk
queries have one implementation for many traces at once:
:func:`event_queries` answers every device's event-time queries (the
cumulative energy at each event and the windowed mean power) as one
stacked gather over traces on any mix of grids, and a trace's own
``_cum_bulk`` and array ``mean_power`` are its one-trace case.
"""

from __future__ import annotations

import inspect
import os
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from repro.errors import ConfigError, EnergyError
from repro.utils.rng import as_generator, generators


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

    @classmethod
    def _adopt(cls, samples: np.ndarray, cum_energy: np.ndarray, dt, name: str):
        """A trace over validated float64 samples and their cumulative
        energy, computed by the caller (the stack builders do it a stack
        at a time)."""
        trace = cls.__new__(cls)
        trace.samples_mw = samples
        trace.dt = float(dt)
        trace.name = name
        trace._cum_energy = cum_energy
        return trace

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
        i, frac = grid_position(arr, self.duration, self.dt, len(self.samples_mw))
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
        """Vectorized :meth:`_cum_at` over already-clipped times: the
        one-trace case of :func:`_cum_and_power`."""
        t = np.asarray(t, dtype=np.float64)
        return _cum_and_power([self], [t.size], t.reshape(-1))[0].reshape(t.shape)

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
        # The array path is the one-trace case of event_queries.
        t = np.asarray(t, dtype=np.float64)
        _, mean = event_queries([self], [t.size], t.reshape(-1), [window])
        return mean.reshape(t.shape)

    def scaled(self, factor: float) -> "PowerTrace":
        """A copy with power multiplied by ``factor``."""
        if factor < 0:
            raise EnergyError("scale factor must be non-negative")
        return PowerTrace(self.samples_mw * factor, self.dt, name=f"{self.name}*{factor:g}")


def _cum_and_power(traces, counts, t):
    """Cumulative energy (mJ) and interpolated power (mW) of many traces
    at already-clipped times, as one stacked gather.

    ``t``'s first axis concatenates the traces' queries, ``counts[r]`` of
    them for ``traces[r]``, in order; trailing axes hold more queries of
    the same trace.  Each trace's ``dt``, last sample and total energy
    are per-query columns, so traces on different grids share one pass,
    and only the three gathers (samples at ``i`` and ``i + 1``,
    cumulative energy at ``i``) loop over traces.  The arithmetic is
    :meth:`PowerTrace._cum_at`'s, element for element, including its
    early return of the exact total at or past the last sample:
    ``duration / dt`` can round a hair above ``n - 1`` for inexact ``dt``,
    where interpolating would drift by an ulp.  The power is the
    interpolation on the way, which is :meth:`PowerTrace.power`'s.
    """
    if len(traces) == 1:
        # One trace keeps its own scalars; broadcasting them rounds like
        # a per-query column would.
        (trace,) = traces
        dt, last, total = trace.dt, trace.samples_mw.size - 1, trace._cum_energy[-1]
    else:
        column = (-1,) + (1,) * (t.ndim - 1)
        dt = np.repeat([trace.dt for trace in traces], counts).reshape(column)
        last = np.repeat([trace.samples_mw.size - 1 for trace in traces], counts)
        last = last.reshape(column)
        total = np.repeat([trace._cum_energy[-1] for trace in traces], counts)
        total = total.reshape(column)
    pos = t / dt
    past_end = pos >= last  # the scalar i >= len - 1 early return
    i = np.minimum(pos.astype(np.int64), last - 1)
    frac = pos - i
    upper = i + 1
    p0 = np.empty(t.shape)
    p1 = np.empty(t.shape)
    cum = np.empty(t.shape)
    start = 0
    for trace, n in zip(traces, counts):
        end = start + n
        p0[start:end] = trace.samples_mw[i[start:end]]
        p1[start:end] = trace.samples_mw[upper[start:end]]
        cum[start:end] = trace._cum_energy[i[start:end]]
        start = end
    pt = (1 - frac) * p0 + frac * p1
    cum += 0.5 * (p0 + pt) * (frac * dt)
    return np.where(past_end, total, cum), pt


def event_queries(traces, counts, times, windows):
    """Cumulative energy (mJ) at, and mean power (mW) over the trailing
    window before, each query time of many traces, as one stacked gather.

    ``times`` concatenates the traces' query times, ``counts[r]`` of them
    for ``traces[r]``, whose window is ``windows[r]`` seconds.  Trace r's
    share of the two results is, element for element,
    ``traces[r]._cum_bulk(np.clip(t, 0, duration))`` and
    ``traces[r].mean_power(t, windows[r])``: times clip to the trace, the
    mean is ``(cum(t) - cum(t0)) / (t - t0)`` with
    ``t0 = max(0, t - window)``, and a window of zero length (an event at
    t = 0) reads the interpolated power at t instead.  Both ends of every
    window take one :func:`_cum_and_power` pass.
    """
    times = np.asarray(times, dtype=np.float64)
    t = np.clip(times, 0.0, np.repeat([trace.duration for trace in traces], counts))
    t0 = np.maximum(0.0, t - np.repeat(windows, counts))
    cum, power = _cum_and_power(traces, counts, np.stack((t, t0), axis=-1))
    span = t - t0
    degenerate = span <= 0.0
    mean = (cum[:, 0] - cum[:, 1]) / np.where(degenerate, 1.0, span)
    return cum[:, 0], np.where(degenerate, power[:, 0], mean)


def grid_position(t, duration: float, dt: float, n: int):
    """Interpolation index and weight of the times ``t`` on the grid of an
    ``n``-sample trace: :meth:`PowerTrace.power`'s array arithmetic, which
    the fleet's harvest summary shares for a whole stack of traces."""
    pos = np.clip(t, 0.0, duration) / dt
    i = np.minimum(pos.astype(np.int64), n - 2)
    return i, pos - i


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
    n = _grid("constant", duration, dt)
    return PowerTrace(np.full(n, float(power_mw)), dt, name="constant")


#: Most (rows x samples) elements one synthesis block holds.  A stack with
#: more rows synthesizes a block of rows at a time, which bounds the
#: temporaries; rows never interact, so the block size changes no sample.
_BLOCK_ELEMENTS = 1 << 15


def _grid(family: str, duration, dt) -> int:
    """Sample count of a ``duration``-second grid at step ``dt``, both
    positive and finite, spanning at least two samples."""
    for name, value in (("duration", duration), ("dt", dt)):
        if not 0 < value < np.inf:
            raise ConfigError(
                f"{family} trace: {name} must be positive, got {value!r}"
            )
    n = int(round(duration / dt)) + 1
    if n < 2:
        raise ConfigError(
            f"{family} trace: duration {duration!r} at dt {dt!r} spans "
            f"fewer than 2 samples"
        )
    return n


def _non_negative(family: str, p, *names) -> None:
    """Each rate or mean length ``p[name]`` is at least 0."""
    for name in names:
        if not p[name] >= 0:
            raise ConfigError(f"{family} trace: {name} must be >= 0, got {p[name]!r}")


def _ou_draw(n: int, rng) -> np.ndarray:
    """An OU path's standard-normal increments (none below two samples)."""
    return rng.normal(size=n - 1) if n >= 2 else np.zeros(0)


def _ou_scan(noise: np.ndarray, n: int, dt: float, theta: float) -> np.ndarray:
    """Zero-mean Ornstein-Uhlenbeck paths from a stack of increments.

    ``noise`` is (rows, n - 1): each row's scaled Euler-Maruyama noise.
    The recurrence ``x[i] = phi * x[i-1] + noise[i-1]`` with
    ``phi = 1 - theta * dt`` is an exact AR(1), so a path follows from a
    scan: ``x[i] = phi**i * sum_{j<i} noise[j] * phi**-(j+1)``.  Rescaling
    by ``phi**-j`` overflows float64 over tens of thousands of samples, so
    the scan runs in blocks sized to bound the in-block dynamic range at
    ~1e4 (keeping the result within ~1e-12 of the sequential loop),
    carrying the block-final value across block boundaries.

    Every block of every row scans at once: the noise reshapes to
    (rows, blocks, block), divides by the powers once and takes one
    ``cumsum``; the block carries ``carry[b] = phi**block * (carry[b-1] +
    cs[b-1, -1])`` run as a short loop over blocks, then one multiply
    finishes every block.  That is the per-block loop's arithmetic, element
    for element, so a row's path does not depend on the stack around it.
    """
    rows = noise.shape[0]
    if n < 2:
        return np.zeros((rows, n))
    m = n - 1
    phi = 1.0 - theta * dt
    if phi == 0.0:
        x = np.zeros((rows, n))
        x[:, 1:] = noise
        return x
    abs_phi = abs(phi)
    if abs_phi == 1.0:
        block = m
    else:
        log_range = abs(np.log(abs_phi))
        block = max(16, int(np.log(1e4) / log_range) + 1)
        # Never let phi**-block overflow float64, whatever the params.
        block = min(block, max(int(np.log(1e250) / log_range), 1), m)
    full, tail = divmod(m, block)
    blocks = full + (tail > 0)
    powers = phi ** np.arange(1, block + 1)
    scan = np.empty((rows, blocks, block))
    np.divide(
        noise[:, :full * block].reshape(rows, full, block), powers, out=scan[:, :full]
    )
    if tail:
        np.divide(noise[:, full * block:], powers[:tail], out=scan[:, full, :tail])
        scan[:, full, tail:] = 0.0
    np.cumsum(scan, axis=2, out=scan)
    last = np.ascontiguousarray(scan[:, :, -1].T)
    carry = np.zeros((blocks, rows))
    for b in range(1, blocks):
        np.add(carry[b - 1], last[b - 1], out=carry[b])
        carry[b] *= powers[-1]
    np.add(carry.T[:, :, None], scan, out=scan)
    np.multiply(powers, scan, out=scan)
    x = np.empty((rows, n))
    x[:, 0] = 0.0
    x[:, 1:] = scan.reshape(rows, -1)[:, :m]
    return x


def _ou_process(n: int, dt: float, theta: float, sigma: float, rng) -> np.ndarray:
    """Zero-mean Ornstein-Uhlenbeck path (cloud/burst dynamics): the
    draws, then a one-row :func:`_ou_scan`."""
    if n < 2:
        return np.zeros(n)
    noise = _ou_draw(n, rng) * sigma * np.sqrt(dt)
    return _ou_scan(noise[None, :], n, dt, theta)[0]


def _column(values):
    """Per-row parameter values as a stack column.

    A stack of one keeps the row's own value, so a scalar build does
    exactly the arithmetic (and raises exactly the errors) of a plain
    scalar expression; wider stacks get a (rows, 1) float64 column, whose
    broadcast ops round element for element like the scalar ones.
    """
    if len(values) == 1:
        return values[0]
    return np.array(values, dtype=np.float64)[:, None]


def _stacked(draws, field: int) -> np.ndarray:
    """One draw field of every row as a (rows, ...) stack."""
    return np.stack([d[field] for d in draws])


def _ou_noise(draws, field: int, sigma, dt) -> np.ndarray:
    """The stack's scaled OU increments, ``z * sigma * sqrt(dt)``."""
    noise = _stacked(draws, field)
    np.multiply(noise, sigma, out=noise)
    return np.multiply(noise, np.sqrt(dt), out=noise)


@lru_cache(maxsize=256)
def _gust_profile(length: int) -> np.ndarray:
    """Half-sine ramp of a ``length``-sample gust (read-only, shared)."""
    profile = np.sin(np.linspace(0.0, np.pi, max(length, 1)))
    profile.flags.writeable = False
    return profile


def _finish(samples, dt, name: str, strict: bool) -> list:
    """PowerTraces for a (rows, n) stack of power samples.

    Checks the power like :class:`PowerTrace` (each row's draw checked
    its grid) and computes every row's
    trapezoidal cumulative energy in one pass; each trace gets its own
    copies, so the memo never keeps a whole stack alive for one row.  A
    row with negative power raises :class:`EnergyError` when ``strict``,
    else comes back as ``None``.
    """
    samples = np.asarray(samples, dtype=np.float64)
    rows, n = samples.shape
    negative = (samples < 0).any(axis=1)
    if strict and negative.any():
        raise EnergyError("harvested power cannot be negative")
    cum = np.add(samples[:, 1:], samples[:, :-1])
    np.multiply(0.5, cum, out=cum)
    np.multiply(cum, dt, out=cum)
    np.cumsum(cum, axis=1, out=cum)
    traces = []
    for r, bad in enumerate(negative.tolist()):
        if bad:
            traces.append(None)
            continue
        own = np.empty(n)
        own[0] = 0.0
        own[1:] = cum[r]
        traces.append(PowerTrace._adopt(samples[r].copy(), own, dt, name))
    return traces


def _build_one(family: str, params: dict) -> PowerTrace:
    """A stack of one: the scalar build of a seeded family."""
    fam = _FAMILIES[family]
    n, draws = fam.draw(params, params["seed"])
    samples = fam.shape([params], [draws], n, params["dt"])
    return _finish(samples, params["dt"], family, strict=True)[0]


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
    # locals() is exactly the parameters here: build them as a stack of one.
    return _build_one("solar", locals())


def _solar_draw(p, rng):
    n = _grid("solar", p["duration"], p["dt"])
    gen = as_generator(rng)
    return n, (_ou_draw(n, gen), gen.normal(0.0, p["noise_mw"], size=n))


def _solar_shape(rows, draws, n, dt):
    # The diurnal envelope depends on (day_length, phase) only: a wider
    # stack (rows of real numbers) computes it once per distinct pair.
    arcs = [
        (p["duration"] if p["day_length"] is None else p["day_length"], p["phase"])
        for p in rows
    ]
    if len(arcs) > 1:
        distinct: dict = {}
        arc_of = [distinct.setdefault(arc, len(distinct)) for arc in arcs]
        arcs = list(distinct)
    t = (np.arange(n) * dt)[None]
    envelope = np.divide(t, _column([day_length for day_length, _ in arcs]))
    envelope = np.add(envelope, _column([phase for _, phase in arcs]))
    np.multiply(np.pi, envelope, out=envelope)
    np.sin(envelope, out=envelope)
    np.clip(envelope, 0.0, None, out=envelope)
    np.power(envelope, 1.5, out=envelope)
    sigma = _column([
        float(np.sqrt(2.0 * p["cloud_theta"]))  # unit stationary std
        if p["cloud_sigma"] is None else p["cloud_sigma"]
        for p in rows
    ])
    clouds = _ou_scan(_ou_noise(draws, 0, sigma, dt), n, dt, rows[0]["cloud_theta"])
    depth = _column([p["cloud_depth"] for p in rows])
    occlusion = np.subtract(clouds, _column([p["cloud_bias"] for p in rows]))
    np.multiply(-depth, occlusion, out=occlusion)
    np.exp(occlusion, out=occlusion)
    np.add(1.0, occlusion, out=occlusion)
    np.divide(1.0, occlusion, out=occlusion)
    if len(arcs) < len(rows):
        envelope = envelope[arc_of]
    power = np.multiply(_column([p["peak_mw"] for p in rows]), envelope)
    np.multiply(power, occlusion, out=power)
    for row, (_, sensor) in zip(power, draws):
        np.add(row, sensor, out=row)
    return np.clip(power, 0.0, None, out=power)


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
    return _build_one("kinetic", locals())


def _kinetic_draw(p, rng):
    duration, dt = p["duration"], p["dt"]
    n = _grid("kinetic", duration, dt)
    _non_negative("kinetic", p, "burst_rate_hz", "burst_length_s")
    gen = as_generator(rng)
    power = np.full(n, p["base_mw"])
    rate = p["burst_rate_hz"]
    t = 0.0
    while t < duration:
        gap = gen.exponential(1.0 / rate) if rate > 0 else duration
        t += gap
        if t >= duration:
            break
        length = gen.exponential(p["burst_length_s"])
        i0 = int(t / dt)
        i1 = min(n, int((t + length) / dt) + 1)
        power[i0:i1] += p["burst_power_mw"] * (0.5 + 0.5 * gen.random())
        t += length
    return n, (power,)


def _kinetic_shape(rows, draws, n, dt):
    return _stacked(draws, 0)


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
    return _build_one("wind", locals())


def _wind_draw(p, rng):
    duration, dt = p["duration"], p["dt"]
    n = _grid("wind", duration, dt)
    if p["mean_speed"] <= 0:
        raise ConfigError(f"mean_speed must be positive, got {p['mean_speed']}")
    _non_negative("wind", p, "gust_rate_hz", "gust_length_s")
    gen = as_generator(rng)
    turbulence = _ou_draw(n, gen)
    gusts = []  # (i0, i1, amplitude factor), drawn gap, length, amplitude
    t = 0.0
    while t < duration and p["gust_rate_hz"] > 0:
        t += gen.exponential(1.0 / p["gust_rate_hz"])
        if t >= duration:
            break
        length = gen.exponential(p["gust_length_s"])
        i0 = int(t / dt)
        i1 = min(n, int((t + length) / dt) + 1)
        gusts.append((i0, i1, 0.5 + 0.5 * gen.random()))
        t += length
    return n, (turbulence, gusts)


def _wind_shape(rows, draws, n, dt):
    mean_speed = _column([p["mean_speed"] for p in rows])
    sigma = _column([p["turbulence"] for p in rows]) * np.sqrt(0.1)
    speed = _ou_scan(_ou_noise(draws, 0, sigma, dt), n, dt, 0.05)
    np.add(1.0, speed, out=speed)
    np.multiply(mean_speed, speed, out=speed)
    for r, (p, (_, gusts)) in enumerate(zip(rows, draws)):
        # Gusts ramp in and die off (half-sine profile) rather than step.
        scale = p["gust_strength"] * p["mean_speed"]
        for i0, i1, amplitude in gusts:
            speed[r, i0:i1] += scale * amplitude * _gust_profile(i1 - i0)
    np.clip(speed, 0.0, None, out=speed)
    np.divide(speed, mean_speed, out=speed)
    np.power(speed, 3, out=speed)
    np.multiply(0.5 * _column([p["peak_mw"] for p in rows]), speed, out=speed)
    return np.clip(speed, 0.0, None, out=speed)


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
    return _build_one("piezo", locals())


def _piezo_draw(p, rng):
    duration, dt = p["duration"], p["dt"]
    n = _grid("piezo", duration, dt)
    duty_cycle = p["duty_cycle"]
    if not 0.0 < duty_cycle < 1.0:
        raise ConfigError(f"duty_cycle must be in (0, 1), got {duty_cycle}")
    if not p["cycle_period_s"] > 0:
        raise ConfigError(
            f"piezo trace: cycle_period_s must be positive, "
            f"got {p['cycle_period_s']!r}"
        )
    gen = as_generator(rng)
    on = np.zeros(n, dtype=bool)
    mean_on = duty_cycle * p["cycle_period_s"]
    mean_off = (1.0 - duty_cycle) * p["cycle_period_s"]
    t, machine_on = 0.0, gen.random() < duty_cycle
    while t < duration:
        length = gen.exponential(mean_on if machine_on else mean_off)
        if machine_on:
            i0 = int(t / dt)
            i1 = min(n, int((t + length) / dt) + 1)
            on[i0:i1] = True
        t += length
        machine_on = not machine_on
    return n, (on, _ou_draw(n, gen))


def _piezo_shape(rows, draws, n, dt):
    sigma = _column([p["amplitude_jitter"] for p in rows]) * np.sqrt(0.04)
    jitter = _ou_scan(_ou_noise(draws, 1, sigma, dt), n, dt, 0.02)
    np.exp(jitter, out=jitter)
    jitter = np.multiply(_column([p["peak_mw"] for p in rows]), jitter)
    power = np.where(_stacked(draws, 0), jitter, _column([p["base_mw"] for p in rows]))
    return np.clip(power, 0.0, None, out=power)


def rf_trace(
    duration: float = 3600.0,
    dt: float = 0.1,
    mean_mw: float = 0.02,
    fading_sigma: float = 0.3,
    seed=0,
) -> PowerTrace:
    """Weak RF harvesting with log-normal slow fading."""
    return _build_one("rf", locals())


def _rf_draw(p, rng):
    n = _grid("rf", p["duration"], p["dt"])
    gen = as_generator(rng)
    return n, (_ou_draw(n, gen),)


def _rf_shape(rows, draws, n, dt):
    sigma = _column([p["fading_sigma"] for p in rows]) * np.sqrt(0.04)
    fading = _ou_scan(_ou_noise(draws, 0, sigma, dt), n, dt, 0.02)
    np.exp(fading, out=fading)
    power = np.multiply(_column([p["mean_mw"] for p in rows]), fading)
    return np.clip(power, 0.0, None, out=power)


class _Family(NamedTuple):
    """One seeded trace family, split at the stack boundary.

    ``draw(params, rng) -> (n, draws)`` validates one row and takes every
    draw in the scalar order from ``rng`` (the row's seed, or a Generator
    already built from it), coerced where the scalar build builds its
    generator; ``shape(rows, draws, n, dt)`` turns a stack of rows
    sharing the grid into (rows, n) power samples.
    ``theta`` names the per-row OU theta a stack must share (solar's
    ``cloud_theta``); the other families' theta is fixed.
    """

    builder: object
    draw: object
    shape: object
    theta: Optional[str] = None


_FAMILIES = {
    "solar": _Family(solar_trace, _solar_draw, _solar_shape, "cloud_theta"),
    "kinetic": _Family(kinetic_trace, _kinetic_draw, _kinetic_shape),
    "wind": _Family(wind_trace, _wind_draw, _wind_shape),
    "piezo": _Family(piezo_trace, _piezo_draw, _piezo_shape),
    "rf": _Family(rf_trace, _rf_draw, _rf_shape),
}

#: Every seeded family's parameters and their defaults, from the builders'
#: signatures.
_DEFAULTS = {
    family: {
        name: param.default
        for name, param in inspect.signature(fam.builder).parameters.items()
    }
    for family, fam in _FAMILIES.items()
}


def _stack_row(family: str, params: dict):
    """``params`` completed with the builder's defaults, or None when a
    stack cannot hold the row: an unknown parameter, or a value other than
    a real number (or None where the default is None).  Such a row is left
    to its scalar build, which reports the problem."""
    defaults = _DEFAULTS[family]
    if not params.keys() <= defaults.keys():
        return None
    row = {**defaults, **params}
    for name, value in row.items():
        if name == "seed" or (value is None and defaults[name] is None):
            continue
        if not isinstance(value, (int, float)):
            return None
    return row


def synthesize_stacks(family: str, rows) -> list:
    """One trace per parameter row of a seeded ``family``, synthesized as
    same-grid stacks; ``None`` for a row left to its scalar build.

    Each row is a params dict for the family's builder (:func:`solar_trace`
    etc.), seed included.  Rows that share what shapes the arrays and the
    recurrence — sample count, ``dt`` and, for solar, ``cloud_theta`` —
    form one stack; every other parameter is a per-row column.  Every
    row's generator is seeded in one pass
    (:func:`repro.utils.rng.generators`); a per-row loop takes its draws
    in the scalar order, then the OU scan, envelopes, gust and duty-cycle
    shaping and the cumulative energy run once over a block of rows.
    Every trace equals the scalar builder's bit for bit, whatever the
    stack and block size.

    Never raises: a row with an unknown parameter or a value a column
    cannot hold, or whose grid, seed, validation or draws fail, comes back
    ``None``, and its scalar build raises the builder's own error.
    """
    fam = _FAMILIES[family]
    out = [None] * len(rows)
    keyed = []
    for r, params in enumerate(rows):
        p = _stack_row(family, params)
        if p is None:
            continue
        try:
            n = _grid(family, p["duration"], p["dt"])
            keyed.append(((n, p["dt"], p[fam.theta] if fam.theta else None), r, p))
        except Exception:
            continue
    try:
        rngs = generators([p["seed"] for _, _, p in keyed])
    except Exception:
        # A seed numpy refuses: each row's draw seeds its own generator,
        # so only that row fails.
        rngs = [p["seed"] for _, _, p in keyed]
    stacks: dict = {}
    for (key, r, p), rng in zip(keyed, rngs):
        stacks.setdefault(key, []).append((r, p, rng))
    for (n, dt, _), members in stacks.items():
        width = max(1, _BLOCK_ELEMENTS // n)
        for start in range(0, len(members), width):
            drawn = []
            for r, p, rng in members[start:start + width]:
                try:
                    drawn.append((r, p, fam.draw(p, rng)[1]))
                except Exception:
                    continue
            if not drawn:
                continue
            try:
                samples = fam.shape(
                    [p for _, p, _ in drawn], [d for _, _, d in drawn], n, dt
                )
                traces = _finish(samples, dt, family, strict=False)
            except Exception:
                continue
            for (r, _, _), trace in zip(drawn, traces):
                out[r] = trace
    return out
