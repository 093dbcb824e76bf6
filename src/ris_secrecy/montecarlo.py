"""Monte Carlo simulator of the wiretap link.

Every trial draws Rayleigh fading amplitudes and forms the coherent
destination sum X1 = sum_i f_Ri f_Di at signal level; that sum is what
the closed forms approximate by a Gaussian. The default eavesdropper
draws the exponential law the analysis itself adopts (see the modes
below). Each trial then goes through the impairment-saturated SNDR map
and the instantaneous secrecy rate.

Drawing and scoring are separate steps. :func:`draw_chunks` yields the
fading of each chunk as ``(X1^2, e)``, which depends only on N and the
:class:`McConfig`. A :class:`PointAccumulator` keeps the running sums of
one operating point (snr_d, snr_e, c_th, kappa) over those chunks, and
only the sums of the estimates it is asked for; :func:`simulate_metrics`
scores one point with it. A sweep over any axis but ``n_elements``
therefore draws one set, keeps it (16 B per trial, 1.6 MB at the
presets' 1e5 trials) and scores every grid point on it (common random
numbers), for the estimates it emits only; a ``snr_d_db`` sweep also
scores the eavesdropper link, which it leaves unchanged, once per chunk
through a :class:`LinkMemo`. The curves of one
``sweeps.run_sweeps`` call share one set per (N, McConfig). An
``n_elements`` sweep stores nothing: :func:`simulate_points` draws each
Philox stream once for the largest N, cuts the draws of every N at most
half of it from that stream's prefix (see :func:`_n_groups`), and
updates each point's accumulator with its chunk as it is drawn.
:func:`model_law_chunks` draws the Gaussian-sum model itself, to check
the closed forms against the law they are derived for.

Memory: drawing a chunk of m trials (m = trials per stream, at most
``_CHUNK``) holds one m x N float64 array of f_R amplitudes plus one
row block of about ``_BLOCK`` elements, or two m x N arrays in
``phase_sum`` mode; at the presets' 25 000 trials per stream that is
205 MB at N = 1024. A grouped draw holds the largest N's stream prefix
in place of its f_R, at most (N_max + 1) m floats (one row of m more),
plus each smaller N's X1^2 and e, 2m floats each: over N = 8..1024 at
1e5 trials that is 205.0 MB plus 3.2 MB. A fill of the held prefix
(or of f_E) with at least ``_SPLIT_MIN`` floats runs on two threads (see
:func:`_fill_exponential`) into that same array, and adds only
O(sqrt(K)) floats of scratch for a fill of 2K. In ``rayleigh`` mode the
largest N's f_D is split the same way once its second half reaches
``_SPLIT_MIN`` floats (see :func:`_x1_split`): a worker draws that half
into f_R rows already summed, so no buffer is added, only the worker's
own row block while it scores the smaller N. A ``snr_d_db`` sweep's
:class:`LinkMemo` keeps 8 B per trial for each of the eavesdropper's
outage threshold and rates that it emits, on top of the draw set's
16 B: a 2-point N = 5 sweep at 1e7 trials peaks at 295 MiB with one of
them and 370 MiB with both, against 219 MiB without the memo.

Reproducibility contract: estimates are a pure function of
(seed, stream_count, trials). Trials are partitioned over
``stream_count`` counter-based Philox streams (stream i is
``Philox(key=seed).jumped(i)``) and per-stream partial sums are combined
in stream order, so results do not depend on how the streams would be
scheduled. The contract also holds across threads: a large fill, and
a large f_D, is split over two threads within one stream, bit for bit
the sequential draw (see :func:`_fill_exponential` and
:func:`_x1_split`), so the values do not depend on the CPU count
either.

Eavesdropper channel modes
--------------------------
``rayleigh`` (default) draws X2 from the Rayleigh law the analysis
adopts for the incoherent sum (rho_E exactly exponential with mean
snr_e * N). ``phase_sum`` builds X2 = |sum_i f_Ri f_Ei e^{j delta_i}|
from per-element uniform residual phases instead; its mean power is the
same but the finite-N law is not exactly exponential, which makes the
mode useful for measuring how good the exponential model is.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Literal

import numpy as np

from ._schema import check_field_types
from .channel import ChannelStats, SystemParams

_CHUNK = 1 << 18
_BLOCK = 1 << 15
_SPLIT_MIN = 1 << 20  # fewer floats than this fill on one thread
_WORDS_PER_SAMPLE = 1.03359  # mean 64-bit words one ziggurat exponential reads


@dataclass(frozen=True)
class McConfig:
    """Simulation size and reproducibility knobs."""

    trials: int = 1_000_000
    seed: int = 0
    stream_count: int = 4
    eav_mode: Literal["rayleigh", "phase_sum"] = "rayleigh"

    def __post_init__(self):
        check_field_types(self)
        if self.trials < 1_000:
            raise ValueError(f"trials must be >= 1000, got {self.trials}")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if not 1 <= self.stream_count <= self.trials:
            raise ValueError(f"stream_count must be in [1, trials={self.trials}], "
                             f"got {self.stream_count}")


@dataclass(frozen=True)
class EstimateWithCI:
    """Point estimate with its Monte Carlo standard error."""

    value: float
    std_error: float
    trials: int
    seed: int


def _stream_chunks(mc: McConfig):
    """``(generator, chunk size)`` of every chunk of at most ``_CHUNK`` trials, in stream order."""
    base, extra = divmod(mc.trials, mc.stream_count)
    for i in range(mc.stream_count):
        rng = np.random.Generator(np.random.Philox(key=mc.seed).jumped(i))
        size = base + (1 if i < extra else 0)
        for done in range(0, size, _CHUNK):
            yield rng, min(_CHUNK, size - done)


def _philox_position(state: dict) -> int:
    """Index of the next 64-bit word that a ``Philox`` state reads.

    Counter value c yields words 4(c - 1) .. 4c - 1, and ``buffer_pos``
    of them are read.
    """
    counter = sum(int(c) << (64 * i) for i, c in enumerate(state["state"]["counter"]))
    return 4 * counter - (4 - state["buffer_pos"])


def _philox_at(key, position: int) -> np.random.Philox:
    """A ``Philox`` bit generator with ``key`` whose next word is word ``position``."""
    counter, skip = divmod(position, 4)
    bit_gen = np.random.Philox(counter=counter % (1 << 256), key=key)
    bit_gen.random_raw(skip)
    return bit_gen


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _bridge(rng, probe: np.random.Generator, limit: int, margin: int):
    """Walk ``rng`` and ``probe`` forward until both start a sample at the same word.

    ``rng`` draws true samples; ``probe`` re-parses the words where a
    clone of the stream started. Whichever is behind draws about half the
    gap in samples (each reads at least one word, so it rarely
    overshoots, and an overshoot only swaps the sides). Returns the
    samples ``rng`` drew, as one array, the count ``probe`` drew and
    whether a common start was found: ``False`` once ``rng`` would draw
    more than ``margin`` samples beyond the probe's count, or the probe
    more than ``limit``.
    """
    bridge, drawn, skipped = [np.empty(0)], 0, 0
    here = _philox_position(rng.bit_generator.state)
    there = _philox_position(probe.bit_generator.state)
    while here != there:
        count = max(1, abs(here - there) // 2)
        if here < there:
            if drawn + count > margin + skipped:
                return np.concatenate(bridge), skipped, False
            bridge.append(rng.standard_exponential(count))
            drawn += count
            here = _philox_position(rng.bit_generator.state)
        else:
            if skipped + count > limit:
                return np.concatenate(bridge), skipped, False
            probe.standard_exponential(count)
            skipped += count
            there = _philox_position(probe.bit_generator.state)
    return np.concatenate(bridge), skipped, True


def _clone_ahead(rng, samples: int):
    """A clone and a probe of ``rng``'s Philox stream, started ``samples`` samples ahead.

    The start word is a guess, ``_WORDS_PER_SAMPLE`` words per sample past
    ``rng``'s next word; :func:`_bridge` finds where the clone really is.
    """
    state = rng.bit_generator.state
    start = _philox_position(state) + round(samples * _WORDS_PER_SAMPLE)
    key = state["state"]["key"]
    return tuple(np.random.Generator(_philox_at(key, start)) for _ in range(2))


def _take_over(rng, clone) -> None:
    """Move ``rng`` to where ``clone`` is in the stream.

    Keeps ``rng``'s buffered 32-bit half, which exponentials never read.
    """
    bit_gen = rng.bit_generator
    state, clone_state = bit_gen.state, clone.bit_generator.state
    state.update(state=clone_state["state"], buffer=clone_state["buffer"],
                 buffer_pos=clone_state["buffer_pos"])
    bit_gen.state = state


def _two_threads(rng) -> bool:
    """Whether a draw from ``rng`` may be split over two threads."""
    return isinstance(rng.bit_generator, np.random.Philox) and _usable_cpus() >= 2


def _fill_exponential(rng, out: np.ndarray) -> np.ndarray:
    """``rng.standard_exponential(out=out)``, bit for bit, on two threads when large.

    Leaves ``rng`` in the state the sequential fill leaves it in. numpy's
    ziggurat reads a Philox stream only word by word, so a sample depends
    only on the words from its own start on, and two parses of the stream
    agree from the first word at which both start a sample. A fill of at
    least ``_SPLIT_MIN`` floats on a C-contiguous ``out`` with two CPUs
    at hand is split in two: this thread fills the first k = n/2 floats,
    and a worker fills ``out[k + margin:]`` from a clone stream started
    where sample k should start (:func:`_clone_ahead`). The guess misses
    by about 0.21 sqrt(k) words; the margin is about 8 times that.
    :func:`_bridge` then finds a sample start common to the true stream
    and the clone, and the clone's samples from there move down into
    place, the few missing at the end come from the clone, and ``rng``
    takes over the clone's state. Without a common start the rest is
    filled sequentially. Scratch is O(sqrt(k)) floats. The worker runs
    on a one-worker executor, which joins it on leaving its ``with``
    block on every path; the worker's error is re-raised here.
    """
    n = out.size
    k = n // 2
    margin = int(1.7 * math.sqrt(k)) + 1
    limit = n - k - margin  # the clone's sample count
    if n < _SPLIT_MIN or limit < 2 * margin or not out.flags.c_contiguous or not _two_threads(rng):
        return rng.standard_exponential(out=out)
    flat = out.reshape(-1)
    clone, probe = _clone_ahead(rng, k)
    with ThreadPoolExecutor(max_workers=1) as pool:
        worker = pool.submit(clone.standard_exponential, out=flat[k + margin:])
        rng.standard_exponential(out=flat[:k])
        bridge, skipped, synced = _bridge(rng, probe, min(2 * margin, limit), margin)
        worker.result()
    at = k + bridge.size
    flat[k:at] = bridge
    if not synced:
        rng.standard_exponential(out=flat[at:])
        return out
    # a 1-D forward copy between overlapping slices is a memmove in
    # numpy: no temporary
    shift = k + margin + skipped - at
    flat[at:n - shift] = flat[k + margin + skipped:]
    clone.standard_exponential(out=flat[n - shift:])
    _take_over(rng, clone)
    return out


def _block_rows(n_elements: int) -> int:
    """Rows of one row block: about ``_BLOCK`` elements of N columns."""
    return max(1, _BLOCK // n_elements)


def _row_blocks(m: int, n_elements: int):
    """Row slices of about ``_BLOCK`` elements of an (m x N) array, made lazily."""
    step = _block_rows(n_elements)
    return (slice(lo, min(lo + step, m)) for lo in range(0, m, step))


def _row_sums(f_r, f_d_rows, out, after=None):
    """Row sums of f_R * f_D into ``out``, one row block at a time.

    ``f_d_rows(rows, buf)`` gives the f_D amplitudes of ``rows``, as a
    view or written into ``buf``; the product goes into ``buf``.
    ``after()``, when given, runs once each block is summed.
    """
    m, n_elements = f_r.shape
    buf = np.empty((min(m, _block_rows(n_elements)), n_elements))
    for rows in _row_blocks(m, n_elements):
        prod = buf[:rows.stop - rows.start]
        np.multiply(f_r[rows], f_d_rows(rows, prod), out=prod)
        prod.sum(axis=1, out=out[rows])
        if after is not None:
            after()
    return out


def _x1_sq(f_r, f_d_rows):
    """Squared row sums of f_R * f_D; see :func:`_row_sums`."""
    x1 = _row_sums(f_r, f_d_rows, np.empty(len(f_r)))
    return np.square(x1, out=x1)


def _x1_split(f_r, f_d_rows, drawn: int, rng, before):
    """``(X1^2, before())`` with f_D's second half drawn on a worker, or None.

    ``f_d_rows`` is the caller's row-block f_D source (see
    :func:`_row_sums`), which takes ``rng`` from f_D value ``drawn`` on.
    This thread sums rows [0, h) from it, h = ceil(m/2) + ceil(3 margin /
    N) with ``margin`` as in :func:`_fill_exponential`, and releases a
    permit after each row block. A worker first calls ``before()``,
    which must only read f_R, then draws f_D of rows [h, m) from a clone
    stream (:func:`_clone_ahead`) into ``region``, the first h N floats
    of f_R, from ``margin`` on: it writes, and square-roots, each block's
    span only once this thread has summed that block. :func:`_bridge`
    finds the clone's sample that is true f_D value h N + (bridge
    samples); the second half then lies in place at ``region[lo:lo +
    s2]``, the bridge samples just before the clone's and the few at the
    end from the clone, and ``rng`` takes over the clone's state. The
    bridge keeps lo within 3 margins, which h leaves room for. Without
    a common start ``rng`` draws the rest there itself. Either way the
    values, and ``rng`` after them, are the sequential draw's. The
    worker runs on a one-worker executor, which joins it on leaving its
    ``with`` block on every path; if this thread raises, it first sets
    ``stop`` and releases every permit, so that the worker returns.
    Returns None, having done nothing, when the second half is below
    ``_SPLIT_MIN`` floats or :func:`_two_threads` says no.
    """
    m, n = f_r.shape
    half = -(-m // 2)
    margin = int(1.7 * math.sqrt(half * n)) + 1
    h = half + -(-3 * margin // n)
    s2 = (m - h) * n  # f_D floats of rows [h, m)
    if s2 < max(_SPLIT_MIN, 3 * margin) or not _two_threads(rng):
        return None
    region = f_r[:h].reshape(-1)
    clone, probe = _clone_ahead(rng, h * n - drawn)
    permits, stop = threading.Semaphore(0), threading.Event()

    def draw_second_half():
        pairs = before()
        for rows in _row_blocks(h, n):
            lo, hi = max(margin, rows.start * n), min(s2, rows.stop * n)
            if lo >= s2:
                break
            permits.acquire()
            if stop.is_set():
                return None
            if lo < hi:
                span = region[lo:hi]
                np.sqrt(clone.standard_exponential(out=span), out=span)
        return pairs

    x1 = np.empty(m)
    with ThreadPoolExecutor(max_workers=1) as pool:
        worker = pool.submit(draw_second_half)
        try:
            _row_sums(f_r[:h], f_d_rows, x1[:h], after=permits.release)
            bridge, skipped, synced = _bridge(rng, probe, 2 * margin, margin)
        except BaseException:
            stop.set()
            permits.release(-(-h // _block_rows(n)))  # one per block
            raise
        pairs = worker.result()
    at = margin + skipped
    lo = at - bridge.size
    region[lo:at] = bridge
    if synced:
        clone.standard_exponential(out=region[s2:lo + s2])
        _take_over(rng, clone)
        raw = (region[lo:at], region[s2:lo + s2])
    else:
        rng.standard_exponential(out=region[at:lo + s2])
        raw = (region[lo:lo + s2],)
    for part in raw:
        np.sqrt(part, out=part)
    f_d = region[lo:lo + s2].reshape(m - h, n)
    _row_sums(f_r[h:], lambda rows, _: f_d[rows], x1[h:])
    return np.square(x1, out=x1), pairs


def _draw_chunk(group: tuple, rng, m: int, eav_mode: str) -> list:
    """Draw m trials of ``(X1^2, e)`` for each N of ``group``; see :func:`draw_chunks`.

    ``group`` is an ascending tuple of N; the pairs come back in its
    order, each equal to what a fresh stream draws for that N alone. The
    stream yields all of f_R, then all of f_D, then e (for
    ``phase_sum``: all of f_E and then the phases instead of e), each
    (m x N) in C order. So for N the values [0, Nm), [Nm, 2Nm) and
    [2Nm, (2N+1)m) are f_R, f_D and e, and every smaller N's draws are a
    prefix of the largest N's stream. That prefix is held whole: the
    largest N's f_R, and as far as the smaller N's last e reaches, which
    is at most one row of m further when each is at most half the
    largest. The largest N's f_D continues from the prefix's rest with
    fresh draws in row blocks of about ``_BLOCK`` elements, which
    consumes the same numbers in the same order; each row's sum depends
    on that row alone. In ``rayleigh`` mode a large f_D is drawn on two
    threads (:func:`_x1_split`): this thread draws the first half of the
    rows, and a worker scores the smaller N, then draws the second half
    into the f_R rows this thread has summed. Amplitudes are sqrt(E),
    E ~ Exp(1) (Rayleigh, unit average power).
    """
    *smaller, n_elements = group
    held = _fill_exponential(
        rng, np.empty(max([n_elements * m] + [(2 * n + 1) * m for n in smaller])))
    e_raw = [held[2 * n * m:(2 * n + 1) * m].copy() for n in smaller]
    np.sqrt(held, out=held)

    def smaller_pairs():
        pairs = []
        for n, e in zip(smaller, e_raw):
            f_r, f_d = held[:2 * n * m].reshape(2, m, n)
            pairs.append((_x1_sq(f_r, lambda rows, _, f_d=f_d: f_d[rows]), e))
        return pairs

    f_r, rest = held[:n_elements * m].reshape(m, n_elements), held[n_elements * m:]

    def f_d_rows(rows, buf):
        flat = buf.reshape(-1)
        start = rows.start * n_elements
        kept = min(max(rest.size - start, 0), flat.size)
        flat[:kept] = rest[start:start + kept]
        fresh = rng.standard_exponential(out=flat[kept:])
        np.sqrt(fresh, out=fresh)
        return buf

    # phase_sum reads f_R again for f_E, so only rayleigh may reuse its rows
    split = (_x1_split(f_r, f_d_rows, rest.size, rng, smaller_pairs)
             if eav_mode == "rayleigh" else None)
    if split is None:
        pairs = smaller_pairs()
        x1 = _x1_sq(f_r, f_d_rows)
    else:
        x1, pairs = split
    if eav_mode == "rayleigh":
        return pairs + [(x1, rng.standard_exponential(m))]
    f_e = _fill_exponential(rng, np.empty((m, n_elements)))
    np.sqrt(f_e, out=f_e)
    f_re = np.multiply(f_r, f_e, out=f_r)
    del f_e
    x2 = np.empty(m, dtype=complex)
    for rows in _row_blocks(m, n_elements):
        z = np.exp(1j * rng.uniform(-math.pi, math.pi, (rows.stop - rows.start, n_elements)))
        np.multiply(f_re[rows], z, out=z)
        z.sum(axis=1, out=x2[rows])
    return pairs + [(x1, np.abs(x2) ** 2)]


def draw_chunks(n_elements: int, mc: McConfig):
    """Fading draws of every chunk, in stream order, as ``(X1^2, e)`` pairs.

    ``X1^2`` is the squared coherent destination sum. ``e`` is the
    eavesdropper gain at unit SNR: X2^2 / N ~ Exp(1) in ``rayleigh``
    mode, X2^2 itself in ``phase_sum`` mode. Neither depends on the
    SNRs, the threshold or the impairment levels, so one draw set serves
    every operating point with this N and ``mc``. Each chunk is computed
    by a helper that returns, so no amplitude array outlives it: the
    peak is one (chunk x N) array plus one row block, or two (chunk x N)
    arrays in ``phase_sum`` mode.
    """
    for rng, m in _stream_chunks(mc):
        yield _draw_chunk((n_elements,), rng, m, mc.eav_mode)[0]


def _n_groups(n_values, mc: McConfig) -> list[tuple]:
    """Ascending tuples of N that one :func:`_draw_chunk` call per stream serves.

    Every N at most half the largest joins the largest N's group, so the
    held prefix is at most (N_max + 1) m floats: the largest N's f_R plus
    one row of m. Each other N is its own group, as is every N unless
    the mode is ``rayleigh`` and every stream is one chunk.
    """
    n_values = sorted(set(n_values), reverse=True)
    if not n_values or mc.eav_mode != "rayleigh" or -(-mc.trials // mc.stream_count) > _CHUNK:
        return [(n,) for n in n_values]
    top = n_values[0]
    return [tuple(n for n in n_values[::-1] if 2 * n <= top) + (top,)] + [
        (n,) for n in n_values[1:] if 2 * n > top]


def model_law_chunks(stats: ChannelStats, mc: McConfig):
    """``(X1^2, e)`` chunks drawn from the Gaussian-sum model.

    X1 ~ N(sqrt(lambda_), sigma2) and e ~ Exp(1), the laws the closed
    forms are derived for, drawn chunk by chunk from the same Philox
    streams as :func:`draw_chunks` (X1 first, then e). Scoring them with
    :func:`simulate_metrics` checks a closed form against its own model
    rather than against the signal-level channel.
    """
    if mc.eav_mode != "rayleigh":
        raise ValueError("the model's eavesdropper gain is exponential: "
                         f"eav_mode must be 'rayleigh', got {mc.eav_mode!r}")
    mean, sd = math.sqrt(stats.lambda_), math.sqrt(stats.sigma2)
    return ((rng.normal(mean, sd, m) ** 2, rng.standard_exponential(m))
            for rng, m in _stream_chunks(mc))


def _scales(params: SystemParams, eav_mode: str):
    """Factors that turn a chunk's ``(X1^2, e)`` into the received SNRs."""
    return params.snr_d_linear, params.snr_e_linear * (
        params.n_elements if eav_mode == "rayleigh" else 1)


def _rho(params: SystemParams, eav_mode: str, x1_sq, e):
    """Received SNRs ``(rho_d, rho_e)`` of a chunk of draws."""
    d_scale, e_scale = _scales(params, eav_mode)
    return d_scale * x1_sq, e_scale * e


def _sndr(rho, kappa_sum, out=None):
    """SNDR rho / (kappa_sum rho + 1), written into ``out`` when given (rho itself may be)."""
    den = kappa_sum * rho
    den += 1.0
    return np.divide(rho, den, out=out)


ESTIMATES = ("sop", "asc_eq19", "asc_eq6")


def _one_plus_sndr(unit, scale: float, kappa_sum: float):
    """``1 + gamma`` of one link on a chunk of unit-SNR gains, in a new array."""
    g = unit * scale
    _sndr(g, kappa_sum, out=g)
    g += 1.0
    return g


class LinkMemo:
    """The eavesdropper link's per-chunk scoring arrays on one stored draw set.

    A sweep over ``snr_d_db`` scores all its points on ``draws`` with the
    same eavesdropper (SNR scale, kappa-sum) and gamma_th, so that link's
    arrays are the same at every point. The memo keeps one entry, replaced
    when that key or the estimates asked for change, holding per chunk
    only what the estimates read: the outage threshold gamma_th (1 +
    gamma_E) for ``sop`` and log2(1 + gamma_E) for the rates. That is 8 B
    per trial for each of the two, so at most the draw set's own 16 B.
    """

    def __init__(self, draws):
        self.draws = draws
        self._key = None
        self._kept: list = []  # arrays of chunk 0, 1, ...

    def arrays(self, chunk: int, key, compute):
        """``compute()``'s arrays on chunk ``chunk`` (counted from 0), kept under ``key``."""
        if key != self._key:
            self._key, self._kept = key, []
        if chunk == len(self._kept):
            self._kept.append(compute())
        return self._kept[chunk]


class PointAccumulator:
    """Running Monte Carlo sums of one operating point over ``(X1^2, e)`` chunks.

    Keeps the outage count ``n_out``, the sums ``s19``/``s19_sq`` of the
    rate difference v = log2(1+gamma_D) - log2(1+gamma_E) and its
    square, the sums ``s6``/``s6_sq`` of max(v, 0) and its square, and
    the trial count; only the sums behind the estimates named in
    ``keys`` (a subset of :data:`ESTIMATES`) are computed. With a
    :class:`LinkMemo` the eavesdropper's arrays of each chunk come from it.
    """

    def __init__(self, params: SystemParams, mc: McConfig, keys=ESTIMATES,
                 memo: LinkMemo | None = None):
        unknown = set(keys) - set(ESTIMATES)
        if unknown:
            raise ValueError(f"unknown estimates {sorted(unknown)}, expected a subset of {ESTIMATES}")
        self.mc = mc
        self.keys = tuple(k for k in ESTIMATES if k in keys)
        self.rates = "asc_eq19" in self.keys or "asc_eq6" in self.keys
        self.d_scale, self.e_scale = _scales(params, mc.eav_mode)
        self.kappa_d_sum, self.kappa_e_sum = params.kappa_d_sum, params.kappa_e_sum
        self.gamma_th = params.gamma_th
        self.memo = memo
        self.chunks = 0
        self.trials = 0
        self.n_out = 0
        self.s19 = self.s19_sq = 0.0
        self.s6 = self.s6_sq = 0.0

    def _eavesdropper(self, e):
        """``(gamma_th (1 + gamma_E), log2(1 + gamma_E))`` of a chunk; None where not asked."""
        def compute():
            one_e = _one_plus_sndr(e, self.e_scale, self.kappa_e_sum)
            threshold = self.gamma_th * one_e if "sop" in self.keys else None
            return threshold, np.log2(one_e, out=one_e) if self.rates else None

        if self.memo is None:
            return compute()
        key = (self.e_scale, self.kappa_e_sum, self.gamma_th, self.keys)
        return self.memo.arrays(self.chunks, key, compute)

    def update(self, x1_sq, e):
        """Add one chunk of draws; returns the eavesdropper arrays it scored with."""
        one_d = _one_plus_sndr(x1_sq, self.d_scale, self.kappa_d_sum)
        eav = self._eavesdropper(e)
        threshold, log_e = eav
        if threshold is not None:
            # R_S < C_th  <=>  1 + gamma_D < gamma_th (1 + gamma_E), exact
            # for any positive threshold rate.
            self.n_out += np.count_nonzero(one_d < threshold)
        if self.rates:
            v = np.log2(one_d, out=one_d)
            v -= log_e
            if "asc_eq19" in self.keys:
                self.s19 += v.sum()
                self.s19_sq += (v * v).sum()
            if "asc_eq6" in self.keys:
                np.maximum(v, 0.0, out=v)
                self.s6 += v.sum()
                self.s6_sq += (v * v).sum()
        self.trials += x1_sq.size
        self.chunks += 1
        return eav

    def estimates(self) -> dict:
        """The requested estimates; ``ValueError`` unless ``mc.trials`` trials were added."""
        t, seed = self.trials, self.mc.seed
        if t != self.mc.trials:
            raise ValueError(f"draws hold {t} trials, mc.trials is {self.mc.trials}")
        out = {}
        if "sop" in self.keys:
            p = self.n_out / t
            out["sop"] = EstimateWithCI(p, math.sqrt(p * (1.0 - p) / t), t, seed)
        for key, s, ssq in (("asc_eq19", self.s19, self.s19_sq),
                            ("asc_eq6", self.s6, self.s6_sq)):
            if key in self.keys:
                mean = float(s) / t
                var = max(float(ssq) / t - mean * mean, 0.0)
                out[key] = EstimateWithCI(mean, math.sqrt(var / t), t, seed)
        return out


def simulate_metrics(params: SystemParams, mc: McConfig, draws=None, *,
                     keys=ESTIMATES, memo: LinkMemo | None = None) -> dict:
    """Score one operating point on a set of fading draws.

    ``draws`` is any iterable of the ``(X1^2, e)`` chunks of
    :func:`draw_chunks` (or :func:`model_law_chunks`) for
    ``params.n_elements`` and ``mc``; a sweep passes one list to every
    grid point. When it is None the chunks are drawn lazily, one at a
    time. Raises ``ValueError`` when the chunks do not hold
    ``mc.trials`` trials.

    Returns the estimates named in ``keys``, of ``sop``, ``asc_eq19``
    (difference of ergodic rates, may be negative) and ``asc_eq6`` (mean
    of the zero-clipped instantaneous secrecy rate); all three by default.

    ``memo`` is a :class:`LinkMemo` made for this ``draws`` list, which a
    sweep over ``snr_d_db`` passes to each of its points in turn; the
    estimates are the same with and without it. ``ValueError`` when
    ``memo`` was made for other draws.
    """
    if memo is not None and memo.draws is not draws:
        raise ValueError("memo was made for another draw set")
    if draws is None:
        draws = draw_chunks(params.n_elements, mc)
    acc = PointAccumulator(params, mc, keys, memo)
    for x1_sq, e in draws:
        # Hold this chunk's eavesdropper arrays until the next update, that
        # is across the next lazy draw. Freed before the draw, they let
        # glibc's heap keep freed amplitude arrays resident: drawing per
        # point over N = 8..1024 at 1e5 trials peaked at 276 MiB, not 252.
        held = acc.update(x1_sq, e)
    return acc.estimates()


def simulate_points(points, mc: McConfig, keys=ESTIMATES) -> list[dict]:
    """Score several operating points on one pass over the draws of their N values.

    Returns, for each of ``points``, what ``simulate_metrics(params, mc,
    keys=keys)`` returns, bit for bit, but draws each Philox stream once
    per group of N (see :func:`_n_groups`) rather than once per point: one
    draw for the largest N of a group serves every smaller N in it. Each
    chunk updates the accumulators of the points with its N, in stream
    order, and is then dropped; nothing is stored.
    """
    accs = [PointAccumulator(params, mc, keys) for params in points]
    by_n: dict[int, list] = {}
    for params, acc in zip(points, accs):
        by_n.setdefault(params.n_elements, []).append(acc)
    for group in _n_groups(by_n, mc):
        for rng, m in _stream_chunks(mc):
            for n, (x1_sq, e) in zip(group, _draw_chunk(group, rng, m, mc.eav_mode)):
                for acc in by_n[n]:
                    acc.update(x1_sq, e)
    return [acc.estimates() for acc in accs]


def sample_quantity(quantity: str, params: SystemParams, mc: McConfig) -> np.ndarray:
    """All trial values of one per-trial quantity (unsorted)."""
    if quantity not in ("rho_d", "rho_e", "gamma_d", "gamma_e", "x1"):
        raise ValueError(f"unknown quantity {quantity!r}")
    parts = []
    for chunk in draw_chunks(params.n_elements, mc):
        rho_d, rho_e = _rho(params, mc.eav_mode, *chunk)
        if quantity == "rho_d":
            parts.append(rho_d)
        elif quantity == "rho_e":
            parts.append(rho_e)
        elif quantity == "gamma_d":
            parts.append(_sndr(rho_d, params.kappa_d_sum))
        elif quantity == "gamma_e":
            parts.append(_sndr(rho_e, params.kappa_e_sum))
        else:
            parts.append(np.sqrt(rho_d / params.snr_d_linear))
    return np.concatenate(parts)


def ks_distance(sorted_samples: np.ndarray, cdf) -> float:
    """One-sample Kolmogorov-Smirnov statistic against a model CDF.

    ``cdf`` must accept the sorted sample array and return model CDF
    values elementwise.
    """
    n = sorted_samples.size
    f = np.asarray(cdf(sorted_samples), dtype=float)
    i = np.arange(1, n + 1, dtype=float)
    return float(max(np.max(i / n - f), np.max(f - (i - 1.0) / n)))

