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
therefore draws one set, keeps it and scores every grid point on it
(common random numbers), for the estimates it emits only; a
``snr_d_db`` sweep also scores the eavesdropper link, which it leaves
unchanged, once per chunk through a :class:`LinkMemo`. Every path
counts a trial as an outage where its critical destination SNR, which
the memo keeps, exceeds the point's (see :func:`_critical_snrs`). The
curves of one ``sweeps.run_sweeps`` call share one :class:`DrawSets`,
which keeps the last set it handed out, under its McConfig and N, for a
later curve with the same pair. In ``rayleigh`` mode a curve with the
same McConfig and a larger N grows it, drawing only its new element
columns; any other curve drops it and draws afresh. An ``n_elements``
sweep empties the store and stores nothing: :func:`simulate_points`
draws each chunk once, for the largest N, takes every N's X1 from the
same running sum, and updates each point's accumulator as soon as the
sum reaches its N. :func:`model_law_chunks` draws the Gaussian-sum
model itself, to check the closed forms against the law they are
derived for.

Stream layout: every fading value is drawn by inversion from one 64-bit
word of one region of its stream, so each sits at a known word. Stream
i holds S trials and has four regions; region r is its own
``PCG64DXSM`` bit generator, seeded by ``SeedSequence(seed,
spawn_key=(i, r))`` and moved to a word by ``advance``:

  ====== ============ =========================================
  region mode         element i's values, trial t at word ...
  ====== ============ =========================================
  0      both         f_R at 2iS + t, f_D at (2i+1)S + t
  1      rayleigh     e (no element) at t
  2      phase_sum    f_E at iS + t
  3      phase_sum    residual phase at iS + t
  ====== ============ =========================================

A chunk is one trial range of every region, and a smaller N's draws
are the first columns of a larger N's. A chunk draws each region it
reads from one generator, advanced past the other chunks' words
between its rows. X1 (and X2) is summed in element order, so each N's
X1 is a snapshot of one running sum. The values
therefore depend neither on the chunking, nor on which N are drawn
together, nor on the CPU count. Amplitudes are sqrt(E), E = -log(1 - u)
with u uniform on the 2^-53 grid of [0, 1). Inversion caps E at
-log(2^-53) ~ 36.7, which Exp(1) exceeds with probability 1.1e-16. The
product of two amplitudes is formed under one root, f_R f_D =
sqrt(log(1 - u_R) log(1 - u_D)) (and f_R f_E alike), which is within 2
ulp (2^-51 relative) of the product of the two roots.

Memory: a chunk of m trials (at most ``_CHUNK``) is drawn in blocks of
elements of about ``_BLOCK`` amplitudes, each into the chunk's one block
buffer. A whole chunk is the unit that worker threads run: once X1
reads ``_POOL_MIN`` words over all the chunks of a draw, the chunks are
drawn on up to :func:`_usable_cpus` threads, at most one in flight per
worker (see :func:`_in_order`); below that, for one chunk or on one CPU,
the caller draws them alone. Every array that outlives a chunk's task
(its block buffer, running sums and e) is allocated on the calling
thread, so that it stays in that thread's malloc arena; a kept X1^2 is
the last N's running sum, squared in place. A chunk's draw holds its
running sums, the X1^2 and e of the N just reached (m floats each;
``rayleigh`` mode shares one e), which are scored or kept before the
sum goes on, and its buffer: 0.8 MB over N = 8..1024 at 1e5 trials, 2
MB in ``phase_sum`` mode. A grouped pass of :func:`simulate_points`
scores each chunk on its worker, so each chunk in flight also holds its
scoring arrays; over those N at 1e6 trials the pass peaks 35 MiB of RSS
above the imports on two CPUs. A stored draw set holds 16 B per trial
(1.6 MB at the presets' 1e5 trials). A ``snr_d_db`` sweep's
:class:`LinkMemo` keeps 8 B per trial for each of the critical SNRs
and the eavesdropper's rates that it emits: a 2-point N = 5 sweep at 1e7
trials peaks at 295 MiB with one of them and 370 MiB with both, against
219 MiB without the memo. One ``mc_sop`` curve peaks at 28 B per trial
(``tracemalloc``), and so do ``mc_sop`` curves on one :class:`DrawSets`
in any N order (5, 10, 15; 5, 10, 5; 15, 10, 5; 5, 5, 5), in any
McConfig order (seeds 11, 12, 11) and before an ``n_elements`` curve:
it holds at most one set, drops it before any fresh draw, and growing
it turns each chunk's X1^2 back into X1 in place.

Reproducibility contract: estimates are a pure function of (seed,
stream_count, trials). Trials are partitioned over ``stream_count``
streams, each value is read at its word of the region table above, and
per-chunk partial sums are combined in stream order, so results do not
depend on which thread draws or scores a chunk, nor when. The bits do
depend on numpy's float64 ``log`` loop: its AVX512F build and its plain
one differ by one ulp in about 3.5 values in 10^3.

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

import collections
import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Literal

import numpy as np

from ._schema import check_field_types
from .channel import ChannelStats, SystemParams

_CHUNK = 1 << 18
# amplitudes of f_R and f_D in one block of elements; each chunk in
# flight holds one block, so two workers hold 2^17 amplitudes
_BLOCK = 1 << 16
# a draw whose X1 reads fewer words over all its chunks runs on the
# caller: below 10^6 the pool's start-up outweighed a second CPU's draws
_POOL_MIN = 1_000_000
# the word regions of a stream, each drawn by a generator of its own (see
# the module docstring's stream layout)
_AMPLITUDES, _E, _F_E, _PHASE = range(4)


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


def _chunk_spans(mc: McConfig):
    """``(stream, S, start, m)`` of each chunk: trials [start, start + m) of a stream's S."""
    base, extra = divmod(mc.trials, mc.stream_count)
    for i in range(mc.stream_count):
        size = base + (1 if i < extra else 0)
        for start in range(0, size, _CHUNK):
            yield i, size, start, min(_CHUNK, size - start)


def _stream_chunks(mc: McConfig):
    """``(generator, chunk size)`` of every chunk; each stream draws its chunks in turn."""
    for i, _, start, m in _chunk_spans(mc):
        if start == 0:
            rng = np.random.Generator(np.random.Philox(key=mc.seed).jumped(i))
        yield rng, m


def _region_at(region: tuple, position: int) -> np.random.PCG64DXSM:
    """The bit generator of ``region`` = (seed, stream, index), at word ``position``."""
    seed, stream, index = region
    bit_gen = np.random.PCG64DXSM(np.random.SeedSequence(seed, spawn_key=(stream, index)))
    return bit_gen.advance(position)


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _chunk_regions(seed, span: tuple, eav_mode: str, n0: int) -> tuple:
    """The generators of the element regions of chunk ``span``, at element n0's first words.

    Region 0 (f_R and f_D) and, in ``phase_sum`` mode, region 3 (the
    phase) and region 2 (f_E), in that order. :func:`_block_terms` draws
    the blocks of elements from n0 on from them, in element order, each
    block going on from where the last one stopped.
    """
    stream, size, start, _ = span

    def at(index, position):
        return np.random.Generator(_region_at((seed, stream, index), position))

    amplitudes = at(_AMPLITUDES, start + 2 * n0 * size)
    if eav_mode == "rayleigh":
        return (amplitudes,)
    return amplitudes, at(_PHASE, start + n0 * size), at(_F_E, start + n0 * size)


def _uniforms(gen: np.random.Generator, stride: int, out: np.ndarray) -> np.ndarray:
    """Uniforms on [0, 1) into the rows of ``out`` from ``gen``, the rows ``stride`` words apart.

    ``Generator.random`` reads one word per value, so when ``stride`` is
    the row length the rows are one run of words; otherwise the
    generator is advanced past the gap after each row. Either way it is
    left at the first word of the row after the last.
    """
    if stride == out.shape[1]:
        return gen.random(out=out)
    for row in out:
        gen.random(out=row)
        gen.bit_generator.advance(stride - row.size)
    return out


def _log_complements(gen: np.random.Generator, stride: int, out: np.ndarray) -> np.ndarray:
    """log(1 - u) <= 0 of the uniforms u of :func:`_uniforms`, in place.

    1 - u is exact on u's 2^-53 grid, so this is log1p(-u), from numpy's
    faster ``log`` loop.
    """
    u = _uniforms(gen, stride, out)
    np.subtract(1.0, u, out=u)
    return np.log(u, out=u)


def _exponentials(gen: np.random.Generator, stride: int, out: np.ndarray) -> np.ndarray:
    """Exp(1) values -log(1 - u) of the uniforms u of :func:`_uniforms`, in place."""
    return np.negative(_log_complements(gen, stride, out), out=out)


def _block_floats(eav_mode: str, elements: int, m: int) -> int:
    """float64 values of the buffer :func:`_block_terms` draws ``elements`` elements into."""
    return (2 if eav_mode == "rayleigh" else 5) * elements * m


def _root_products(rows: np.ndarray, factors: np.ndarray) -> None:
    """``rows = sqrt(rows * factors)``, one row at a time.

    Both are log(1 - u) rows, so each product of two is >= 0 and its
    root is the product of the two amplitudes sqrt(-log(1 - u)). One
    root in place of two moves a term by at most 2 ulp (2^-51
    relative). ``factors`` are every other row of a block (the
    log(1 - u_R) rows), and a whole-array product with such strided rows
    makes numpy take up to three 64 KiB iterator buffers; a product of
    two rows takes none.
    """
    for row, factor in zip(rows, factors):
        np.multiply(row, factor, out=row)
        np.sqrt(row, out=row)


def _block_terms(regions: tuple, span: tuple, eav_mode: str, block: tuple, buf: np.ndarray):
    """The terms of the elements [lo, hi) = ``block`` of chunk ``span``, a row each.

    Returns the rows f_Ri f_Di and, in ``phase_sum`` mode, f_Ri f_Ei
    e^{j delta_i} (else None); ``span`` is one of :func:`_chunk_spans`.
    ``regions`` are the chunk's generators (see :func:`_chunk_regions`),
    at element lo's first words. The rows are views of ``buf``, a 1-d
    float64 array of at least :func:`_block_floats` values, and nothing
    else is allocated: in ``phase_sum`` mode the complex rows come first,
    then the f_R and f_D rows, then one row per element for the phase
    and, after it, f_E.

    Each amplitude row holds log(1 - u) of its region-0 (or region-2)
    uniforms, and a term is one root of two of them (see
    :func:`_root_products`): f_R f_D = sqrt(log(1 - u_R) log(1 - u_D)).
    The f_R rows stay logs until f_R f_E is formed from them too.
    """
    _, size, _, m = span
    k = block[1] - block[0]
    rows = 0 if eav_mode == "rayleigh" else 2 * k  # float rows before f_R and f_D
    logs = _log_complements(regions[0], size, buf[rows * m:(rows + 2 * k) * m].reshape(2 * k, m))
    log_r, x1_terms = logs[0::2], logs[1::2]
    _root_products(x1_terms, log_r)
    if eav_mode == "rayleigh":
        return x1_terms, None
    x2_terms = buf[:rows * m].view(complex).reshape(k, m)
    u = _uniforms(regions[1], size, buf[4 * k * m:5 * k * m].reshape(k, m))
    u *= 2.0 * math.pi  # Generator.uniform(-pi, pi)'s map of u
    u -= math.pi
    # float and complex operands are never mixed in one ufunc call: numpy
    # would cast the float one through a 128 KiB buffer of its own
    x2_terms.real = u
    x2_terms.imag = 0.0
    x2_terms *= 1j
    np.exp(x2_terms, out=x2_terms)
    f_e = _log_complements(regions[2], size, u)
    _root_products(f_e, log_r)  # f_R f_E
    x2_terms.real *= f_e  # (a + bi) f, up to the sign of a zero part, which |X2| drops
    x2_terms.imag *= f_e
    return x1_terms, x2_terms


def _block_step(m: int) -> int:
    """Elements in one block of a chunk of m trials: about ``_BLOCK`` amplitudes."""
    return max(1, _BLOCK // (2 * m))


def _new_sums(span: tuple, eav_mode: str) -> list:
    """Chunk ``span``'s running sums over no element: ``[X1, e]`` or ``[X1, e, X2]``.

    The first is ``rayleigh`` mode's, whose e depends on no element and
    is drawn into it by :func:`_draw_chunk`; the second ``phase_sum``
    mode's, whose e is where |X2|^2 of the last N goes. The arrays are
    allocated here, on the calling thread.
    """
    m = span[3]
    if eav_mode == "rayleigh":
        return [np.zeros(m), np.empty(m)]
    return [np.zeros(m), np.empty(m), np.zeros(m, dtype=complex)]


def _draw_chunk(group: tuple, seed, span: tuple, eav_mode: str, n0: int, sums: list,
                buf: np.ndarray, give=None) -> list:
    """The ``(X1^2, e)`` of chunk ``span`` for each N of the ascending ``group``, in its order.

    Each pair is what the chunk is for that N alone (see
    :func:`draw_chunks`). ``sums`` are the chunk's running sums over its
    first n0 element columns (see :func:`_new_sums`; where n0 is 0 they
    are new and ``rayleigh`` mode's e is drawn here); element columns
    [n0, group[-1]) are drawn in blocks of elements into ``buf`` and
    added to them in element order. Each N of ``group`` must exceed n0.

    Each pair is made as soon as the running sum reaches its N and is
    handed to ``give(pair)``; without ``give`` the pairs are collected
    in the list returned. A smaller N's pair is new (``rayleigh`` mode
    shares the one e), the last N's the sums' own arrays: X1 squared in
    place and, in ``phase_sum`` mode, |X2|^2 written to e. Nothing this
    allocates outlives the call.
    """
    stream, size, start, m = span
    n_max, step = group[-1], _block_step(m)
    x1, e, *x2 = sums
    if n0 == 0 and not x2:
        _exponentials(np.random.Generator(_region_at((seed, stream, _E), start)), size,
                      e.reshape(1, m))
    pairs = []
    give = pairs.append if give is None else give
    summed, given = n0, 0
    regions = _chunk_regions(seed, span, eav_mode, n0)
    for lo in range(n0, n_max, step):
        x1_terms, x2_terms = _block_terms(regions, span, eav_mode, (lo, min(lo + step, n_max)), buf)
        for i, row in enumerate(x1_terms):
            np.add(x1, row, out=x1)
            if x2:
                np.add(x2[0], x2_terms[i], out=x2[0])
            summed += 1
            if summed == group[given]:
                given += 1
                last = summed == n_max
                x1_sq = np.square(x1, out=x1 if last else None)
                if x2:
                    e_n = np.abs(x2[0], out=e if last else None)
                    give((x1_sq, np.square(e_n, out=e_n)))
                else:
                    give((x1_sq, e))
    return pairs


def _chunk_task(group: tuple, seed, span: tuple, eav_mode: str, n0: int = 0,
                sums: list | None = None, give=None):
    """:func:`_draw_chunk` of chunk ``span`` as a function of no argument.

    Its arrays are allocated here, on the calling thread, so that they
    stay in that thread's malloc arena whichever thread draws: new
    running sums unless ``sums`` are given, and one block buffer, which
    the draw drops as it returns.
    """
    m = span[3]
    sums = _new_sums(span, eav_mode) if sums is None else sums
    held = [np.empty(_block_floats(eav_mode, _block_step(m), m))]
    return lambda: _draw_chunk(group, seed, span, eav_mode, n0, sums, held.pop(), give)


def _workers(mc: McConfig, columns: int) -> int:
    """Threads that draw ``columns`` element columns of every chunk of ``mc``.

    The caller draws alone on one CPU, for one chunk, or where X1 reads
    fewer than ``_POOL_MIN`` words over all the chunks.
    """
    if 2 * columns * mc.trials < _POOL_MIN:
        return 1
    return min(_usable_cpus(), sum(1 for _ in _chunk_spans(mc)))


def _in_order(tasks, workers: int):
    """The result of each of ``tasks``, in their order, computed on ``workers`` threads.

    ``tasks`` yields functions of no argument; each is taken from it on
    the calling thread just before it is submitted. With fewer than two
    workers the caller runs them. Otherwise at most ``workers`` tasks are
    in flight: the next is submitted as soon as the oldest one's result
    is taken, before it is yielded. An error in a task reaches the
    caller when its result is due. The pool joins its workers on leaving:
    after the last result, when a task or ``tasks`` raises, or when this
    generator is closed.
    """
    tasks = iter(tasks)
    if workers < 2:
        for task in tasks:
            yield task()
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        in_flight = collections.deque(pool.submit(task)
                                      for task in itertools.islice(tasks, workers))
        while in_flight:
            result = in_flight.popleft().result()
            in_flight.extend(pool.submit(task) for task in itertools.islice(tasks, 1))
            yield result


def draw_chunks(n_elements: int, mc: McConfig):
    """Fading draws of every chunk, in stream order, as ``(X1^2, e)`` pairs.

    ``X1^2`` is the squared coherent destination sum. ``e`` is the
    eavesdropper gain at unit SNR: X2^2 / N ~ Exp(1) in ``rayleigh``
    mode, X2^2 itself in ``phase_sum`` mode. Neither depends on the
    SNRs, the threshold or the impairment levels, so one draw set serves
    every operating point with this N and ``mc``. The chunks are drawn
    on up to :func:`_workers` threads, each ahead of the one the caller
    holds by at most that many chunks. Closing the generator joins them.
    """
    tasks = (_chunk_task((n_elements,), mc.seed, span, mc.eav_mode) for span in _chunk_spans(mc))
    for pairs in _in_order(tasks, _workers(mc, n_elements)):
        yield pairs[0]


class DrawSets:
    """Stored Monte Carlo draws: at most one set, the last one handed out.

    :meth:`get` gives the ``(X1^2, e)`` chunks of ``draw_chunks(N, mc)``
    bit for bit and keeps them in ``kept`` under ``(mc, N)``. A later call
    with that key gets the same list. In ``rayleigh`` mode a call with
    the same ``mc`` and a larger N grows it in place: X1, a sum of
    non-negative terms, is exactly the sqrt of its rounded square, so
    each chunk's X1^2 is turned back into its running sum and only the
    new element columns are drawn. The list and arrays handed out for the
    smaller N are thus reused. Any other call drops the kept set before
    it draws afresh; setting ``kept`` to None drops it at once. A draw
    that raises is tried once per key: its error, without its traceback,
    stays in ``failed``.
    """

    def __init__(self):
        self.kept = None  # ((mc, N), its chunks)
        self.failed: dict = {}

    def get(self, n: int, mc: McConfig):
        """The chunks of N and ``mc``, or the error of their draw."""
        if (mc, n) in self.failed:
            return self.failed[mc, n]
        (mc0, n0), chunks = self.kept or ((None, 0), None)
        self.kept = None  # a draw that raises leaves nothing kept
        try:
            if mc0 == mc and n0 < n and mc.eav_mode == "rayleigh":
                tasks = (_chunk_task((n,), mc.seed, span, mc.eav_mode, n0,
                                     [np.sqrt(x1_sq, out=x1_sq), e])
                         for span, (x1_sq, e) in zip(_chunk_spans(mc), chunks))
                chunks[:] = [pairs[0] for pairs in _in_order(tasks, _workers(mc, n - n0))]
            elif (mc0, n0) != (mc, n):
                chunks = None  # not held through the new draw
                chunks = list(draw_chunks(n, mc))
        except Exception as exc:  # frees the failed draw's frames and arrays
            self.failed[mc, n] = exc.with_traceback(None)
            return self.failed[mc, n]
        self.kept = (mc, n), chunks
        return chunks


def model_law_chunks(stats: ChannelStats, mc: McConfig):
    """``(X1^2, e)`` chunks drawn from the Gaussian-sum model.

    X1 ~ N(sqrt(lambda_), sigma2) and e ~ Exp(1), the laws the closed
    forms are derived for, drawn chunk by chunk, X1 first and then e,
    from stream i's ``Philox(key=seed).jumped(i)`` (not the regions of
    :func:`draw_chunks`), split as draw_chunks splits. Scoring them with
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


def _critical_snrs(threshold, x1_sq, kappa_sum: float):
    """Each trial's critical destination SNR c, written over its outage threshold T.

    A trial is an outage at destination SNR s where c > s. With t = T - 1
    and v = 1/t - kappa_sum, the test 1 + gamma_D < T holds, in exact
    arithmetic, exactly when s < c = 1 / (X1^2 v) where v > 0, and at
    every s where v <= 0, that is 1 - kappa_sum t <= 0. This computes c
    in floating point with v clamped at 0, which makes the rule for the
    special cases:

    - X1^2 = 0 or v <= 0 (T = inf included) gives c = +inf, an outage;
    - T = 1 (gamma_th rounds to 1 and gamma_E = 0) gives c = 0, or NaN
      where also X1^2 = 0: no outage;
    - NaN c is no outage, as the direct test's NaN comparison gives.

    ``threshold`` is overwritten; no other m-float array is made.
    """
    c = threshold
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        c -= 1.0
        np.divide(1.0, c, out=c)
        c -= kappa_sum
        np.maximum(c, 0.0, out=c)  # v < 0: an outage at every s, as v = 0
        c *= x1_sq
        np.divide(1.0, c, out=c)
    return c


class LinkMemo:
    """The eavesdropper link's per-chunk scoring arrays on one stored draw set.

    A sweep over ``snr_d_db`` scores all its points on ``draws`` with the
    same eavesdropper (SNR scale, kappa-sum), gamma_th and destination
    kappa-sum, so what the estimates read of the eavesdropper is the same
    at every point. The memo keeps one entry, replaced when that key or
    the estimates asked for change, holding per chunk log2(1 + gamma_E)
    for the rates and, for ``sop``, each trial's critical destination SNR
    c (see :func:`_critical_snrs`): 8 B per trial for each of the two, so
    at most the draw set's own 16 B. A point at destination SNR s counts
    its outages as c > s, in one pass over c, by the rule that scores a
    point without a memo.
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
    ``keys`` (a subset of :data:`ESTIMATES`) are computed. A trial is
    an outage where its critical destination SNR exceeds the point's
    (see :func:`_critical_snrs`). With a :class:`LinkMemo` the
    eavesdropper's arrays of each chunk, those critical SNRs included,
    come from it.
    """

    def __init__(self, params: SystemParams, mc: McConfig, keys=ESTIMATES,
                 memo: LinkMemo | None = None):
        unknown = set(keys) - set(ESTIMATES)
        if unknown:
            raise ValueError(f"unknown estimates {sorted(unknown)}, expected a subset of {ESTIMATES}")
        self.mc = mc
        self.keys = tuple(k for k in ESTIMATES if k in keys)
        self.sop = "sop" in self.keys
        self.rates = "asc_eq19" in self.keys or "asc_eq6" in self.keys
        self.d_scale, self.e_scale = _scales(params, mc.eav_mode)
        self.kappa_d_sum, self.kappa_e_sum = params.kappa_d_sum, params.kappa_e_sum
        self.gamma_th = params.gamma_th
        self.memo = memo
        # what the memo's arrays depend on
        self.memo_key = (self.e_scale, self.kappa_e_sum, self.gamma_th, self.kappa_d_sum, self.keys)
        self.chunks = 0
        self.trials = 0
        self.n_out = 0
        self.s19 = self.s19_sq = 0.0
        self.s6 = self.s6_sq = 0.0

    def _link_arrays(self, x1_sq, e):
        """``(c, log2(1 + gamma_E))`` of a chunk, None where not asked.

        c is each trial's critical destination SNR (see
        :func:`_critical_snrs`). The pair is what a :class:`LinkMemo` keeps.
        """
        critical = log_e = None
        one_e = _one_plus_sndr(e, self.e_scale, self.kappa_e_sum)
        if self.sop:
            # the threshold gamma_th (1 + gamma_E), over 1 + gamma_E unless the rates need it
            threshold = np.multiply(one_e, self.gamma_th, out=None if self.rates else one_e)
            critical = _critical_snrs(threshold, x1_sq, self.kappa_d_sum)
        if self.rates:
            log_e = np.log2(one_e, out=one_e)
        return critical, log_e

    def update(self, x1_sq, e):
        """Add one chunk of draws."""
        if self.memo is None:
            critical, log_e = self._link_arrays(x1_sq, e)
        else:
            critical, log_e = self.memo.arrays(self.chunks, self.memo_key,
                                               lambda: self._link_arrays(x1_sq, e))
        if self.sop:
            # R_S < C_th  <=>  1 + gamma_D < gamma_th (1 + gamma_E)  <=>  snr_d < c
            self.n_out += np.count_nonzero(critical > self.d_scale)
        del critical  # spent, unless a memo keeps it
        if self.rates:
            one_d = _one_plus_sndr(x1_sq, self.d_scale, self.kappa_d_sum)
            v = np.log2(one_d, out=one_d)
            v -= log_e
            if "asc_eq19" in self.keys:
                self.s19 += v.sum()
                # v * v into a spent array: v itself unless asc_eq6 still needs it,
                # then log2(1 + gamma_E) unless a memo keeps that
                square = v
                if "asc_eq6" in self.keys:
                    square = log_e if self.memo is None else np.empty_like(v)
                self.s19_sq += np.multiply(v, v, out=square).sum()
            if "asc_eq6" in self.keys:
                np.maximum(v, 0.0, out=v)
                self.s6 += v.sum()
                self.s6_sq += np.multiply(v, v, out=v).sum()
        self.trials += x1_sq.size
        self.chunks += 1

    def merge(self, other: PointAccumulator) -> None:
        """Add the sums of ``other``, this point's accumulator over the next chunk.

        Each of ``other``'s sums is one chunk's float, so it enters as if
        that chunk had been added here.
        """
        self.n_out += other.n_out
        self.s19 += other.s19
        self.s19_sq += other.s19_sq
        self.s6 += other.s6
        self.s6_sq += other.s6_sq
        self.trials += other.trials
        self.chunks += other.chunks

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
    sweep over ``snr_d_db`` passes to each of its points in turn. It
    keeps what the point would compute itself, so the estimates are the
    same with and without it. ``ValueError`` when ``memo`` was made for
    other draws.
    """
    if memo is not None and memo.draws is not draws:
        raise ValueError("memo was made for another draw set")
    acc = PointAccumulator(params, mc, keys, memo)
    # a generator bound to no name is closed, and its pool joined, as an
    # error leaves this frame, however long the error is kept
    for x1_sq, e in draw_chunks(params.n_elements, mc) if draws is None else draws:
        acc.update(x1_sq, e)
    return acc.estimates()


def simulate_points(points, mc: McConfig, keys=ESTIMATES) -> list[dict]:
    """Score several operating points on one pass over the draws of their N values.

    Returns, for each of ``points``, what ``simulate_metrics(params, mc,
    keys=keys)`` returns, bit for bit, but draws each chunk once, for the
    largest N, rather than once per point: every smaller N's draws are
    the first element columns of the largest N's (see
    :func:`_draw_chunk`). Each chunk is scored on the thread that draws
    it, into accumulators of its own: its pair for each N updates those
    of the points with that N as soon as the draw reaches it, and is then
    dropped. The caller merges each chunk's accumulators into the
    points' in stream order; nothing is stored.
    """
    accs = [PointAccumulator(params, mc, keys) for params in points]
    group = tuple(sorted({params.n_elements for params in points}))

    def task(span):  # called on the calling thread, which allocates the chunk's arrays
        parts = [PointAccumulator(params, mc, keys) for params in points]
        ready = iter(group)

        def score(pair):
            n = next(ready)
            for params, part in zip(points, parts):
                if params.n_elements == n:
                    part.update(*pair)

        draw = _chunk_task(group, mc.seed, span, mc.eav_mode, give=score)

        def run():
            draw()
            return parts

        return run

    if group:
        for parts in _in_order(map(task, _chunk_spans(mc)), _workers(mc, group[-1])):
            for acc, part in zip(accs, parts):
                acc.merge(part)
    return [acc.estimates() for acc in accs]


def sample_quantity(quantity: str, params: SystemParams, mc: McConfig) -> np.ndarray:
    """All trial values of one per-trial quantity (unsorted)."""
    if quantity not in ("rho_d", "rho_e", "gamma_d", "gamma_e", "x1"):
        raise ValueError(f"unknown quantity {quantity!r}")
    parts = []
    for chunk in draw_chunks(params.n_elements, mc):
        if quantity == "x1":
            # X1, a sum of non-negative terms, is the sqrt of its rounded square
            parts.append(np.sqrt(chunk[0]))
            continue
        rho_d, rho_e = _rho(params, mc.eav_mode, *chunk)
        if quantity == "rho_d":
            parts.append(rho_d)
        elif quantity == "rho_e":
            parts.append(rho_e)
        elif quantity == "gamma_d":
            parts.append(_sndr(rho_d, params.kappa_d_sum))
        else:
            parts.append(_sndr(rho_e, params.kappa_e_sum))
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

