"""Particle-level simulation of the fast-coefficient dynamics.

Three ingredients live here:

* a Chambers--Mallows--Stuck sampler for symmetric alpha-stable increments,
  which takes its sines and cosines from half-angle tangents (three
  vectorised ``tan`` calls instead of three scalar-libm ``sin``/``cos``),
* the jump-diffusion whose generator is the heterogeneous integrable-jump
  operator (Euler drift/diffusion plus exactly thinned jumps), together with
  the Monte-Carlo variance oracle for the effective diffusivity Q,
* the alpha-stable signal of the stable family (Euler drift plus exact
  stable increments).

Paths are grouped into fixed-size chunks; chunk ``c`` of a run draws every
random number from the dedicated stream ``(seed, c)``, so ensembles are
bit-identical for identical configurations regardless of how chunks are
scheduled, and workers splitting the chunk range never share a stream.

The jump-diffusion's random inputs do not depend on the state: thinning
draws its proposals from a homogeneous Poisson process and only the
acceptance test reads the paths.  So a chunk draws them ``_STEP_BLOCK``
steps at a time, in one task per block, and a one-thread pool scoped to the
call draws block b + 1 while the calling thread marches block b; the large
draws release the GIL.  Only that worker touches the chunk's generator and
it runs its tasks in order, so the draws, and with them every path, are the
same however the two threads are timed.  The block length is part of the
sampling design, like the chunk size.  The signal's CMS arithmetic stays
step by step on the calling thread.

Coefficient fields are evaluated through periodic lookup tables: linear
interpolation between 8192 uniform samples of the field's trigonometric
interpolant, taken by ``PeriodicField.uniform_samples`` (the sampler that
also gives the line traces of ``lineops``), with an error far below Monte
Carlo resolution.  Each table row stores one (value, slope) pair per table
cell, premultiplied by its step factor (dt, sqrt(dt), the drift or jump
scale), and the rows a step needs are stacked into one ``_Tables``: each
Euler step locates its paths on the unit cell once (``_locate``) and reads
every row at that location with one gather per array.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .coefficients import _eps_value

__all__ = [
    "RngStream",
    "ParticleEnsemble",
    "sample_stable_increment",
    "simulate_jump_diffusion_I",
    "estimate_Q_monte_carlo",
    "simulate_signal_II",
    "read_paths_binary",
]

_TABLE_RESOLUTION = 8192
_CHUNK_SIZE = 4096
_STEP_BLOCK = 128
_BINARY_MAGIC = b"NLHOMPE1"


@dataclass(frozen=True)
class RngStream:
    """A named, reproducible random stream.

    Distinct ``(seed, stream)`` pairs yield statistically independent
    generators (numpy ``SeedSequence`` spawn keys); the same pair always
    reproduces bit-identical draws.  ``counter`` derives further
    independent children from the same pair without touching the stream
    index, which simulation drivers reserve for path chunks.  All three are
    non-negative integers (numpy integers too, bool refused).
    """

    seed: int
    stream: int = 0
    counter: int = 0

    def __post_init__(self):
        for name in ("seed", "stream", "counter"):
            _check_count(name, getattr(self, name), 0)

    def generator(self):
        """Fresh numpy Generator for this (seed, stream, counter) triple."""
        seq = np.random.SeedSequence(
            entropy=int(self.seed), spawn_key=(int(self.stream), int(self.counter))
        )
        return np.random.default_rng(seq)

    def child(self):
        """Next counter value on the same (seed, stream) pair."""
        return RngStream(self.seed, self.stream, self.counter + 1)


def _locate(x, inv_eps):
    """Table cell of positions x on the unit cell: (idx, frac).

    y = x/eps mod 1 is folded as s - floor(s), bit-identical to
    np.mod(s, 1.0) and several times cheaper; then y * _TABLE_RESOLUTION =
    idx + frac with 0 <= frac < 1.  The fold rounds up to y == 1.0 for
    tiny negative s (e.g. -1.6e-19), giving idx == _TABLE_RESOLUTION and
    frac == 0: the tables' wrapped last entry reads the period start
    there, at no cost per step.  Every table of a step reads this one
    location.
    """
    s = x * inv_eps
    s -= np.floor(s)
    s *= _TABLE_RESOLUTION
    cell = np.floor(s)
    s -= cell
    return cell.astype(np.intp), s


def _cell_samples(field):
    """Table row of a unit-cell field: its trigonometric interpolant at
    y = j / _TABLE_RESOLUTION, j = 0 .. _TABLE_RESOLUTION, from
    :meth:`PeriodicField.uniform_samples`; the last entry wraps to the
    first for the idx == _TABLE_RESOLUTION round-up of ``_locate``.
    Callers scale the row by its step factor before stacking it."""
    vals = field.uniform_samples(_TABLE_RESOLUTION)
    return np.append(vals, vals[0])


class _Tables:
    """Stacked periodic linear-interpolation tables of k unit-cell fields.

    ``value`` and ``slope`` are (k, _TABLE_RESOLUTION + 1) arrays, one row
    per field, with ``slope[:, j] = value[:, j + 1] - value[:, j]`` and a
    wrapped last slope.  The grid is uniform, so a lookup at the location
    from ``_locate`` is one gather of each array along the table axis and
    one interpolation, ``slope[:, idx] * frac + value[:, idx]``: it returns
    k contiguous rows, in the arithmetic order of a one-field lookup.

    The gathers clip their indices instead of checking them, which halves
    their cost (11.3 -> 6.0 us for k = 3 and 2048 paths): every finite
    position has 0 <= idx <= _TABLE_RESOLUTION, and a non-finite one has a
    NaN ``frac``, so its coefficients and its next position are NaN and the
    save-step finite check reports it.
    """

    def __init__(self, *rows):
        self.value = np.stack(rows)
        slope = np.diff(self.value, axis=1)
        self.slope = np.concatenate([slope, slope[:, :1]], axis=1)

    def at(self, idx, frac):
        out = self.slope.take(idx, axis=1, mode="clip")
        out *= frac
        out += self.value.take(idx, axis=1, mode="clip")
        return out


def _kernel_sampler(kernel, resolution=4096):
    """Sampler for Z ~ c/a1; exact built-in sampler or inverse-CDF table."""
    if kernel.sampler is not None:
        return kernel.sampler
    R = kernel.truncation_radius
    z = np.linspace(-R, R, resolution + 1)
    density = np.maximum(np.asarray(kernel.evaluate(z), dtype=float), 0.0)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (density[1:] + density[:-1]))])
    cdf *= (z[1] - z[0])
    cdf /= cdf[-1]
    # make the table strictly increasing so np.interp inverts it cleanly
    keep = np.concatenate([[True], np.diff(cdf) > 0])
    z_keep, cdf_keep = z[keep], cdf[keep]

    def sampler(rng, size):
        return np.interp(rng.uniform(0.0, 1.0, size), cdf_keep, z_keep)

    return sampler


# ---------------------------------------------------------------------------
# stable increments


# pi/2 as a two-term sum: _PIO2_HI is the double nearest pi/2 and
# _PIO2_LO the remainder, so (_PIO2_HI - |u|) + _PIO2_LO keeps the distance
# of u to the pole to full relative accuracy
_PIO2_HI = 1.5707963267948966
_PIO2_LO = 6.123233995736766e-17


def _sin_double(v):
    """sin(2 v) = 2 tan(v) / (1 + tan(v)^2), computed in place of v."""
    np.tan(v, out=v)
    den = v * v
    den += 1.0
    v += v
    v /= den
    return v


def _stable_draws(alpha, size, rng, truncation=1e6):
    """CMS draws of the standard symmetric alpha-stable law S(alpha).

    Characteristic function exp(-|theta|^alpha).  With u uniform on
    (-pi/2, pi/2) and w standard exponential,

        X = sin(alpha u) / cos(u)^(1/alpha)
            * (cos((1 - alpha) u) / w)^((1 - alpha) / alpha),

    both powers taken by one exp (tan(u) at alpha = 1).  The sines and
    cosines come from half-angle tangents, sin v = 2 tau / (1 + tau^2) and
    cos v = (1 - tau^2) / (1 + tau^2) with tau = tan(v / 2): numpy's
    ``tan`` is vectorised and its ``sin``/``cos`` are not.  cos u is
    taken as sin r of the complement angle r = pi/2 - |u| (with pi/2 in two
    terms): (1 - tau^2) / (1 + tau^2) with tau = tan(u / 2) loses relative
    accuracy next to the pole, and over 10^6 draws moves them by 3e-11
    (alpha = 1.95) to 2e-10 (alpha = 0.3) from the libm formula.  With the
    complement the draws agree with it to 1e-14 relative, and with a
    50-digit evaluation to 1.2e-14 at u = +-(pi/2 - 10^-k), k = 1 .. 15.
    Draws u, then w: the generator ends in the same state as after
    ``uniform`` then ``exponential``.

    Returns (draws, number of draws clipped at +-truncation).
    """
    u = rng.uniform(-0.5 * np.pi, 0.5 * np.pi, size)
    if alpha == 1.0:
        x = np.tan(u)
    else:
        w = rng.standard_exponential(size)
        x = _sin_double(np.multiply(u, 0.5 * alpha))  # sin(alpha u)
        t = np.multiply(u, 0.5 * (1.0 - alpha))
        np.tan(t, out=t)
        t *= t
        den = t + 1.0
        den *= w
        np.subtract(1.0, t, out=t)
        t /= den  # cos((1 - alpha) u) / w
        np.log(t, out=t)
        t *= 1.0 - alpha
        r = np.abs(u, out=u)
        np.subtract(_PIO2_HI, r, out=r)
        r += _PIO2_LO
        r *= 0.5
        t -= np.log(_sin_double(r))  # cos(u) = sin(pi/2 - |u|)
        t /= alpha
        np.exp(t, out=t)
        x *= t
    clipped = int(np.count_nonzero(np.abs(x) > truncation))
    if clipped:
        np.clip(x, -truncation, truncation, out=x)
    return x, clipped


def sample_stable_increment(alpha, dt, rng):
    """One increment of a standard symmetric alpha-stable process over dt.

    Distributed as ``dt**(1/alpha) * S(alpha)`` where S(alpha) has
    characteristic function exp(-|theta|^alpha), via the
    Chambers--Mallows--Stuck construction (tangent branch at alpha = 1).

    Parameters
    ----------
    alpha : float
        Stability index in (0, 2).
    dt : float
        Time increment, finite and > 0.
    rng : numpy.random.Generator or RngStream
        Draw source.  Pass a Generator when sampling sequences; an
        RngStream is converted once, so repeated calls with the same
        stream repeat the same value.

    Returns
    -------
    float
    """
    if not 0.0 < alpha < 2.0:
        raise ValueError("alpha must lie in (0, 2), got %r" % (alpha,))
    if not (np.isfinite(dt) and dt > 0.0):
        raise ValueError("dt must be finite and positive, got %r" % (dt,))
    if isinstance(rng, RngStream):
        rng = rng.generator()
    draw, _ = _stable_draws(alpha, 1, rng)
    return float(dt ** (1.0 / alpha) * draw[0])


# ---------------------------------------------------------------------------
# ensembles


@dataclass(frozen=True)
class ParticleEnsemble:
    """Positions of an independent-path ensemble at sample times.

    Attributes
    ----------
    times : ndarray, shape (n_times,)
        Sample times, a subset of the step grid including 0 and T_end.
    positions : ndarray, shape (n_times, n_paths)
        Path positions at the sample times.
    path_streams : ndarray, shape (n_paths,)
        Stream index (chunk) whose generator produced each path.
    dt : float
        Actual step used (T_end / n_steps, never above the requested dt).
    T_end : float
    seed : int
    jump_counts : ndarray or None
        Accepted-jump count per path (jump-diffusion runs).
    jump_sizes : ndarray or None
        Flat array of accepted jump sizes when diagnostics were kept.
    truncation_count : int
        Stable increments clipped at the safety magnitude (signal runs).
    """

    times: np.ndarray
    positions: np.ndarray
    path_streams: np.ndarray
    dt: float
    T_end: float
    seed: int
    jump_counts: Optional[np.ndarray] = None
    jump_sizes: Optional[np.ndarray] = None
    truncation_count: int = 0

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        positions = np.asarray(self.positions, dtype=float)
        path_streams = np.asarray(self.path_streams)
        if positions.ndim != 2 or positions.shape[0] != times.size:
            raise ValueError("positions must be (n_times, n_paths)")
        if path_streams.shape != (positions.shape[1],):
            raise ValueError("path_streams must have one entry per path")
        if not np.isfinite(positions).all():
            raise RuntimeError("ensemble contains non-finite positions")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "path_streams", path_streams)

    @property
    def n_paths(self):
        return self.positions.shape[1]

    @property
    def n_times(self):
        return self.positions.shape[0]

    def summary_rows(self):
        """(time, mean, var, se) per sample time; se is the SE of the mean."""
        n = self.n_paths
        mean = self.positions.mean(axis=1)
        var = self.positions.var(axis=1, ddof=1)
        se = np.sqrt(var / n)
        return [(float(t), float(m), float(v), float(s))
                for t, m, v, s in zip(self.times, mean, var, se)]

    def write_summary_csv(self, path):
        lines = ["time,mean,var,se"]
        for row in self.summary_rows():
            lines.append(",".join("%.17g" % v for v in row))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    def write_paths_binary(self, path):
        """Dump raw paths.

        Layout: 8-byte magic ``NLHOMPE1``, then n_paths and n_times as
        little-endian uint64, then the sample times as little-endian
        float64, then positions row-major (time-major) little-endian
        float64.
        """
        with open(path, "wb") as fh:
            fh.write(_BINARY_MAGIC)
            np.array([self.n_paths, self.n_times], dtype="<u8").tofile(fh)
            self.times.astype("<f8").tofile(fh)
            np.ascontiguousarray(self.positions, dtype="<f8").tofile(fh)


def read_paths_binary(path):
    """Read a ``write_paths_binary`` dump -> (times, positions)."""
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != _BINARY_MAGIC:
            raise ValueError("not an ensemble dump (bad magic %r)" % (magic,))
        n_paths, n_times = np.fromfile(fh, dtype="<u8", count=2)
        times = np.fromfile(fh, dtype="<f8", count=int(n_times))
        flat = np.fromfile(fh, dtype="<f8", count=int(n_times * n_paths))
    if flat.size != n_times * n_paths:
        raise ValueError("truncated ensemble dump")
    return times, flat.reshape(int(n_times), int(n_paths))


def _check_count(name, value, least):
    """Refuse a count or seed that is not an integer >= least (numpy
    integers accepted, bool refused) with a ValueError naming it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError("%s must be an integer, got %r" % (name, value))
    if value < least:
        raise ValueError("%s must be at least %d, got %r"
                         % (name, least, value))


def _check_run(T_end, dt, x0, n_paths, n_save, chunk_size, seed):
    """Reject run inputs that would crash or silently mis-step a simulation.

    Counts and the seed are integers (numpy integers too, bool refused),
    with n_paths >= 1, n_save >= 2, chunk_size >= 1 and seed >= 0.
    """
    for name, value in (("T_end", T_end), ("dt", dt)):
        if not (np.isfinite(value) and value > 0.0):
            raise ValueError(
                "%s must be finite and positive, got %r" % (name, value)
            )
    if not np.isfinite(x0):
        raise ValueError("x0 must be finite, got %r" % (x0,))
    for name, value, least in (("n_paths", n_paths, 1), ("n_save", n_save, 2),
                               ("chunk_size", chunk_size, 1), ("seed", seed, 0)):
        _check_count(name, value, least)


def _step_grid(T_end, dt, n_save):
    n_steps = max(1, int(np.ceil(T_end / dt - 1e-9)))
    dt_eff = T_end / n_steps
    n_save = min(n_save, n_steps + 1)
    save_idx = np.unique(np.round(np.linspace(0, n_steps, n_save)).astype(int))
    return n_steps, dt_eff, save_idx


def _chunk_ranges(n_paths, chunk_size):
    starts = list(range(0, n_paths, chunk_size))
    return [(c, s, min(s + chunk_size, n_paths)) for c, s in enumerate(starts)]


def _one_ahead(pool, fn, tasks):
    """Yield fn(*task) for each task in order, computed on ``pool``.

    Task b + 1 is submitted before result b is handed over, so the pool's
    worker computes it while the caller consumes result b; task b + 2 is
    submitted only once the caller asks for result b + 1, so tasks b and
    b + 2 may fill the same buffer.  An exception raised by fn surfaces at
    the caller when its result is due.
    """
    pending = None
    for task in tasks:
        nxt = pool.submit(fn, *task)
        if pending is not None:
            yield pending.result()
        pending = nxt
    if pending is not None:
        yield pending.result()


# ---------------------------------------------------------------------------
# Part I jump-diffusion


def simulate_jump_diffusion_I(cset, eps, T_end, dt, n_paths, seed, x0=0.0,
                              n_save=9, dt_safety=0.1, keep_jump_sizes=False,
                              scheme="milstein", chunk_size=_CHUNK_SIZE):
    """Euler-type paths of the jump-diffusion dual to the heterogeneous
    operator.

    Per step of size dt: drift (1/eps) b(x/eps), diffusion sqrt(2 a(x/eps))
    dW, and thinned jumps — proposals arrive as a Poisson process of exact
    rate lambda_max a1 / eps**2 (lambda_max = the set's declared intensity
    bound alpha2), each accepted with probability lambda(x/eps)/lambda_max
    and, when accepted, displacing the path by eps * Z with Z ~ c/a1.
    Proposals are pooled across the chunk each step (one Poisson total,
    owners uniform over paths), which reproduces the per-path Poisson law
    exactly by superposition.  Acceptance and coefficients use the
    start-of-step state.

    Each chunk draws from its stream (seed, chunk) in blocks of
    ``_STEP_BLOCK`` steps (the last block may be shorter), in this order per
    block: the increments dW for every step and path, the Poisson proposal
    count of every step, then for all the block's proposals their owners,
    thinning uniforms and jump sizes.  A one-thread pool that lives only for
    the call draws the next block (and computes the Milstein factors
    dW**2 - 1) while the calling thread marches the current one; all
    state-dependent work (location, table reads, acceptance, the jump and
    Milstein updates, the save-step finite check) stays on the calling
    thread.  The result depends only on the arguments: repeated calls are
    bit-identical.  An exception on either thread reaches the caller, and
    the worker is joined before the call returns or raises.

    The weak error is O(dt), but with a fast-oscillating diffusion
    coefficient its constant scales like 1/eps**2 (the cell dynamics
    relaxes on the eps**2 clock), and the dominant term comes from the
    omitted Ito-Taylor correction (1/2) sigma sigma' ((dW)^2 - dt) =
    (a'(x/eps)/(2 eps)) ((dW)^2 - dt).  ``scheme="milstein"`` (default)
    includes that term; ``scheme="euler"`` drops it, for the plain scheme
    and for step-bias studies.

    Parameters
    ----------
    cset : CoefficientSetI
    eps : Epsilon or float
        Reciprocal-integer scale.
    T_end, dt : float
        Horizon and requested step; requires dt <= dt_safety * eps**2.
        The actual step is T_end/n_steps <= dt.
    n_paths, seed : int
        At least one path; the seed is a non-negative integer.
    x0 : float, optional
        Common initial position.
    n_save : int, optional
        Number of sample times (including 0 and T_end), at least 2; more
        than n_steps + 1 saves every step.
    keep_jump_sizes : bool, optional
        Record the flat array of accepted jump sizes (diagnostics).
    scheme : {"milstein", "euler"}, optional
        Whether the diffusion part carries the Milstein correction.
    chunk_size : int, optional
        Paths per random stream; part of the sampling design, so changing
        it changes the (still reproducible) draws.

    Returns
    -------
    ParticleEnsemble
    """
    eps_val = _eps_value(eps)
    _check_run(T_end, dt, x0, n_paths, n_save, chunk_size, seed)
    if dt > dt_safety * eps_val**2 * (1.0 + 1e-12):
        raise ValueError(
            "dt=%g too large for eps=%g: need dt <= %g (= dt_safety*eps^2)"
            % (dt, eps_val, dt_safety * eps_val**2)
        )
    n_steps, dt_eff, save_idx = _step_grid(T_end, dt, n_save)

    lam_tab = _Tables(_cell_samples(cset.lam))
    lam_max = float(cset.alpha2)
    lam_top = float(lam_tab.value.max())
    if lam_top > lam_max * (1.0 + 1e-9):
        raise ValueError(
            "intensity bound alpha2=%g below max lambda=%g; thinning needs "
            "lambda <= alpha2" % (lam_max, lam_top)
        )
    a1 = cset.kernel.a1
    sampler = _kernel_sampler(cset.kernel)
    proposal_rate = lam_max * a1 / eps_val**2
    inv_eps = 1.0 / eps_val

    positions = np.empty((save_idx.size, n_paths))
    jump_counts = np.zeros(n_paths, dtype=np.int64)
    sizes_out = [] if keep_jump_sizes else None

    # premultiplied per-step rows: noise amplitude, drift displacement and
    # the Milstein coefficient
    rows = [np.sqrt(2.0 * _cell_samples(cset.a)) * np.sqrt(dt_eff),
            _cell_samples(cset.b) * (inv_eps * dt_eff)]
    milstein = scheme == "milstein"
    if milstein:
        rows.append(_cell_samples(cset.a.derivative(1))
                    * (0.5 * inv_eps * dt_eff))
    elif scheme != "euler":
        raise ValueError("scheme must be 'milstein' or 'euler'")
    step_tab = _Tables(*rows)
    chunks = _chunk_ranges(n_paths, chunk_size)
    blocks = [(first, min(first + _STEP_BLOCK, n_steps + 1))
              for first in range(1, n_steps + 1, _STEP_BLOCK)]

    # two buffer sets, for the block being marched and the block being
    # drawn; allocated here so the worker's heap keeps no block arrays
    width = min(_STEP_BLOCK, n_steps) * min(chunk_size, n_paths)
    buffers = [np.empty((1 + milstein, width)) for _ in range(2)]

    def draw(g, m, n, buf):
        """Random inputs of n steps of m paths, in stream order: dW, the
        Poisson proposal counts (returned as cumulative offsets with a
        leading 0), owners, thinning thresholds u * lam_max and jump sizes
        eps * Z.  dW and the Milstein factors dW**2 - 1 fill ``buf``."""
        dW = g.standard_normal(out=buf[0, :n * m].reshape(n, m))
        factor = None
        if milstein:
            factor = np.multiply(dW, dW, out=buf[1, :n * m].reshape(n, m))
            factor -= 1.0
        ends = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(g.poisson(m * proposal_rate * dt_eff, n), out=ends[1:])
        total = int(ends[-1])
        owners = g.integers(0, m, total)
        thresholds = g.uniform(0.0, 1.0, total)
        thresholds *= lam_max
        sizes = eps_val * sampler(g, total)
        return dW, factor, ends.tolist(), owners, thresholds, sizes

    def tasks():
        k = 0
        for chunk, lo, hi in chunks:
            g = RngStream(seed, chunk).generator()
            for first, stop in blocks:
                yield g, hi - lo, stop - first, buffers[k % 2]
                k += 1

    with ThreadPoolExecutor(max_workers=1) as pool:
        drawn = _one_ahead(pool, draw, tasks())
        for _, lo, hi in chunks:
            x = np.full(hi - lo, float(x0))
            save_pos = 0
            if save_idx[0] == 0:
                positions[0, lo:hi] = x
                save_pos = 1
            counts_chunk = jump_counts[lo:hi]
            for first, _ in blocks:
                dW, factor, ends, owners, thresholds, z = next(drawn)
                hits = []
                for j, (a, b) in enumerate(zip(ends, ends[1:])):
                    idx, frac = _locate(x, inv_eps)
                    coef = step_tab.at(idx, frac)
                    step_x = coef[0]
                    step_x *= dW[j]
                    step_x += coef[1]
                    if b > a:
                        own = owners[a:b]
                        accept = (thresholds[a:b]
                                  < lam_tab.at(idx[own], frac[own])[0])
                        jumpers = own[accept]
                        sizes = z[a:b][accept]
                        np.add.at(step_x, jumpers, sizes)
                        hits.append(jumpers)
                        if keep_jump_sizes and sizes.size:
                            sizes_out.append(sizes)
                    x += step_x
                    if milstein:
                        mil = coef[2]
                        mil *= factor[j]
                        x += mil
                    step = first + j
                    if save_pos < save_idx.size and step == save_idx[save_pos]:
                        if not np.isfinite(x).all():
                            raise RuntimeError(
                                "non-finite particle state at step %d" % step
                            )
                        positions[save_pos, lo:hi] = x
                        save_pos += 1
                if hits:
                    np.add.at(counts_chunk, np.concatenate(hits), 1)

    path_streams = np.repeat(np.arange(len(chunks)),
                             [hi - lo for _, lo, hi in chunks])
    jump_sizes = None
    if keep_jump_sizes:
        jump_sizes = (np.concatenate(sizes_out) if sizes_out
                      else np.empty(0))
    return ParticleEnsemble(
        times=save_idx * dt_eff,
        positions=positions,
        path_streams=path_streams,
        dt=dt_eff,
        T_end=float(T_end),
        seed=int(seed),
        jump_counts=jump_counts,
        jump_sizes=jump_sizes,
    )


def _jackknife_variance_se(x, scale):
    """Delete-one jackknife SE of scale * Var(x) (ddof=1), in O(n)."""
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 3:
        raise ValueError("jackknife needs at least 3 paths")
    s1 = x.sum()
    s2 = (x * x).sum()
    mu_i = (s1 - x) / (n - 1)
    var_i = (s2 - x * x - (n - 1) * mu_i**2) / (n - 2)
    theta = scale * var_i
    return float(np.sqrt((n - 1) / n * ((theta - theta.mean()) ** 2).sum()))


def estimate_Q_monte_carlo(cset, eps, T_end, n_paths, seed, dt=None,
                           dt_safety=0.1, oracle_dt_safety=0.005,
                           scheme="milstein", chunk_size=_CHUNK_SIZE):
    """Monte-Carlo oracle for the effective diffusivity Q.

    The homogenized generator is Q d^2/dx^2, so the particle variance grows
    as 2 Q t; the estimate is Var(x_T)/(2 T_end) with a delete-one
    jackknife standard error.

    Parameters
    ----------
    cset : CoefficientSetI
    eps : Epsilon or float
    T_end : float
    n_paths, seed : int
        At least 3 paths, which the jackknife needs; the seed as in the
        jump-diffusion.
    dt : float, optional
        Step; defaults to oracle_dt_safety * eps**2, tighter than the
        pathwise default because the step bias of variance-type
        functionals scales with dt/eps**2 (the cell dynamics lives on the
        eps**2 clock) and the oracle is consumed through 3-SE brackets at
        the percent level.  Measured on the workhorse heterogeneous set at
        eps = 1/8 with 3e4 paths: the plain Euler scheme drifts
        +5.1%/+3.0%/+0.9% of Q at dt/eps**2 = 0.02/0.005/0.00125, while
        the Milstein correction leaves no drift visible above the 0.8%
        noise floor anywhere in that range.

    Returns
    -------
    (float, float)
        (Q_hat, jackknife standard error).
    """
    eps_val = _eps_value(eps)
    if dt is None:
        dt = oracle_dt_safety * eps_val**2
    # the jackknife needs three paths: refuse fewer before simulating
    _check_run(T_end, dt, 0.0, n_paths, 2, chunk_size, seed)
    if n_paths < 3:
        raise ValueError("n_paths must be at least 3 for the jackknife, "
                         "got %r" % (n_paths,))
    ens = simulate_jump_diffusion_I(
        cset, eps, T_end, dt, n_paths, seed, n_save=2,
        dt_safety=dt_safety, scheme=scheme, chunk_size=chunk_size,
    )
    x = ens.positions[-1]
    scale = 1.0 / (2.0 * float(T_end))
    q_hat = float(np.var(x, ddof=1) * scale)
    return q_hat, _jackknife_variance_se(x, scale)


# ---------------------------------------------------------------------------
# Part II signal


def simulate_signal_II(cset, eps, T_end, dt, n_paths, seed, x0=0.0, n_save=9,
                       dt_safety=0.1, drift_scaling="operator",
                       truncation=1e6, chunk_size=_CHUNK_SIZE):
    """Euler paths of the alpha-stable signal with fast coefficients.

    Per step: x <- x + s(eps) d(x/eps) dt + delta(x/eps) dL, with dL an
    exact symmetric alpha-stable increment over dt (clipped at
    ``truncation`` for float safety; the clip count is reported on the
    ensemble).

    The drift scale s(eps) follows ``drift_scaling``:

    * ``"operator"`` (default): s = eps**(1-alpha), the scale at which the
      drift joins the fractional part in the fast generator — the fast
      cell dynamics then match the invariant density m1 and the effective
      fractional coefficient, which is what the generator-level
      convergence statements use.
    * ``"literal"``: s = 1/eps, the displayed SDE scaling.  For alpha < 2
      this makes the fast drift dominate the fast jumps (order
      eps**(alpha-2) in cell time), so no nontrivial homogenized limit is
      reached; it is kept selectable for side-by-side comparison.

    Parameters
    ----------
    cset : CoefficientSetII
    eps : Epsilon or float
    T_end, dt : float
        Requires dt <= dt_safety * eps.
    n_paths, seed, x0, n_save, chunk_size : as in the jump-diffusion.

    Returns
    -------
    ParticleEnsemble
    """
    eps_val = _eps_value(eps)
    _check_run(T_end, dt, x0, n_paths, n_save, chunk_size, seed)
    if not truncation > 0.0:
        raise ValueError("truncation must be positive, got %r"
                         % (truncation,))
    if dt > dt_safety * eps_val * (1.0 + 1e-12):
        raise ValueError(
            "dt=%g too large for eps=%g: need dt <= %g (= dt_safety*eps)"
            % (dt, eps_val, dt_safety * eps_val)
        )
    alpha = float(cset.alpha)
    if drift_scaling == "operator":
        drift_scale = eps_val ** (1.0 - alpha)
    elif drift_scaling == "literal":
        drift_scale = 1.0 / eps_val
    else:
        raise ValueError("drift_scaling must be 'operator' or 'literal'")
    n_steps, dt_eff, save_idx = _step_grid(T_end, dt, n_save)
    jump_scale = dt_eff ** (1.0 / alpha)

    # premultiplied per-step rows: drift displacement and jump amplitude
    step_tab = _Tables(_cell_samples(cset.d) * (drift_scale * dt_eff),
                       _cell_samples(cset.delta) * jump_scale)
    inv_eps = 1.0 / eps_val

    positions = np.empty((save_idx.size, n_paths))
    n_clipped = 0

    for chunk, lo, hi in _chunk_ranges(n_paths, chunk_size):
        g = RngStream(seed, chunk).generator()
        m = hi - lo
        x = np.full(m, float(x0))
        save_pos = 0
        if save_idx[0] == 0:
            positions[0, lo:hi] = x
            save_pos = 1
        for step in range(1, n_steps + 1):
            idx, frac = _locate(x, inv_eps)
            draws, clipped = _stable_draws(alpha, m, g, truncation)
            n_clipped += clipped
            drift, jump = step_tab.at(idx, frac)
            draws *= jump
            x += drift
            x += draws
            if save_pos < save_idx.size and step == save_idx[save_pos]:
                if not np.isfinite(x).all():
                    raise RuntimeError(
                        "non-finite particle state at step %d" % step
                    )
                positions[save_pos, lo:hi] = x
                save_pos += 1

    path_streams = np.repeat(
        np.arange(len(_chunk_ranges(n_paths, chunk_size))),
        [hi - lo for _, lo, hi in _chunk_ranges(n_paths, chunk_size)],
    )
    return ParticleEnsemble(
        times=save_idx * dt_eff,
        positions=positions,
        path_streams=path_streams,
        dt=dt_eff,
        T_end=float(T_end),
        seed=int(seed),
        truncation_count=n_clipped,
    )
