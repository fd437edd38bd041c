"""Particle-level simulation of the fast-coefficient dynamics.

Three ingredients live here:

* a Chambers--Mallows--Stuck sampler for symmetric alpha-stable increments,
  which takes its sines and cosines from half-angle tangents (three
  vectorised ``tan`` calls instead of three scalar-libm ``sin``/``cos``),
* the jump-diffusion whose generator is the heterogeneous integrable-jump
  operator (Euler drift, Milstein diffusion, exactly thinned jumps whose
  sizes come from the kernel's own exact sampler; a kernel without one is
  refused), together with the Monte-Carlo variance oracle for the effective
  diffusivity Q,
* the alpha-stable signal of the stable family (Euler drift plus exact
  stable increments).

Each returns a :class:`ParticleEnsemble` of positions at the sample times,
held in memory.  Both simulations check their inputs in :func:`_check_run`,
with the fixed step bounds dt <= 0.1 eps**2 (jump-diffusion) and
dt <= 0.1 eps (signal), and march in :func:`_march`, which runs each chunk
through the simulation's step generator and checks and stores the positions
at the save steps.  The Q oracle's default step is 0.005 eps**2.

Paths are grouped into chunks of ``_CHUNK_SIZE`` paths, read at each call;
chunk ``c`` of a run draws every random number from the dedicated stream
``(seed, c)`` (:func:`_rng`), so ensembles are bit-identical for identical
configurations regardless of how chunks are scheduled, and workers
splitting the chunk range never share a stream.  The chunk size is part of
the sampling design: another gives other, still reproducible, draws.

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
from .torus import _check_count, _check_positive, _finite_real

__all__ = [
    "ParticleEnsemble",
    "simulate_jump_diffusion_I",
    "estimate_Q_monte_carlo",
    "simulate_signal_II",
]

_TABLE_RESOLUTION = 8192
# stable increments beyond this magnitude are clipped for float safety
_TRUNCATION = 1e6
_CHUNK_SIZE = 4096
_STEP_BLOCK = 128
# largest admissible dt per eps**2 (jump-diffusion) or per eps (signal)
_DT_SAFETY = 0.1
# default dt per eps**2 of the Q oracle (see estimate_Q_monte_carlo)
_ORACLE_DT_SAFETY = 0.005


def _rng(seed, stream):
    """Fresh numpy Generator of the stream (seed, stream): ``SeedSequence``
    entropy ``seed``, spawn key ``(stream, 0)``.  Distinct pairs give
    independent generators, the same pair bit-identical draws."""
    seq = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream), 0))
    return np.random.default_rng(seq)


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


def _stable_draws(alpha, size, rng):
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

    Returns (draws, number of draws clipped at +-_TRUNCATION).
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
    clipped = int(np.count_nonzero(np.abs(x) > _TRUNCATION))
    if clipped:
        np.clip(x, -_TRUNCATION, _TRUNCATION, out=x)
    return x, clipped


# ---------------------------------------------------------------------------
# ensembles


@dataclass(frozen=True)
class ParticleEnsemble:
    """Positions of an independent-path ensemble at sample times.

    Path j belongs to chunk c = j // ``_CHUNK_SIZE`` of its run and draws
    every random number from that chunk's stream (seed, c).  Only the two
    simulations build an ensemble, and their march has checked every saved
    position finite.

    Attributes
    ----------
    times : ndarray, shape (n_times,)
        Sample times, a subset of the step grid including 0 and T_end.
    positions : ndarray, shape (n_times, n_paths)
        Path positions at the sample times.
    dt : float
        Actual step used (T_end / n_steps, never above the requested dt).
    T_end : float
    jump_counts : ndarray or None
        Accepted-jump count per path (jump-diffusion runs).
    truncation_count : int
        Stable increments clipped at the safety magnitude (signal runs).
    """

    times: np.ndarray
    positions: np.ndarray
    dt: float
    T_end: float
    jump_counts: Optional[np.ndarray] = None
    truncation_count: int = 0

    @property
    def n_paths(self):
        return self.positions.shape[1]


def _check_run(eps, T_end, dt, x0, n_paths, n_save, seed, power):
    """Reject run inputs that would crash or silently mis-step a simulation,
    and lay out the step grid: (eps, n_steps, dt_eff, save_idx).

    Counts and the seed are integers (numpy integers too, bool refused),
    with n_paths >= 1, n_save >= 2 and seed >= 0; the requested dt is at
    most _DT_SAFETY * eps**power (power 2 for the jump-diffusion, 1 for the
    signal).
    """
    eps = _eps_value(eps)
    _check_positive("T_end", T_end)
    _check_positive("dt", dt)
    if not _finite_real(x0):
        raise ValueError("x0 must be finite and real, got %r" % (x0,))
    for name, value, least in (("n_paths", n_paths, 1), ("n_save", n_save, 2),
                               ("seed", seed, 0)):
        _check_count(name, value, least)
    if dt > _DT_SAFETY * eps**power * (1.0 + 1e-12):
        raise ValueError("dt=%g too large for eps=%g: need dt <= %g (= %g %s)"
                         % (dt, eps, _DT_SAFETY * eps**power, _DT_SAFETY,
                            "eps^2" if power == 2 else "eps"))
    return (eps,) + _step_grid(T_end, dt, n_save)


def _step_grid(T_end, dt, n_save):
    n_steps = max(1, int(np.ceil(T_end / dt - 1e-9)))
    dt_eff = T_end / n_steps
    n_save = min(n_save, n_steps + 1)
    save_idx = np.unique(np.round(np.linspace(0, n_steps, n_save)).astype(int))
    return n_steps, dt_eff, save_idx


def _chunk_ranges(n_paths):
    starts = list(range(0, n_paths, _CHUNK_SIZE))
    return [(c, s, min(s + _CHUNK_SIZE, n_paths)) for c, s in enumerate(starts)]


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


def _march(x0, n_paths, save_idx, steps):
    """Positions at the save steps, shape (save_idx.size, n_paths), of a
    run marched chunk by chunk.

    Each chunk's positions x start at x0, and the simulation's generator
    ``steps(chunk, lo, hi, x)`` advances them in place, yielding each
    step's number; at a save step they are checked finite and stored.
    """
    positions = np.empty((save_idx.size, n_paths))
    for chunk, lo, hi in _chunk_ranges(n_paths):
        x = np.full(hi - lo, float(x0))
        positions[0, lo:hi] = x  # save_idx[0] is step 0
        save_pos = 1
        for step in steps(chunk, lo, hi, x):
            if save_pos < save_idx.size and step == save_idx[save_pos]:
                if not np.isfinite(x).all():
                    raise RuntimeError(
                        "non-finite particle state at step %d" % step)
                positions[save_pos, lo:hi] = x
                save_pos += 1
    return positions


# ---------------------------------------------------------------------------
# Part I jump-diffusion


def simulate_jump_diffusion_I(cset, eps, T_end, dt, n_paths, seed, x0=0.0,
                              n_save=9):
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

    Each chunk of ``_CHUNK_SIZE`` paths draws from its stream (seed, chunk)
    in blocks of ``_STEP_BLOCK`` steps (the last block may be shorter), in
    this order per block: the increments dW for every step and path, the
    Poisson proposal count of every step, then for all the block's
    proposals their owners, thinning uniforms and jump sizes.  A one-thread
    pool that lives only for the call draws the next block (and computes
    the Milstein factors dW**2 - 1), across the chunk boundaries, while the
    calling thread marches the current one in the shared :func:`_march`;
    all state-dependent work (location, table reads, acceptance, the jump
    and Milstein updates, the save-step finite check) stays on the calling
    thread.  The result depends only on the arguments:
    repeated calls are bit-identical.  An exception on either thread
    reaches the caller, and the worker is joined before the call returns or
    raises.

    The diffusion step is Milstein's.  The weak error is O(dt), but with a
    fast-oscillating diffusion coefficient its constant scales like
    1/eps**2 (the cell dynamics relaxes on the eps**2 clock), and the
    dominant term of the plain Euler step is the Ito-Taylor correction it
    omits, (1/2) sigma sigma' ((dW)^2 - dt) = (a'(x/eps)/(2 eps))
    ((dW)^2 - dt).  Measured on the workhorse heterogeneous set at
    eps = 1/8 with 3e4 paths, the Euler step drifts the variance estimate
    of Q by +5.1%/+3.0%/+0.9% at dt/eps**2 = 0.02/0.005/0.00125; so the
    correction is always taken.  The Milstein step still drifts at the
    larger steps: on varcoef-1(512), eps = 1/8, T_end = 0.5, with 2e5
    paths at each of the seeds 101-103, the estimate averages 0.9011 at
    dt/eps**2 = 0.005 and 0.8992 at 0.01 (each +-0.0016; 0.9038 +- 0.0029
    at 0.00125, seed 101 alone), but 0.9121 at 0.02 and 0.9463 at 0.04,
    drifts of +1.2% and +5.0% (+-0.3%) against 0.005.

    Parameters
    ----------
    cset : CoefficientSetI
        Its kernel must bring a ``sampler`` (every built-in kernel does).
    eps : float
        Reciprocal-integer scale.
    T_end, dt : float
        Horizon and requested step; requires dt <= _DT_SAFETY * eps**2
        (0.1 eps**2).  The actual step is T_end/n_steps <= dt.
    n_paths, seed : int
        At least one path; the seed is a non-negative integer.
    x0 : float, optional
        Common initial position.
    n_save : int, optional
        Number of sample times (including 0 and T_end), at least 2; more
        than n_steps + 1 saves every step.

    Returns
    -------
    ParticleEnsemble
    """
    eps_val, n_steps, dt_eff, save_idx = _check_run(
        eps, T_end, dt, x0, n_paths, n_save, seed, 2)
    sampler = cset.kernel.sampler
    if sampler is None:
        raise ValueError("kernel %r has no sampler of Z ~ c/a1"
                         % cset.kernel.name)

    lam_tab = _Tables(_cell_samples(cset.lam))
    lam_max = float(cset.alpha2)
    lam_top = float(lam_tab.value.max())
    if lam_top > lam_max * (1.0 + 1e-9):
        raise ValueError(
            "intensity bound alpha2=%g below max lambda=%g; thinning needs "
            "lambda <= alpha2" % (lam_max, lam_top)
        )
    proposal_rate = lam_max * cset.kernel.a1 / eps_val**2
    inv_eps = 1.0 / eps_val

    jump_counts = np.zeros(n_paths, dtype=np.int64)

    # premultiplied per-step rows: noise amplitude, drift displacement and
    # the Milstein coefficient
    step_tab = _Tables(np.sqrt(2.0 * _cell_samples(cset.a)) * np.sqrt(dt_eff),
                       _cell_samples(cset.b) * (inv_eps * dt_eff),
                       _cell_samples(cset.a.derivative(1))
                       * (0.5 * inv_eps * dt_eff))
    blocks = [(first, min(first + _STEP_BLOCK, n_steps + 1))
              for first in range(1, n_steps + 1, _STEP_BLOCK)]

    # two buffer sets, for the block being marched and the block being
    # drawn; allocated here so the worker's heap keeps no block arrays
    width = min(_STEP_BLOCK, n_steps) * min(_CHUNK_SIZE, n_paths)
    buffers = [np.empty((2, width)) for _ in range(2)]

    def draw(g, m, n, buf):
        """Random inputs of n steps of m paths, in stream order: dW, the
        Poisson proposal counts (returned as cumulative offsets with a
        leading 0), owners, thinning thresholds u * lam_max and jump sizes
        eps * Z.  dW and the Milstein factors dW**2 - 1 fill ``buf``."""
        dW = g.standard_normal(out=buf[0, :n * m].reshape(n, m))
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
        for chunk, lo, hi in _chunk_ranges(n_paths):
            g = _rng(seed, chunk)
            for first, stop in blocks:
                yield g, hi - lo, stop - first, buffers[k % 2]
                k += 1

    def steps(chunk, lo, hi, x):
        # the chunk's blocks, in turn, from the one stream of drawn blocks
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
                    np.add.at(step_x, jumpers, z[a:b][accept])
                    hits.append(jumpers)
                x += step_x
                mil = coef[2]
                mil *= factor[j]
                x += mil
                yield first + j
            if hits:
                np.add.at(jump_counts[lo:hi], np.concatenate(hits), 1)

    with ThreadPoolExecutor(max_workers=1) as pool:
        drawn = _one_ahead(pool, draw, tasks())
        positions = _march(x0, n_paths, save_idx, steps)
    return ParticleEnsemble(times=save_idx * dt_eff, positions=positions,
                            dt=dt_eff, T_end=float(T_end),
                            jump_counts=jump_counts)


def _jackknife_variance_se(x, scale):
    """Delete-one jackknife SE of scale * Var(x) (ddof=1), in O(n)."""
    n = x.size
    s1 = x.sum()
    s2 = (x * x).sum()
    mu_i = (s1 - x) / (n - 1)
    var_i = (s2 - x * x - (n - 1) * mu_i**2) / (n - 2)
    theta = scale * var_i
    return float(np.sqrt((n - 1) / n * ((theta - theta.mean()) ** 2).sum()))


def estimate_Q_monte_carlo(cset, eps, T_end, n_paths, seed, dt=None):
    """Monte-Carlo oracle for the effective diffusivity Q.

    The homogenized generator is Q d^2/dx^2, so the particle variance grows
    as 2 Q t; the estimate is Var(x_T)/(2 T_end) with a delete-one
    jackknife standard error.

    Parameters
    ----------
    cset : CoefficientSetI
    eps : float
    T_end : float
    n_paths, seed : int
        At least 3 paths, which the jackknife needs; the seed, and the
        chunks of ``_CHUNK_SIZE`` paths, as in the jump-diffusion.
    dt : float, optional
        Step; defaults to _ORACLE_DT_SAFETY * eps**2 (0.005 eps**2), tighter
        than the pathwise bound because the step bias of variance-type
        functionals scales with dt/eps**2 (the cell dynamics lives on the
        eps**2 clock) and the oracle is consumed through 3-SE brackets at
        the percent level (the jump-diffusion's docstring gives the
        measured Euler drift that the Milstein step removes).

    Returns
    -------
    (float, float)
        (Q_hat, jackknife standard error).
    """
    # the jackknife needs three paths: refuse fewer before simulating
    _check_count("n_paths", n_paths, 3)
    if dt is None:
        dt = _ORACLE_DT_SAFETY * _eps_value(eps)**2
    ens = simulate_jump_diffusion_I(cset, eps, T_end, dt, n_paths, seed,
                                    n_save=2)
    x = ens.positions[-1]
    scale = 1.0 / (2.0 * float(T_end))
    q_hat = float(np.var(x, ddof=1) * scale)
    return q_hat, _jackknife_variance_se(x, scale)


# ---------------------------------------------------------------------------
# Part II signal


def simulate_signal_II(cset, eps, T_end, dt, n_paths, seed, x0=0.0, n_save=9):
    """Euler paths of the alpha-stable signal with fast coefficients.

    Per step: x <- x + eps**(1-alpha) d(x/eps) dt + delta(x/eps) dL, with
    dL an exact symmetric alpha-stable increment over dt (clipped at
    ``_TRUNCATION`` for float safety; the clip count is reported on the
    ensemble).  Each chunk of ``_CHUNK_SIZE`` paths draws its increments,
    step by step, from its stream (seed, chunk), in the step generator
    that the shared :func:`_march` runs.

    The drift scale eps**(1-alpha) is the one at which the drift joins the
    fractional part in the fast generator, so the fast cell dynamics match
    the invariant density m1 and the effective fractional coefficient that
    the generator-level convergence statements use.  The displayed SDE's
    literal 1/eps scale has no nontrivial limit for alpha < 2: the fast
    drift would dominate the fast jumps by eps**(alpha-2) in cell time.

    Parameters
    ----------
    cset : CoefficientSetII
    eps : float
    T_end, dt : float
        Requires dt <= _DT_SAFETY * eps (0.1 eps).
    n_paths, seed, x0, n_save : as in the jump-diffusion.

    Returns
    -------
    ParticleEnsemble
    """
    eps_val, n_steps, dt_eff, save_idx = _check_run(
        eps, T_end, dt, x0, n_paths, n_save, seed, 1)
    alpha = float(cset.alpha)
    drift_scale = eps_val ** (1.0 - alpha)
    jump_scale = dt_eff ** (1.0 / alpha)

    # premultiplied per-step rows: drift displacement and jump amplitude
    step_tab = _Tables(_cell_samples(cset.d) * (drift_scale * dt_eff),
                       _cell_samples(cset.delta) * jump_scale)
    inv_eps = 1.0 / eps_val
    n_clipped = 0

    def steps(chunk, lo, hi, x):
        nonlocal n_clipped
        g = _rng(seed, chunk)
        for step in range(1, n_steps + 1):
            idx, frac = _locate(x, inv_eps)
            draws, clipped = _stable_draws(alpha, hi - lo, g)
            n_clipped += clipped
            drift, jump = step_tab.at(idx, frac)
            draws *= jump
            x += drift
            x += draws
            yield step

    positions = _march(x0, n_paths, save_idx, steps)
    return ParticleEnsemble(times=save_idx * dt_eff, positions=positions,
                            dt=dt_eff, T_end=float(T_end),
                            truncation_count=n_clipped)
