"""Empirical mode decomposition of post-fault voltage channels.

Each channel splits into intrinsic mode functions (oscillatory
components whose extrema and zero-crossing counts differ by at most
one) plus a residual trend that carries the slow recovery.  The channels
are decomposed jointly (multivariate EMD): envelopes are taken at the
extrema of shared direction projections so that IMF level i refers to
comparable time scales on every channel.  One sifting loop serves any
channel count; a single channel has the one direction 1, where the pass
is plain EMD.

Sifting follows the classic recipe: cubic-spline envelopes through
mirrored extrema, mean-envelope subtraction, and a Cauchy-style
stop: SD below ``SD_THRESHOLD`` with every channel an IMF (:func:`is_imf`),
or ``MAX_SIFTS`` passes.  It also stops once every projection of the
iterate has fewer than 3 extrema, and decomposition stops after
``MAX_IMFS`` IMFs or once the remainder has reached that state.

Envelopes are not-a-knot interpolating splines of degree
``min(3, n_knots - 1)``, fitted by calling the kernels behind scipy's
public interpolating-spline constructor directly (the collocation band
from ``scipy.interpolate._dierckx``, the banded LAPACK solve ``dgbsv``
and the B-spline evaluator), which skips that constructor's per-call
validation and array-API overhead.  A sifting pass fits its envelopes
in one batch: one extrema scan over every direction projection, one
vectorised pass for every envelope's mirrored knots, and one banded
solve for all envelopes, linear, quadratic and cubic, whose collocation
bands sit side by side in a block-diagonal band matrix.  Every envelope
is still bit for bit the one the public constructor gives (the tests
use it, and a one-direction-at-a-time loop, as the oracle).  The kernels
are private scipy names, verified on scipy 1.17.1, the floor this
package requires.

At PMU sizes (a few channels, a few hundred samples) a pass costs more
in per-call NumPy overhead than in arithmetic, so the glue is kept
lean without changing a bit of output: each pair of envelopes is
averaged in place in the freshly evaluated upper envelope (the same
IEEE operations as ``0.5 * (upper + lower)``), the direction set is
built once per dimension and kept read-only, the mode
check counts extrema and zero crossings per channel without building
extrema positions, stopping at the first channel that fails, and the
sifting loop calls array methods (``a.sum()``, ``a.cumsum()``,
``a.argsort()``) rather than NumPy's module-level wrappers, which run
the same reductions behind a few microseconds of dispatch.

A wide pass, of at least ``HELPER_MIN_SIZE`` samples x channels with 2
or more used directions, shares its fits with one helper process: the
envelopes of the later half of its used directions go to the helper,
which runs the same :func:`_envelopes` on the same knots and writes each
pair's 0.5 * (upper + lower) into an anonymous shared mapping while the
parent fits its own half.  The parent then adds the helper's means
after its own, in direction order, so the mean envelope, every IMF and
every document are the serial ones bit for bit.  The helper is forked
on the first such pass, only where ``os.sched_getaffinity`` reports 2
or more CPUs and the process runs one Python thread.  It points its
standard streams at the null device, closes every other file it
inherits but its two pipes, ends with ``os._exit`` once its
command pipe ends, so it dies with its parent, and is restarted when a
pass outgrows the mapping; a forked child drops its parent's helper
and forks its own.  When the helper fails or dies, or the parent's half
fails, the parent drops it and runs the whole pass serially, so it
raises exactly what the serial pass raises.  Smaller passes,
one-direction records, platforms without ``sched_getaffinity`` and
processes with other threads take the serial loop.

The two compiled modules, ``scipy.interpolate._dierckx`` and
``scipy.linalg._flapack``, are loaded from their files in the scipy
installation by :func:`_scipy_extension`, without running the
``__init__`` of ``scipy.interpolate`` or ``scipy.linalg``: those pull in
``scipy.optimize``, ``scipy.special``, the array-API layer and
``numpy.f2py``, which sifting never calls and which made up about three
quarters of a fresh process's start-up.  The scipy package itself is
located with ``importlib.util.find_spec`` and never imported, since its
``__init__`` loads test and version helpers (10-17 ms of a cold start);
the installed version is read from the package metadata only for the
not-found message.  A module already imported (say, by the caller
importing ``scipy.interpolate`` first) is used as it is.
"""

from __future__ import annotations

import gc
import math
import os
import re
import struct
import sys
import threading
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import lru_cache
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import find_spec, module_from_spec
from types import ModuleType

import numpy as np
from numpy.linalg import LinAlgError

from .errors import ValidationError
from .ingest import VoltageTrajectory


def _scipy_extension(name: str) -> ModuleType:
    """The compiled scipy module ``name``, without its package's ``__init__``.

    Returns ``sys.modules[name]`` when it is already imported; otherwise
    finds the extension file under the directories of the scipy package,
    located without importing it, and executes it.  Raises
    :class:`ImportError` naming scipy when it is not installed, and one
    naming the module and the scipy version when no such file exists.
    """
    module = sys.modules.get(name)
    if module is not None:
        return module
    scipy_spec = find_spec("scipy")
    if scipy_spec is None:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    subdir = name.split(".")[1:-1]
    for root in scipy_spec.submodule_search_locations:
        finder = FileFinder(
            os.path.join(root, *subdir), (ExtensionFileLoader, EXTENSION_SUFFIXES)
        )
        spec = finder.find_spec(name)
        if spec is not None:
            module = module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    from importlib.metadata import version  # only on this path: its import is slow

    raise ImportError(f"{name} not found in scipy {version('scipy')}", name=name)


_dierckx = _scipy_extension("scipy.interpolate._dierckx")
dgbsv = _scipy_extension("scipy.linalg._flapack").dgbsv

SD_THRESHOLD = 0.2  # sifting stops below this normalised envelope energy
MAX_SIFTS = 10  # sifting passes per IMF
MAX_IMFS = 12
N_DIRECTIONS = 8  # projection directions of a multi-channel pass
_DIRECTION_SEED = 988_221_735  # fixed: decomposition must be deterministic
_AMPLITUDE_FLOOR = 1e-12


@dataclass(frozen=True)
class DecompositionResult:
    """Per-channel IMF stacks plus residual trends.

    ``imfs[m]`` is the ordered tuple of IMFs for channel ``m`` (fastest
    first); ``residuals[m]`` is what remains after removing them, so
    ``sum(imfs[m]) + residuals[m]`` reconstructs the input channel.
    ``freqs[m]`` and ``rms[m]`` line up with ``imfs[m]``: each IMF's
    zero-crossing frequency in Hz and its RMS, computed once by
    :func:`decompose` and read by everything downstream.
    """

    channel_ids: tuple[str, ...]
    imfs: tuple[tuple[np.ndarray, ...], ...]
    residuals: tuple[np.ndarray, ...]
    dt: float
    freqs: tuple[tuple[float, ...], ...]
    rms: tuple[tuple[float, ...], ...]

    @property
    def n_channels(self) -> int:
        return len(self.channel_ids)

    def n_imfs(self, channel: int) -> int:
        return len(self.imfs[channel])

    def reconstruct(self, channel: int) -> np.ndarray:
        out = self.residuals[channel].copy()
        for imf in self.imfs[channel]:
            out += imf
        return out


def _extrema_scan(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Interior extrema of every row of a 2-D array, from one scan.

    Returns flat ``(pos, row, is_max)`` arrays ordered by row, then by
    position.  The rows are scanned as one flat sequence of sample
    differences, and two neighbouring non-zero differences form an
    extremum only when they belong to the same row, so each row gets
    exactly what a scan of that row alone gives: plateaus collapse to
    their midpoints, and a NaN sample is never an extremum (its sign is
    NaN, neither a minimum nor a maximum).
    """
    seg_len = max(rows.shape[1] - 1, 1)
    dx = (rows[:, 1:] - rows[:, :-1]).ravel()
    nz = (dx != 0).nonzero()[0]
    s = np.sign(dx[nz])
    seg = nz // seg_len
    change = ((s[:-1] != s[1:]) & (seg[:-1] == seg[1:])).nonzero()[0]
    kinds = s[change]
    change = change[~np.isnan(kinds)]
    row = seg[change]
    pos = (nz[change] + 1 + nz[change + 1]) // 2 - row * seg_len
    return pos, row, s[change] > 0


def count_extrema(x: np.ndarray) -> int:
    """Sign changes of the non-zero sample differences whose first sign is
    not NaN: the extrema :func:`_extrema_scan` finds, without positions."""
    x = np.asarray(x, dtype=float)
    d = np.sign(x[1:] - x[:-1])
    d = d[d != 0]
    first = d[:-1]
    return int(np.count_nonzero((first != d[1:]) & (first == first)))


def count_zero_crossings(x: np.ndarray) -> int:
    """Sign changes between consecutive non-zero samples (zeros are skipped)."""
    s = np.sign(np.asarray(x, dtype=float))
    s = s[s != 0]
    return int(np.count_nonzero(s[:-1] != s[1:]))


def is_imf(x: np.ndarray) -> bool:
    """Mode condition: |#extrema - #zero-crossings| <= 1."""
    return abs(count_extrema(x) - count_zero_crossings(x)) <= 1


def zero_crossing_frequency(x: np.ndarray, dt: float) -> float:
    """Frequency estimate in Hz: zero-crossings / (2 * span)."""
    span = (len(x) - 1) * dt
    if span <= 0:
        raise ValidationError("signal too short for a frequency estimate")
    return count_zero_crossings(x) / (2.0 * span)


def _mirrored_knots(
    idx: np.ndarray, lens: np.ndarray, rows: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Knots of several envelopes, built in one vectorised pass.

    ``idx`` holds every envelope's extrema, one envelope after the
    other: ``lens[e] >= 1`` of them for envelope ``e``, ascending.  Each
    envelope gets its extrema plus up to two reflected about each end
    (the first two about 0, the last two about n-1).  Returns the knot
    positions, ascending within each envelope, their values
    ``rows[...]`` (1-D, one value per knot, or 2-D, one row per knot:
    a multivariate envelope) and every envelope's knot count.  An
    extremum at 0 or n-1 reflects onto itself; the stable sort keeps
    the extremum first and the duplicate is dropped, so it is not
    reflected.
    """
    last = n - 1
    ends = lens.cumsum()
    starts = ends - lens
    two = lens > 1
    # the extrema each mirror comes from: first, second, last, second-last
    src = np.concatenate((starts, starts[two] + 1, ends - 1, ends[two] - 2))
    n_head = len(src) // 2
    mirrored = idx[src]
    samples = np.concatenate((idx, mirrored))
    np.negative(mirrored[:n_head], out=mirrored[:n_head])
    np.subtract(2 * last, mirrored[n_head:], out=mirrored[n_head:])
    # one sort key per candidate: envelope id x 4n + position, shifted
    # to be non-negative (positions lie in [-last, 2 last]); candidates
    # of one envelope keep the order extrema, then mirrors as listed
    span = 4 * n
    env = np.arange(len(lens)).repeat(lens)
    key = np.concatenate((env, env[src])) * span
    key += np.concatenate((idx, mirrored))
    key += n
    order = key.argsort(kind="stable")
    key = key[order]
    keep = np.concatenate(([True], key[1:] > key[:-1]))
    key = key[keep]
    env = key // span
    knots = (key - env * span - n).astype(float)
    counts = np.bincount(env, minlength=len(lens))
    return knots, rows[samples[order[keep]]], counts


def _envelopes(
    idx: np.ndarray, lens: np.ndarray, rows: np.ndarray, n: int
) -> Iterator[np.ndarray]:
    """Splines through ``rows`` at every envelope's mirrored extrema.

    Takes the extrema as :func:`_mirrored_knots` does, at least one per
    envelope on ``n >= 2`` samples, so every envelope has at least 2
    knots, and yields one envelope per entry of ``lens``, in order, on
    the sample grid 0..n-1.  An envelope of m knots is a not-a-knot
    spline of degree k = min(3, m - 1).  Every envelope's collocation
    band goes into its own column block of one band matrix with three
    sub- and superdiagonals, and one ``dgbsv`` solves the block-diagonal
    system, with all the knot values as the right-hand side.  Rows
    outside a block are exact zeros there, so pivoting and elimination
    give each block what its own solve gives, and each envelope is bit
    for bit the public constructor's.  The envelopes are evaluated one
    at a time as the caller asks for them.

    Knots are strictly increasing by construction.  A trajectory holds
    only finite voltages (ingest rejects the rest) and a NaN sample is
    never an extremum, but an infinite one can be when raw arrays are
    sifted, so it is rejected with the error scipy raises.
    """
    x, vals, m = _mirrored_knots(idx, lens, rows, n)
    if not np.isfinite(vals).all():
        raise ValueError("Array must not contain infs or nans.")
    k = np.minimum(m - 1, 3)
    x_end = m.cumsum()
    x_start = x_end - m
    # every not-a-knot vector from one repeat: each end knot k + 1
    # times, its neighbour dropped when k > 1
    reps = np.ones(len(x), dtype=np.intp)
    reps[x_start] = reps[x_end - 1] = k + 1
    curved = k > 1
    reps[x_start[curved] + 1] = reps[x_end[curved] - 2] = 0
    t = x.repeat(reps)
    t_end = (m + k + 1).cumsum()
    # (degree, first and end column, first and end knot) of each envelope
    blocks = list(
        zip(
            k.tolist(),
            x_start.tolist(),
            x_end.tolist(),
            (t_end - m - k - 1).tolist(),
            t_end.tolist(),
        )
    )
    ab = np.zeros((10, len(x)), order="F")
    columns = ab.T  # row j is the band's column j; row 6 its diagonal
    for deg, lo, hi, t_lo, t_hi in blocks:
        if deg == 1:
            # scipy takes a linear spline's values as its coefficients;
            # a collocated diagonal could round to 1 - 1 ulp
            columns[lo:hi, 6] = 1.0
        else:  # the offset moves a quadratic's diagonal onto row 6
            _dierckx._coloc(x[lo:hi], t[t_lo:t_hi], deg, columns[lo:hi], 6 - 2 * deg)
    rhs = vals.reshape(len(x), -1)
    _, _, c, info = dgbsv(3, 3, ab, rhs, overwrite_ab=True, overwrite_b=True)
    del ab, columns, rhs  # not held through the copy below or the evaluations
    if info > 0:
        raise LinAlgError("Colocation matrix is singular.")
    c = np.ascontiguousarray(c)
    grid = np.arange(n, dtype=float)
    flat = rows.ndim == 1  # the evaluator returns one column per value
    for deg, lo, hi, t_lo, t_hi in blocks:
        env = _dierckx.evaluate_spline(t[t_lo:t_hi], c[lo:hi], deg, grid, 0, True)
        yield env.reshape(n) if flat else env


@lru_cache(maxsize=16)
def _direction_vectors(n_dim: int) -> np.ndarray:
    """``N_DIRECTIONS`` deterministic quasi-uniform unit vectors for
    envelope projections.

    In one dimension ±1 give the same envelope mean, so there is one
    direction, and a pass is plain EMD's.  Built once per dimension and
    read-only.
    """
    if n_dim == 1:
        vecs = np.ones((1, 1))
    elif n_dim == 2:
        angles = np.pi * np.arange(N_DIRECTIONS) / N_DIRECTIONS
        vecs = np.column_stack([np.cos(angles), np.sin(angles)])
    else:
        rng = np.random.Generator(np.random.Philox(_DIRECTION_SEED))
        vecs = rng.normal(size=(N_DIRECTIONS, n_dim))
        vecs = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    vecs.flags.writeable = False
    return vecs


def _projections(x: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """Row j is the projection ``x @ directions[j]``.

    One matrix-vector product per direction: a single matrix product
    may sum in another order, and the projections' last bits decide
    which samples are extrema.
    """
    proj = np.empty((len(directions), x.shape[0]))
    for j, d in enumerate(directions):
        proj[j] = x @ d
    return proj


def _mean_envelope_mv(
    x: np.ndarray, directions: np.ndarray
) -> np.ndarray | None:
    """Average of direction-projected envelope means, one pass of MEMD.

    A direction whose projection has fewer than 3 extrema, or no minimum
    or no maximum, is skipped.  Every other direction's upper and lower
    envelope of ``x`` come from one extrema scan and one batched fit.
    """
    n = x.shape[0]
    n_dir = len(directions)
    pos, d_of, is_max = _extrema_scan(_projections(x, directions))
    n_min, n_max = np.bincount(2 * d_of + is_max, minlength=2 * n_dir).reshape(-1, 2).T
    used = (n_min >= 1) & (n_max >= 1) & (n_min + n_max >= 3)
    if not used.any():
        return None
    # envelope 2r is the upper and 2r + 1 the lower one of the r-th used
    # direction; the stable sort keeps each envelope's extrema ascending
    sel = used[d_of]
    env = 2 * (used.cumsum() - 1)[d_of[sel]] + ~is_max[sel]
    order = env.argsort(kind="stable")
    n_used = int(used.sum())
    lens = np.bincount(env, minlength=2 * n_used)
    idx = pos[sel][order]
    total = None
    if n_used >= 2 and x.size >= HELPER_MIN_SIZE:
        total = _shared_pass(x, idx, lens, n_used, len(directions))
    if total is None:  # the serial pass
        total = np.zeros(x.shape)
        _add_means(total, _envelopes(idx, lens, x, n))
    total /= n_used
    return total


def _add_means(total: np.ndarray, envelopes: Iterator[np.ndarray]) -> None:
    """Add 0.5 * (upper + lower) of each consecutive pair of
    ``envelopes`` to ``total``, in order, each formed in place in the
    fresh upper envelope."""
    for upper, lower in zip(envelopes, envelopes):
        upper += lower
        upper *= 0.5
        total += upper


# -- the helper process -------------------------------------------------------------

# Samples x channels from which a pass with 2 or more used directions
# hands the later half of them to the helper: below it the pipe round
# trip and the second batch cost more than the half fit saves.
HELPER_MIN_SIZE = 1_800
_COMMAND = struct.Struct("4q")  # samples, channels, extrema, envelopes
_OK = b"\0"


class _Helper:
    """A forked process that fits envelopes on its parent's request.

    The two share an anonymous mapping of ``size`` float64 slots: the
    pass's samples (n x c), then one n x c mean per envelope pair of the
    helper's half, then its envelopes' extrema counts and extrema.  A
    command on the pipe ``cmd`` names the sizes; one status byte on the
    pipe ``result`` answers it.
    """

    def __init__(self, size: int) -> None:
        import mmap  # only where a helper starts: 0.4 ms of a cold start

        self.size = size
        self.floats = np.frombuffer(mmap.mmap(-1, 8 * size), dtype=float)
        self.ints = self.floats.view(np.int64)
        commands, self.cmd = os.pipe()
        self.result, replies = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (commands, self.cmd, self.result, replies):
                os.close(fd)
            raise
        if self.pid == 0:
            self._serve(commands, replies)
        os.close(commands)
        os.close(replies)

    def _serve(self, commands: int, replies: int) -> None:
        """The helper's loop, which never returns: fit the half a
        command names and answer it, until the command pipe ends."""
        code = 1
        try:
            gc.disable()  # no finalizer of the parent's garbage runs here
            null = os.open(os.devnull, os.O_RDWR)
            keep = (commands, replies)
            for fd in (0, 1, 2):  # hold none of the parent's streams open
                if fd not in keep:
                    os.dup2(null, fd)
            # nor any other file of the parent's (the parent's ends of
            # these pipes, a pipe whose reader waits for its end)
            lo, hi = sorted(keep)
            os.closerange(3, lo)
            os.closerange(lo + 1, hi)
            os.closerange(hi + 1, os.sysconf("SC_OPEN_MAX"))
            while len(command := os.read(commands, _COMMAND.size)) == _COMMAND.size:
                n, c, n_idx, n_env = _COMMAND.unpack(command)
                x, means, lens, idx = self._regions(n, c, n_idx, n_env)
                try:
                    envelopes = _envelopes(idx, lens, x, n)
                    for mean, (upper, lower) in zip(means, zip(envelopes, envelopes)):
                        np.add(upper, lower, out=mean)
                        mean *= 0.5
                    reply = _OK
                except Exception:  # answered: the parent reruns the pass and raises
                    reply = b"\1"
                os.write(replies, reply)
            code = 0
        finally:
            os._exit(code)

    def _regions(
        self, n: int, c: int, n_idx: int, n_env: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Views of the samples, the means, the extrema counts and the
        extrema of a pass in the shared mapping."""
        nc = n * c
        end = nc * (1 + n_env // 2)
        return (
            self.floats[:nc].reshape(n, c),
            self.floats[nc:end].reshape(n_env // 2, n, c),
            self.ints[end:end + n_env],
            self.ints[end + n_env:end + n_env + n_idx],
        )

    def fit(self, x: np.ndarray, idx: np.ndarray, lens: np.ndarray) -> np.ndarray:
        """Start the fit of the envelopes ``lens`` through the extrema
        ``idx`` of ``x``; returns the view their means will fill."""
        n, c = x.shape
        rx, means, rlens, ridx = self._regions(n, c, len(idx), len(lens))
        rx[...] = x
        rlens[...] = lens
        ridx[...] = idx
        os.write(self.cmd, _COMMAND.pack(n, c, len(idx), len(lens)))
        return means

    def wait(self) -> None:
        """Wait for the fit; raise if it failed or the helper died."""
        if os.read(self.result, 1) != _OK:
            raise ChildProcessError("the envelope helper failed")

    def close(self) -> None:
        """Close this process's ends of the pipes: the helper exits once
        no process holds the command pipe open."""
        os.close(self.cmd)
        os.close(self.result)


_helper: _Helper | None = None


def _shared_pass(
    x: np.ndarray, idx: np.ndarray, lens: np.ndarray, n_used: int, n_dir: int
) -> np.ndarray | None:
    """The sum of a pass's envelope means, the later half of its used
    directions fitted by the helper meanwhile and added after the
    parent's own, in direction order: the serial sum bit for bit.

    None when no helper can run (one CPU, other threads, no
    ``sched_getaffinity``) or when the helper or the parent's half
    fails; the helper is then dropped, and the serial pass that follows
    raises what it raises.
    """
    n = x.shape[0]
    # room for the samples, then for the means, extrema counts and
    # extrema of the helper's half of n_dir directions
    size = x.size * (1 + n_dir // 2) + (n_dir // 2) * (2 + n)
    helper = _running_helper(size)
    if helper is None:
        return None
    own = 2 * (n_used - n_used // 2)  # the parent's envelopes
    cut = int(lens[:own].sum())
    total = np.zeros(x.shape)
    done = False
    try:
        means = helper.fit(x, idx[cut:], lens[own:])
        _add_means(total, _envelopes(idx[:cut], lens[:own], x, n))
        helper.wait()
        done = True
    except (OSError, ValueError):  # a dead helper; a failed fit, rerun serially
        return None
    finally:
        if not done:
            _drop_helper()
    for mean in means:
        total += mean
    return total


def _running_helper(size: int) -> _Helper | None:
    """The helper, forked on first use with a mapping of at least
    ``size`` slots, or None where it cannot help or cannot start."""
    global _helper
    if threading.active_count() > 1:
        return None
    if _helper is not None:
        if _helper.size >= size:
            return _helper
        _drop_helper()  # a larger pass: restart with a larger mapping
    if not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2:
        return None
    try:
        _helper = _Helper(size)
    except OSError:
        return None
    return _helper


def _drop_helper() -> None:
    """Stop the helper: it exits at the end of its command pipe."""
    global _helper
    helper, _helper = _helper, None
    if helper is not None:
        helper.close()
        try:
            os.waitpid(helper.pid, 0)
        except ChildProcessError:  # reaped by someone else
            pass


def _forget_helper() -> None:
    """In a forked child: let go of the parent's helper, which goes on
    serving the parent; the child forks its own when it needs one."""
    global _helper
    if _helper is not None:
        _helper.close()
        _helper = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


def decompose_signals(signals: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Decompose an (n_samples, n_channels) array into IMF matrices.

    Returns ``(imf_list, residual)`` where each entry of ``imf_list`` is
    an (n_samples, n_channels) matrix and the additive reconstruction is
    exact.
    """
    x = np.asarray(signals, dtype=float)
    if x.ndim != 2 or x.shape[0] < 4:
        raise ValidationError("need a 2-D sample array with >= 4 samples")
    n, n_ch = x.shape
    scale = float(np.max(np.abs(x))) or 1.0
    imfs: list[np.ndarray] = []
    r = x.copy()
    directions = _direction_vectors(n_ch)
    while len(imfs) < MAX_IMFS:
        # The first pass is also the stop test: maxima and minima of a
        # finite projection alternate, so the pass is None exactly when
        # every projection of r has fewer than 3 extrema.
        env = _mean_envelope_mv(r, directions)
        if env is None:
            break
        m = r
        for i in range(MAX_SIFTS):
            if i:
                env = _mean_envelope_mv(m, directions)
                if env is None:
                    break
            m_new = m - env
            denom = float((m * m).sum())
            sd = float((env * env).sum()) / denom if denom > 0 else 0.0
            m = m_new
            if sd < SD_THRESHOLD and all(is_imf(col) for col in m.T):
                break
        if np.abs(m).max() < _AMPLITUDE_FLOOR * scale:
            break
        imfs.append(m)
        r = r - m
    return imfs, r


def _natural_order(ids: Sequence[str]) -> list[int]:
    """Positions of the channel ``ids`` in natural order: digit runs
    compare as numbers, so G2 comes before G10, and ties (G01, G1) fall
    to the raw id."""

    def key(j: int) -> tuple[list, str]:
        parts: list = re.split(r"(\d+)", ids[j])
        parts[1::2] = map(int, parts[1::2])
        return parts, ids[j]

    return sorted(range(len(ids)), key=key)


def decompose(traj: VoltageTrajectory) -> DecompositionResult:
    """Decompose every channel of a post-fault trajectory.

    Constant channels yield zero IMFs with the signal as residual; they
    are excluded from the joint projections so they cannot distort the
    envelopes of the active channels.  The direction set is not closed
    under a permutation of the channels, so the active channels are
    sifted in the natural order of their ids, not in the record's
    column order, and the IMFs are mapped back: the same record gives
    the same result whatever order its columns come in.
    """
    v = traj.voltage_matrix()
    active = [
        j for j in _natural_order(traj.channel_ids) if count_extrema(v[:, j]) >= 2
    ]
    if active:
        imf_mats, resid = decompose_signals(v[:, active])
    else:
        imf_mats, resid = [], v[:, :0]

    per_channel_imfs: list[tuple[np.ndarray, ...]] = []
    residuals: list[np.ndarray] = []
    for j in range(v.shape[1]):
        if j in active:
            k = active.index(j)
            per_channel_imfs.append(
                tuple(mat[:, k].copy() for mat in imf_mats)
            )
            residuals.append(resid[:, k].copy())
        else:
            per_channel_imfs.append(())
            residuals.append(v[:, j].copy())
    return DecompositionResult(
        channel_ids=traj.channel_ids,
        imfs=tuple(per_channel_imfs),
        residuals=tuple(residuals),
        dt=traj.dt,
        freqs=tuple(
            tuple(zero_crossing_frequency(imf, traj.dt) for imf in imfs)
            for imfs in per_channel_imfs
        ),
        rms=tuple(
            tuple(math.sqrt(float((imf * imf).sum()) / len(imf)) for imf in imfs)
            for imfs in per_channel_imfs
        ),
    )

