"""Monte Carlo risk measures for sums of copula-coupled Pareto-II losses.

Samplers exist for the families with known stochastic representations:
the Marshall-Olkin copula through its common-shock max transform, the
symmetric mixture as an MO draw swapped on a fair coin, and the FGM
copula by closed-form inversion of its conditional CDF.  Each lives on its
family class in :mod:`taildep.copulas` (``Copula.sampler``).  None of these
constructions is taken on faith -- the test suite gates every sampler on
agreement between its empirical copula and the analytic CDF.

Randomness comes from counter-based Philox streams.  Batch i of at most
2^18 pairs is ``Philox(key=seed).jumped(i).random((rows, ncols))``, with
ncols uniforms per pair (1 to 4, by family), drawn in chunks of 2^14 rows:
the chunk at row r, a multiple of 4, starts at Philox counter step
r * ncols / 4 of its batch, so chunks can be drawn in any order, each by
setting the counter of one generator per thread.

Risk runs those chunks on one worker thread per available CPU (at most 8),
the caller's among them.  Each worker runs one loop (``_top_sums``): it
takes the next chunk nobody has taken and draws it once into a block the
caller allocated; for each copula that shares the draw it makes pairs and
sums in place and gathers the sums into that copula's one top buffer,
which every thread shares under the copula's lock, cutting it back to the
largest m = n(1 - q) + 1 sums.  Once that buffer has a floor f, pairs
with both uniforms at or below the level t = ``ParetoII._level_below(f)``
sum to less than f and skip the quantile.  Where the family has a corner
test (``Copula._corner``: Marshall-Olkin, the mixture and their survival
copulas), the level also skips the transform: the draws whose uniforms
put the pair in [0, t]^2 are dropped before ``fill``.  In a 2M-pair item
at q = 0.99 about 12% of the pairs still reach the transform (the floor
after s pairs is only the m-th largest of those s), and the Philox draw
takes about 70% of the time; the transform, the quantile, the corner test
and its compress take 3-8% each.  Floors only rise and the largest sums
form one multiset whichever thread gathered them, so results are
bit-identical for a fixed seed and any thread count.  For the len(cops)
copulas of one call (``risk_measures`` passes one, Table 1 three), memory
is len(cops) * (3m/2 + 2^14) doubles of top buffers (a buffer cuts back
once it holds m + m // 2 sums) and threads * (ncols + 2) * 2^14 of chunk
blocks, rather than O(n).
``reference_table`` (``taildep table1``) draws the common stream of its
three b once, in one ``_top_sums`` call, and reads every q from each b's
buffer.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import asdict, astuple, dataclass
from typing import ClassVar, Sequence

import numpy as np

from taildep.copulas import (
    Copula,
    MarshallOlkin,
    _as_unit,
    _check_int,
    _check_param,
    _scalar_like,
)
from taildep.errors import InsufficientTailError, NumericError, ParameterError
from taildep.serialize import dumps_csv

__all__ = [
    "ParetoII",
    "RiskReport",
    "sample_pairs",
    "risk_measures",
    "RiskTableRow",
    "RiskTable",
    "reference_table",
]

_BATCH = 1 << 18
_CHUNK = 1 << 14  # divides _BATCH, a multiple of 4 rows
_MIN_N = 10_000
_WORD = (1 << 64) - 1  # one 64-bit word of a Philox counter
# worker threads of _top_sums: one per CPU this process may run on, at most 8
_WORKERS = min(8, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)


@dataclass(frozen=True)
class ParetoII:
    """Pareto-II (Lomax) marginal with survival ((x - mu)/sigma + 1)^-alpha."""

    mu: float = 0.0
    sigma: float = 1.0
    alpha: float = 4.0

    def __post_init__(self):
        _check_param(self.mu, "mu", -math.inf, math.inf)
        _check_param(self.sigma, "sigma", 0.0, math.inf, lo_open=True)
        _check_param(self.alpha, "alpha", 0.0, math.inf, lo_open=True)

    def sf(self, x):
        """Survival function, 1 at and below x = mu and decreasing above."""
        xa = np.maximum(np.asarray(x, dtype=float), self.mu)
        return _scalar_like(((xa - self.mu) / self.sigma + 1.0) ** -self.alpha, x)

    def quantile(self, p):
        """Inverse CDF: mu + sigma ((1 - p)^(-1/alpha) - 1) for p in [0, 1)."""
        return _scalar_like(self._quantile(_as_unit(p, "p", hi_open=True)), p)

    def _quantile(self, p: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``quantile`` without the range check, into ``out`` (may be p)."""
        x = np.subtract(1.0, p, out=out)
        x **= -1.0 / self.alpha
        x -= 1.0
        x *= self.sigma
        x += self.mu
        return x

    def _level_below(self, f: float) -> float | None:
        """A level t in (0, 1) with 2 Q(p) < f for every p <= t, or None.

        At t the power (1 - t)^(-1/alpha) in ``_quantile`` is 2e-9 below its
        value at f/2.  t stands if, with that power raised by 1e-9 (more than
        pow errs), Q(t) < f/2: the other steps round monotonically."""
        power = ((0.5 * float(f) - self.mu) / self.sigma + 1.0) * (1.0 - 2e-9)
        t = 1.0 - power ** -self.alpha if power > 1.0 else 0.0
        with np.errstate(over="ignore", divide="ignore"):  # inf fails below
            lift = np.float64(1.0 - t) ** (-1.0 / self.alpha) * (1.0 + 1e-9)
            below = 2.0 * (self.mu + self.sigma * (lift - 1.0)) < f
        return t if 0.0 < t < 1.0 and below else None


@dataclass(frozen=True)
class RiskReport:
    """Monte Carlo tail risk measures of Z = X + Y with provenance."""

    q: float
    var_q: float
    cte_q: float
    mtvar_q: float
    n: int
    seed: int
    n_exceed: int
    stderr_cte: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def _check_n_seed(n, seed, n_min: int) -> tuple[int, int]:
    """n and seed as ints: n an integer >= n_min, seed a 128-bit Philox key."""
    return _check_int(n, "n", n_min), _check_int(seed, "seed", 0, 2 ** 128 - 1)


_Chunk = tuple[int, int, int]


def _chunks(n: int) -> list[_Chunk]:
    """(batch, first row in the batch, rows) of each chunk of n rows, in order."""
    return [(*divmod(start, _BATCH), min(_CHUNK, n - start))
            for start in range(0, n, _CHUNK)]


def _generator(seed: int) -> np.random.Generator:
    """A generator on ``Philox(key=seed)`` for ``_draw`` to point at chunks."""
    return np.random.Generator(np.random.Philox(key=seed))


def _draw(gen: np.random.Generator, ncols: int, chunk: _Chunk,
          block: np.ndarray) -> np.ndarray:
    """One chunk of its batch's draw ``rng.random((rows, ncols))``, as the
    columns ``block[:ncols, :rows]``; runs of its rows are staged in the
    last two of the block's ncols + 2 rows.  The chunk starts at a row r
    that is a multiple of 4, so its first word is the first of Philox
    counter step r * ncols / 4 after the batch's start, ``jumped(batch)``,
    which is counter batch * 2^128: ``gen``'s counter is set there, as four
    little-endian 64-bit words, with its buffer of words spent."""
    batch, row, rows = chunk
    counter = (batch << 128) + row * ncols // 4
    state = gen.bit_generator.state
    state["state"]["counter"] = [(counter >> s) & _WORD for s in (0, 64, 128, 192)]
    state["buffer_pos"] = 4
    gen.bit_generator.state = state
    stage = block[ncols:].reshape(-1)
    step = stage.size // ncols
    for r in range(0, rows, step):
        part = stage[:min(step, rows - r) * ncols].reshape(-1, ncols)
        gen.random(out=part)
        block[:ncols, r:r + part.shape[0]] = part.T
    return block[:ncols, :rows]


def sample_pairs(cop: Copula, n: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Draw n pairs with uniform marginals coupled by ``cop``.

    Supported families (those with a ``sampler``): independence, comonotone,
    Marshall-Olkin, its symmetric mixture, FGM, and the survival copula of
    any of these (drawn exactly as the reflection (1-U, 1-V) of a base
    draw).  Raises :class:`UnsupportedMethodError` otherwise (there is no
    sampler for the Clayton families or generic Archimedean copulas here).
    """
    n, seed = _check_n_seed(n, seed, 1)
    ncols, fill = cop.sampler()
    uv, block = np.empty((2, n)), np.empty((ncols + 2, _CHUNK))
    gen = _generator(seed)
    for start, chunk in zip(range(0, n, _CHUNK), _chunks(n)):
        fill(_draw(gen, ncols, chunk, block), uv[:, start:start + chunk[2]])
    return uv[0], uv[1]


def _order_index(n: int, q: float) -> int:
    """k of the ceil(n q)-th order statistic, the empirical VaR_q."""
    k = int(math.ceil(n * q - 1e-9))  # guard against float noise in n*q
    if k < 1:
        raise ParameterError(
            f"q={q!r} is below 1/n={1 / n!r}: no order statistic is its VaR")
    return k


def _largest(z: np.ndarray, m: int) -> np.ndarray:
    """The m largest values of z (all of them if fewer), smallest first.

    Partitions z in place, so z must be an array of the caller's own.
    """
    if z.size <= m:
        return z
    z.partition(z.size - m)
    return z[z.size - m:]


class _Top:
    """One copula's part of ``_top_sums``: its largest sums, gathered by
    every worker into one buffer under the copula's own lock."""

    def __init__(self, cop: Copula, marginal: ParetoII, n: int, m: int):
        self.ncols, self.fill = cop.sampler()
        self.corner, self.marginal = cop._corner, marginal
        # a cut-back partitions m + m // 2 values, so its work per gathered
        # sum is bounded for any m
        self.m, self.full = m, m + m // 2
        self.buf = np.empty(min(self.full + _CHUNK, n))
        self.start = self.buf.size  # gathered: buf[start:]
        self.floor = self.level = None
        self.lock = threading.Lock()

    def add(self, draw: np.ndarray, stage: np.ndarray, last: bool) -> None:
        """Fills the pairs of a chunk's draws into the two rows ``stage`` and
        gathers their sums; ``fill`` gets a copy of the draws unless this is
        the ``last`` copula to read them or the corner test compressed them."""
        level = self.level  # read without the lock: it only rises, and a
        # stale level, like a stale floor, keeps more sums than a fresh one
        if level is not None and self.corner is not None:
            w = draw.compress(~self.corner(draw, level), axis=1)
        else:
            w = draw if last else draw.copy()
        uv = stage[:, :w.shape[1]]
        self.fill(w, uv)
        if level is not None and self.corner is None:
            keep = uv > level
            keep[0] |= keep[1]
            uv = uv.compress(keep[0], axis=1)
        z, v = self.marginal._quantile(uv, out=uv)
        z += v
        floor = self.floor
        if floor is not None:
            z = z[z > floor]
        with self.lock:
            buf, start = self.buf, self.start - z.size
            buf[start:self.start] = z
            if buf.size - start >= self.full:
                _largest(buf[start:], self.m)  # now the last m of buf
                start = buf.size - self.m
                self.floor = buf[start]
                self.level = self.marginal._level_below(self.floor)
            self.start = start

    def sorted(self) -> np.ndarray:
        """The m largest sums gathered, smallest first."""
        top = _largest(self.buf[self.start:], self.m)
        top.sort()
        return top


def _top_sums(cops: Sequence[Copula], marginal: ParetoII, n: int, seed: int,
              k: int) -> list[np.ndarray]:
    """The sorted order statistics k..n of Z = X + Y over n draws, for each
    copula of ``cops``, which share ncols; the draws are common to all.

    Up to ``_WORKERS`` threads, the caller's being one of them, run one loop
    each, in a block of ncols + 2 rows the caller allocated.  Each turn of
    the loop takes the next chunk nobody has taken and draws it once.  For
    each copula in turn (``_Top.add``) it drops the draws that the family's
    ``_corner`` test puts in [0, t]^2, then fills the rest, or, for a family
    without the test, fills them all and prunes pairs with both uniforms at
    or below the level t.  It applies the Pareto quantile and gathers the
    sums above the copula's floor f into its one buffer of
    m + m // 2 + _CHUNK values (or all n), m = n - k + 1, which every thread
    shares under the copula's lock; there is no t or f before the first
    cut-back.  Once the buffer holds m + m // 2 values, an in-place
    partition cuts them back to the m largest; the smallest of those is the
    new f, and t is ``marginal._level_below(f)``, so pairs in [0, t]^2 sum
    to less than f: a pair the corner test misses is dropped with the sums
    below f.  A filled pair comes from the same elementwise steps with the
    test or without, so the gathered sums do not depend on it.  Floors only rise,
    each is the m-th largest of some of the sums, and equal values are
    interchangeable, so each buffer's m largest are a full sort's, whatever
    thread gathered them and in what order.  A worker that raises stops the
    hand-out; every thread is joined and the first exception is raised here.
    """
    tops = [_Top(cop, marginal, n, n - k + 1) for cop in cops]
    ncols = tops[0].ncols
    if any(top.ncols != ncols for top in tops):
        raise ParameterError("copulas that share a draw need the same ncols")
    chunks = _chunks(n)
    count = min(_WORKERS, len(chunks))
    pending, lock, errors = iter(chunks), threading.Lock(), []
    blocks = np.empty((count, ncols + 2, _CHUNK))

    def run(block: np.ndarray) -> None:
        try:
            gen = _generator(seed)
            with np.errstate(over="ignore"):  # _report rejects overflowed sums
                while True:
                    with lock:
                        chunk = None if errors else next(pending, None)
                    if chunk is None:
                        break
                    draw = _draw(gen, ncols, chunk, block)
                    for top in tops:
                        top.add(draw, block[ncols:], top is tops[-1])
        except BaseException as exc:  # raised again in the caller
            with lock:
                errors.append(exc)

    threads = [threading.Thread(target=run, args=(blocks[j],), daemon=True,
                                name=f"taildep-risk-{j}")
               for j in range(1, count)]
    for t in threads:
        t.start()
    run(blocks[0])
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return [top.sorted() for top in tops]


def _report(top: np.ndarray, n: int, q: float, seed: int) -> RiskReport:
    """RiskReport at level q from the largest sorted sums ``top`` of n."""
    if not math.isfinite(top[-1]):
        raise NumericError(
            f"a loss sum overflowed to {float(top[-1])}: the marginal's tail "
            "is too heavy or its scale too large for double precision")
    # position ceil(n q) - 1 of the full sort, less the sums dropped below
    var_q = float(top[_order_index(n, q) - 1 - (n - top.size)])
    exceed = top[top > var_q]
    if exceed.size < 100:
        raise InsufficientTailError(
            f"only {exceed.size} exceedances above VaR at q={q}; "
            "increase n or lower q")
    with np.errstate(over="ignore"):  # an infinite moment is refused below
        cte_q = float(exceed.mean())
        cond_var = float(exceed.var(ddof=1))
        report = RiskReport(
            q=q, var_q=var_q, cte_q=cte_q, mtvar_q=cte_q + cond_var / cte_q,
            n=n, seed=seed, n_exceed=int(exceed.size),
            stderr_cte=float(exceed.std(ddof=1) / math.sqrt(exceed.size)))
    for name in ("cte_q", "mtvar_q", "stderr_cte"):
        if not math.isfinite(x := getattr(report, name)):
            raise NumericError(f"{name} overflowed to {x}: the loss sums are "
                               "too large for their moments in double precision")
    return report


def risk_measures(cop: Copula, marginal: ParetoII, q: float,
                  n: int, seed: int = 0) -> RiskReport:
    """VaR, CTE and modified tail variance of Z = X + Y by simulation.

    The empirical quantile uses the ceil(n q) order statistic, so q must be
    at least 1/n; the conditional measures average over the exceedances
    strictly above it.  The sums stream through in Philox chunks, on one
    thread per available CPU, and only the top n - ceil(n q) + 1 of them
    are kept; the result does not depend on the thread count.
    """
    _check_param(q, "q", 0, 1, lo_open=True, hi_open=True)
    n, seed = _check_n_seed(n, seed, _MIN_N)
    [top] = _top_sums([cop], marginal, n, seed, _order_index(n, q))
    return _report(top, n, q, seed)


@dataclass(frozen=True)
class RiskTableRow:
    q: float
    b: float
    tau: float
    kappa_l: float
    kappa_l_star: float
    var_q: float
    cte_q: float
    mtvar_q: float


@dataclass(frozen=True)
class RiskTable:
    """Dependence indices and risk measures over a (q, b) sweep."""

    a: float
    marginal: ParetoII
    n: int
    seed: int
    rows: tuple[RiskTableRow, ...]

    # the printed name of each RiskTableRow field, in field order
    columns: ClassVar[tuple[str, ...]] = (
        "q", "b", "tau", "kappa_L", "kappa_L_star", "VaR", "CTE", "MTVar")

    def to_json_dict(self) -> dict:
        """The fields in order, each row keyed by its printed column names."""
        return {**asdict(self), "rows": [dict(zip(self.columns, astuple(r)))
                                         for r in self.rows]}

    def to_csv(self) -> str:
        return dumps_csv(self.columns, map(astuple, self.rows))


# the published Table 1: its levels q, shock parameters b at fixed a, and
# the Pareto-II marginals of both losses
_TABLE_QS = (0.990, 0.995)
_TABLE_BS = (0.75, 0.5, 0.3529)
_TABLE_A = 0.3529
_TABLE_MARGINAL = ParetoII(0.0, 1.0, 4.0)


def reference_table(seed: int, n: int = 2_000_000) -> RiskTable:
    """Sweep of tau, tail exponents and risk measures for Marshall-Olkin
    losses with Pareto-II marginals, fixed at the published Table 1
    (``_TABLE_QS``, ``_TABLE_BS``, ``_TABLE_A`` and ``_TABLE_MARGINAL``).

    The losses are coupled through their survival functions,
    P(X > x, Y > y) = C_ab(sf(x), sf(y)), the standard common-shock
    construction for Marshall-Olkin losses; equivalently the distributional
    copula of (X, Y) is the survival copula of C_ab.  This is what makes the
    sweep informative: the joint upper tail of the losses, and with it VaR
    and CTE of X + Y, is then governed by the *lower*-tail behaviour of C_ab
    that the index columns describe (smaller maximal-path exponent, larger
    risk), while Kendall's tau is reflection-invariant and unaffected.

    Every row shares the same seed, so the underlying uniforms are common
    random numbers across parameter values and the risk columns vary
    smoothly in b.  The common stream is drawn once for all three b, in one
    ``_top_sums`` call; each b's buffer of the top sums, sized for the
    smallest q, answers every q, and each row equals
    ``risk_measures(MarshallOlkin(a, b).survival(), marginal, q, n, seed)``.
    """
    qs, bs, a, marginal = _TABLE_QS, _TABLE_BS, _TABLE_A, _TABLE_MARGINAL
    n, seed = _check_n_seed(n, seed, _MIN_N)
    k_min = min(_order_index(n, q) for q in qs)
    cops = [MarshallOlkin(a, b) for b in bs]
    tops = _top_sums([cop.survival() for cop in cops], marginal, n, seed, k_min)
    by_b = []  # the rows of each b, in q order
    for cop, top in zip(cops, tops):
        reports = [_report(top, n, q, seed) for q in qs]
        by_b.append([RiskTableRow(r.q, cop.b, cop.tau(), cop.kappa_diag(), cop.kappa_star(),
                                  r.var_q, r.cte_q, r.mtvar_q) for r in reports])
    rows = tuple(row for same_q in zip(*by_b) for row in same_q)
    return RiskTable(a=a, marginal=marginal, n=n, seed=seed, rows=rows)
