"""Seeded arrival processes: the load shapes online traffic arrives in.

Offline replay consumes a fully-known trace; an online front-end has to
be exercised against the arrival patterns real serving sees.  This module
owns those generators — every one seeded and pure, so load tests and
property suites are exactly reproducible:

* :func:`poisson_arrivals` — the memoryless baseline (the process behind
  :func:`repro.api.serve.poisson_stream`; ``rate = 0`` is the burst);
* :func:`lognormal_arrivals` — heavy-tailed inter-arrivals: the same mean
  rate as Poisson but with bursts and lulls (coefficient of variation
  ``sqrt(exp(sigma^2) - 1)``), the "flash crowd" shape;
* :func:`diurnal_arrivals` — a rate-modulated Poisson process
  (inhomogeneous, generated by thinning): the arrival rate swings
  sinusoidally around its mean with a configurable period and depth, the
  day/night traffic shape.

:func:`synthetic_stream` turns any of them into a list of
:class:`~repro.api.serve.StreamRequest` with mixed shapes, optional
tenants, priority classes and SLA deadlines — the workload both
``replay()`` and the :mod:`~repro.api.online.daemon` load test consume.
"""

from __future__ import annotations

import math

import numpy as np

from repro.machine.validate import ParameterError, require
from repro.util.checking import require_whole

__all__ = [
    "ARRIVAL_PROCESSES",
    "diurnal_arrivals",
    "lognormal_arrivals",
    "make_arrivals",
    "poisson_arrivals",
    "synthetic_stream",
]


def _rng_of(seed: int, rng: np.random.Generator | None) -> np.random.Generator:
    return np.random.default_rng(require_whole(seed, "seed", 0)) if rng is None else rng


def poisson_arrivals(
    count: int,
    rate: float,
    seed: int = 0,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Arrival times of a homogeneous Poisson process (``rate`` req/s).

    ``rate = 0`` degenerates to the burst workload: everything at t = 0,
    no draw consumed.  Passing ``rng`` instead of ``seed`` lets a caller
    thread one generator through arrivals and shape draws (how
    :func:`synthetic_stream` keeps the historical streams bit-identical).
    """
    count = require_whole(count, "count", 1)
    require(rate >= 0.0, ParameterError, f"rate must be >= 0, got {rate}")
    if rate == 0.0:
        return np.zeros(count)
    r = _rng_of(seed, rng)
    return np.cumsum(r.exponential(1.0 / rate, size=count))


def lognormal_arrivals(
    count: int,
    rate: float,
    sigma: float = 1.0,
    seed: int = 0,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Heavy-tailed arrivals: lognormal inter-arrival gaps, mean ``1/rate``.

    ``mu`` is chosen so the inter-arrival *mean* is exactly ``1/rate``
    (``exp(mu + sigma^2/2) = 1/rate``), which makes the long-run arrival
    rate match the Poisson baseline while the tail index ``sigma``
    controls burstiness: at ``sigma = 1`` roughly two thirds of the gaps
    are shorter than the mean and rare gaps run an order of magnitude
    longer.
    """
    count = require_whole(count, "count", 1)
    require(rate > 0.0, ParameterError, f"rate must be > 0, got {rate}")
    require(sigma > 0.0, ParameterError, f"sigma must be > 0, got {sigma}")
    r = _rng_of(seed, rng)
    mu = -math.log(rate) - 0.5 * sigma * sigma
    return np.cumsum(r.lognormal(mean=mu, sigma=sigma, size=count))


def diurnal_arrivals(
    count: int,
    rate: float,
    period: float = 1.0,
    depth: float = 0.8,
    seed: int = 0,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Rate-modulated Poisson arrivals (thinning): day/night traffic.

    The instantaneous rate is ``rate * (1 + depth * sin(2 pi t /
    period))`` — mean ``rate`` over any whole period, peak ``rate * (1 +
    depth)``.  Generated by Lewis–Shedler thinning of a homogeneous
    process at the peak rate, so the output is an exact draw from the
    inhomogeneous process.
    """
    count = require_whole(count, "count", 1)
    require(rate > 0.0, ParameterError, f"rate must be > 0, got {rate}")
    require(0.0 <= depth < 1.0, ParameterError, f"depth must be in [0, 1), got {depth}")
    require(period > 0.0, ParameterError, f"period must be > 0, got {period}")
    r = _rng_of(seed, rng)
    lam_max = rate * (1.0 + depth)
    out = np.empty(count)
    t = 0.0
    filled = 0
    two_pi = 2.0 * math.pi
    while filled < count:
        # draw candidate gaps in blocks; thinning keeps each candidate
        # with probability lam(t)/lam_max
        gaps = r.exponential(1.0 / lam_max, size=max(count - filled, 16))
        keeps = r.uniform(size=gaps.shape[0])
        for gap, keep in zip(gaps, keeps):
            t += float(gap)
            lam_t = rate * (1.0 + depth * math.sin(two_pi * t / period))
            if keep * lam_max <= lam_t:
                out[filled] = t
                filled += 1
                if filled == count:
                    break
    return out


#: registry of named processes (what ``--arrivals`` and benches select by)
ARRIVAL_PROCESSES = {
    "poisson": poisson_arrivals,
    "lognormal": lognormal_arrivals,
    "diurnal": diurnal_arrivals,
}


def make_arrivals(
    process: str,
    count: int,
    rate: float,
    seed: int = 0,
    rng: np.random.Generator | None = None,
    **knobs,
) -> np.ndarray:
    """Dispatch to a registered arrival process by name."""
    fn = ARRIVAL_PROCESSES.get(process)
    require(
        fn is not None,
        ParameterError,
        f"unknown arrival process {process!r} (choose from "
        f"{sorted(ARRIVAL_PROCESSES)})",
    )
    assert fn is not None
    return fn(count, rate, seed=seed, rng=rng, **knobs)


def _pow2_choices(lo: int, hi: int) -> list[int]:
    out = []
    v = 1
    while v <= hi:
        if v >= lo:
            out.append(v)
        v *= 2
    require(bool(out), ParameterError, f"no power of two in [{lo}, {hi}]")
    return out


def synthetic_stream(
    count: int,
    rate: float = 0.0,
    process: str = "poisson",
    n_range: tuple[int, int] = (64, 256),
    k_range: tuple[int, int] = (8, 64),
    seed: int = 0,
    tenants: tuple[str, ...] = ("default",),
    priorities: tuple[int, ...] = (0,),
    deadline_slack: float | None = None,
    **knobs,
) -> list:
    """A seeded stream of mixed solve requests under any arrival process.

    The one stream generator (:func:`repro.api.serve.poisson_stream` is
    this function at its Poisson defaults): shapes are drawn uniformly
    from the powers of two in their ranges, tenants round-robin over
    ``tenants``, priorities are drawn uniformly from ``priorities``, and
    ``deadline_slack`` (when given) stamps every request with the SLA
    deadline ``arrival + deadline_slack`` in simulated seconds.  One
    generator seeded by ``seed`` draws the arrivals first, then ``n`` and
    ``k`` per entry — the historical ``poisson_stream`` draw order, which
    is what keeps the replay goldens pinned.
    """
    from repro.api.serve import StreamRequest

    count = require_whole(count, "count", 1)
    seed = require_whole(seed, "seed", 0)
    require(bool(tenants), ParameterError, "need at least one tenant")
    require(bool(priorities), ParameterError, "need at least one priority class")
    rng = np.random.default_rng(seed)
    ns = _pow2_choices(*n_range)
    ks = _pow2_choices(*k_range)
    arrivals = make_arrivals(process, count, rate, rng=rng, **knobs)
    uniform_priority = all(p == priorities[0] for p in priorities)
    out = []
    for i in range(count):
        n = int(rng.choice(ns))
        k = int(rng.choice(ks))
        # only consume extra draws when the stream actually mixes
        # priority classes: the default path must replay the historical
        # RNG sequence exactly
        priority = priorities[0] if uniform_priority else rng.choice(priorities)
        arrival = float(arrivals[i])
        out.append(
            StreamRequest(
                n=n,
                k=k,
                arrival=arrival,
                seed=seed + 17 * i,
                priority=priority,
                deadline=None if deadline_slack is None else arrival + deadline_slack,
                tenant=tenants[i % len(tenants)],
            )
        )
    return out
