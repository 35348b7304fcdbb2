"""The lower-bound cascade: lossless cDTW pruning for 1-NN search.

Bounds are applied cheapest-first against a best-so-far threshold,
all under the squared local cost:

1. ``LB_Kim``          -- O(1);
2. ``LB_Keogh``        -- O(n) against the query envelope, built once
   per query;
3. ``LB_Keogh`` reversed -- O(n): the same forward bound, scored with
   the query against the *candidate's* envelope;
4. early-abandoning cDTW -- the full DP, only for survivors, with the
   UCR-suite cumulative suffix bound on univariate series.

Every stage is provably ``<=`` the true cDTW distance, so pruning is
lossless: the search returns exactly the nearest neighbour, just
faster.  :class:`CascadeStats` records where each candidate was pruned,
which the repeated-use benchmark reports alongside the timings.

:class:`CascadeBatch` is the one cascade: it holds a candidate set and
answers queries against it, either whole (:meth:`CascadeBatch.nearest`)
or candidate by candidate for callers that run their own loop
(:meth:`CascadeBatch.scan`: top-k, discords, motifs).  Candidate
envelopes come ready-made from an index when one is given; otherwise
each is built the first time the reversed stage asks for it and kept
for the batch's life.  An index changes a scan only by serving those
envelopes (and, for self-joins, the exact-distance cache), so indexed
and index-free scans of the same held candidates do the same work.
Multivariate ``(length, dims)`` candidates run the same stage list
with the summed per-channel bounds of :mod:`repro.lowerbounds.nd` and
the dependent DP as the exact stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Callable, Dict, NamedTuple, Optional, Sequence, Tuple

from ..obs import trace as _obs
from ..runtime import Runtime
from .envelope import Envelope, envelope
from .lb_keogh import lb_keogh
from .lb_kim import lb_kim


@dataclass
class CascadeStats:
    """Per-stage pruning counters accumulated over a search."""

    candidates: int = 0
    pruned_kim: int = 0
    pruned_keogh: int = 0
    pruned_keogh_reversed: int = 0
    abandoned_dtw: int = 0
    full_dtw: int = 0
    cells: int = 0  # DP lattice cells actually evaluated
    reused_exact: int = 0  # answered from a shared exact-distance cache

    def pruned_total(self) -> int:
        """Candidates rejected before a complete DTW computation."""
        return (
            self.pruned_kim
            + self.pruned_keogh
            + self.pruned_keogh_reversed
            + self.abandoned_dtw
        )

    def prune_rate(self) -> float:
        """Fraction of candidates that never finished a full DTW."""
        if not self.candidates:
            return 0.0
        return self.pruned_total() / self.candidates


@dataclass(frozen=True)
class BatchNearest:
    """One query's outcome from :meth:`CascadeBatch.nearest`.

    ``index`` addresses the *original* candidate list (exclusions and
    best-first reordering notwithstanding); ``stats`` are the query's
    own cascade counters; ``artifacts_reused`` counts precomputed
    artifacts served instead of recomputed (query envelope plus every
    candidate envelope the reversed stage consumed).
    """

    index: int
    distance: float
    stats: CascadeStats
    artifacts_reused: int


class _Stages(NamedTuple):
    """The bound and exact-DP callables one batch runs, picked once."""

    kim: Callable  # (query, candidate) -> bound
    keogh: Callable  # (envelope, series, best) -> bound or inf
    envelope: Callable  # (series) -> envelope
    exact: Callable  # (query, query_env, candidate, best) -> DtwResult


def _pick_stages(band, dims, rt) -> _Stages:
    def abandon_at(best):
        return None if best == inf else best

    # the exact stage is the pure engine on every backend: an
    # abandoning DP has one implementation (see
    # repro.core.kernels.stacked_kernels); only the bounds vary
    if dims is not None:
        # summed per-channel bounds (admissible for DTW_I and DTW_D,
        # pure python on every backend); the cumulative-suffix stage
        # is scalar-only, so the exact stage is plain early abandoning
        from ..core.multivariate import cdtw_nd
        from .nd import envelopes_nd, lb_keogh_nd, lb_kim_nd

        return _Stages(
            kim=lb_kim_nd,
            keogh=lambda env, x, best: lb_keogh_nd(
                env, x, abandon_above=best,
            ),
            envelope=lambda x: envelopes_nd(x, band),
            exact=lambda q, q_env, c, best: cdtw_nd(
                q, c, band=band, abandon_above=abandon_at(best),
            ),
        )

    from ..core.cdtw import cdtw
    from ..search.cumulative import cdtw_cumulative_abandon

    def exact(q, q_env, c, best):
        if best == inf:
            return cdtw(q, c, band=band)
        # the UCR-suite cumulative suffix bound: DTW over the
        # candidate against the query, charged up-front for what its
        # remaining rows must at least cost
        return cdtw_cumulative_abandon(
            c, q, band, threshold=best, y_envelope=q_env,
        )

    kernels = rt.kernels()
    if kernels.name == "python":
        return _Stages(
            kim=lb_kim,
            keogh=lambda env, x, best: lb_keogh(env, x, abandon_above=best),
            envelope=lambda x: envelope(x, band),
            exact=exact,
        )

    # vectorised backends keep envelopes as float64 arrays and run the
    # sequential-sum chunk kernels, bit-identical to the scalar bounds
    def vector_envelope(x):
        up, lo = kernels.envelope_chunk((x,), band)
        return Envelope(band, up[0], lo[0])

    return _Stages(
        kim=lb_kim,
        keogh=lambda env, x, best: float(kernels.lb_keogh_chunk(
            env.upper, env.lower, (x,), abandon_above=best,
        )[0]),
        envelope=vector_envelope,
        exact=exact,
    )


class CascadeScan:
    """One query's pruned distances to a batch's candidates, on demand.

    Made by :meth:`CascadeBatch.scan`.  :meth:`distance` follows the
    cascade contract -- the exact cDTW distance when finite, ``inf``
    exactly when the candidate provably exceeds ``best_so_far`` -- so
    scan-order-sensitive callers (discord's doubly-abandoning loops,
    top-k's heap threshold) keep their exact results.  ``stats``
    accumulates the query's :class:`CascadeStats`; :meth:`close` (or
    leaving a ``with`` block) runs the batch owner's ``on_close`` hook
    once.
    """

    def __init__(self, batch, query, query_index=None, on_close=None):
        self.query = list(query)
        if len(self.query) != batch.length:
            raise ValueError("cascade requires equal-length candidates")
        first = self.query[0] if len(self.query) else None
        dims = len(first) if hasattr(first, "__len__") else None
        if dims != batch.dims:
            raise ValueError(
                "query and candidates must both be univariate or share "
                "their channel count"
            )
        self._batch = batch
        self._on_close = on_close
        self.stats = CascadeStats()
        self.artifacts_reused = 0
        # a self-join query *is* candidate ``query_index``, so its
        # envelope is that candidate's (stored or built and kept)
        self.envelope = (
            batch._stages.envelope(self.query)
            if query_index is None or batch._envelopes is None
            else self._envelope_of(query_index)
        )

    def distance(self, index: int, best_so_far: float = inf) -> float:
        """cDTW(query, candidate ``index``), or ``inf`` if it provably
        exceeds ``best_so_far``."""
        return self._evaluate(index, best_so_far)

    def close(self) -> None:
        """Run the ``on_close`` hook (idempotent)."""
        hook, self._on_close = self._on_close, None
        if hook is not None:
            hook(self)

    def __enter__(self) -> "CascadeScan":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the stage list ------------------------------------------------------

    def _evaluate(self, j, best, kim=None, keogh=None) -> float:
        if _obs.active_trace() is None:
            return self._stages(j, best, kim, keogh)
        with _obs.span("lb_cascade"):
            return self._stages(j, best, kim, keogh)

    def _stages(self, j, best, kim, keogh) -> float:
        """Run candidate ``j`` down the cascade.

        ``kim``/``keogh`` replay full (no-abandon) bounds computed up
        front by :meth:`CascadeBatch.nearest`'s prefilter.  Decisions
        are identical either way: gap costs are non-negative, so an
        abandoning bound crosses the threshold exactly when its full
        value exceeds it.  A bound prunes only past ``best`` plus the
        batch's rounding allowance, so a candidate whose distance
        equals ``best`` always reaches the exact stage.
        """
        batch, stages = self._batch, self._batch._stages
        limit = best + best * batch._rounding
        self.stats.candidates += 1
        _obs.incr("lb.candidates")
        cand = batch.candidates[j]
        _obs.incr("lb.invocations")
        if kim is None:
            kim = stages.kim(self.query, cand)
        if kim > limit:
            return self._pruned("pruned_kim")
        _obs.incr("lb.invocations")
        lb = keogh if keogh is not None else stages.keogh(
            self.envelope, cand, limit
        )
        if lb > limit:
            return self._pruned("pruned_keogh")
        _obs.incr("lb.invocations")
        env = (
            stages.envelope(cand) if batch._envelopes is None
            else self._envelope_of(j)
        )
        if stages.keogh(env, self.query, limit) > limit:
            return self._pruned("pruned_keogh_reversed")
        result = stages.exact(self.query, self.envelope, cand, best)
        self.stats.cells += result.cells
        if result.abandoned:
            return self._pruned("abandoned_dtw")
        self.stats.full_dtw += 1
        _obs.incr("lb.full_dtw")
        return result.distance

    def _pruned(self, stage: str) -> float:
        setattr(self.stats, stage, getattr(self.stats, stage) + 1)
        _obs.incr("lb." + stage)
        return inf

    def _envelope_of(self, j):
        """Candidate ``j``'s envelope, from the batch's store."""
        batch = self._batch
        env = batch._envelopes[j]
        if env is None:
            env = batch._envelopes[j] = batch._stages.envelope(
                batch.candidates[j]
            )
        elif batch._provided:
            self.artifacts_reused += 1
        return env


class CascadeBatch:
    """The lower-bound cascade over one fixed candidate set.

    Queries run through one stage list (see the module notes), with
    three lossless tricks for repeated use:

    * **precomputed artifacts** -- candidate envelopes come from
      ``candidate_envelopes`` (e.g. a :class:`repro.index.DatasetIndex`)
      or are built on first use and kept, and serve every query's
      reversed stage;
    * **best-first ordering** -- :meth:`nearest` scans held candidates
      in ascending order of their full LB_Kim (O(1) per candidate;
      ties by position), so the best-so-far threshold tightens as
      early as possible and the later, expensive stages prune more.
      A view is scanned in stream order: sorting it would compute
      every candidate twice;
    * **best-so-far sharing** -- for *self-join* batches (each query
      is itself a member of the candidate set, declared via
      ``query_index``), every exact distance computed for an earlier
      query seeds the later query's threshold through a symmetric
      cache: cDTW is symmetric, so ``d(q_i, c_j)`` is an exact upper
      bound on query ``j``'s nearest-neighbour distance.

    Pruning only ever discards candidates whose true distance provably
    exceeds a valid threshold, and the winner tie-break is explicit --
    smallest original index among the equally-nearest -- which is
    exactly the first-wins winner of the serial in-order scan, so
    :meth:`nearest` returns a bit-identical ``(index, distance)`` for
    any ordering, seeding or backend.  Where the envelopes come from
    never changes a decision, so a batch primed with an index's
    envelopes returns the same answers *and* :class:`CascadeStats` as
    one that builds its own.

    Parameters
    ----------
    candidates:
        Equal-length series to search.  A list or tuple is *held*:
        each candidate's envelope, once built, is kept for the batch's
        life.  Any other sequence is a *view* that computes candidates
        on access (e.g. a stream's sliding windows); the batch then
        keeps nothing per candidate, so its working set stays one
        candidate.
    band:
        Sakoe-Chiba half-width in cells; must match the cDTW calls the
        cascade stands in for.
    share_exact:
        Keep the symmetric exact-distance cache across self-join
        queries (callers then pass ``query_index``).
    runtime:
        Execution context, per :mod:`repro.runtime` (``None`` = the
        process default).  Only its backend matters -- best-so-far
        pruning threads a threshold through the scan, so the cascade
        is sequential -- and it is pinned at construction.  Every
        stage is bit-identical across backends (the forward and
        reversed LB_Keogh both run the sequential-order
        ``lb_keogh_chunk`` kernel on vectorised backends), so answers
        and :class:`CascadeStats` are too.
    candidate_envelopes:
        Precomputed candidate envelopes: ``(upper, lower)`` stacks for
        univariate candidates, one per-channel :class:`Envelope` tuple
        per candidate for multivariate ones.

    Notes
    -----
    On a vectorised backend, :meth:`nearest` over held univariate
    candidates first computes *full* Kim and Keogh bounds for every
    candidate in two stacked chunk-kernel calls (recorded under
    ``lb.chunk_prefilter``), then replays the best-so-far scan against
    them with unchanged decisions.  ``lb.invocations`` counts logical
    stage evaluations either way: one per stage reached per candidate.
    """

    def __init__(
        self,
        candidates: Sequence[Sequence[float]],
        band: int,
        share_exact: bool = False,
        runtime: Optional[Runtime] = None,
        candidate_envelopes: Optional[Tuple[Sequence, Sequence]] = None,
    ):
        if band < 0:
            raise ValueError("band must be non-negative")
        if not candidates:
            raise ValueError("no candidates to search")
        rt = Runtime.resolve(runtime).serial()
        # pin the backend now: every query must use the backend in
        # effect at construction, even if the process default changes
        self.runtime = rt = rt.replace(backend=rt.backend_name)
        self.band = band
        self._held = isinstance(candidates, (list, tuple))
        self.candidates = (
            list(candidates) if self._held else candidates
        )
        first = self.candidates[0]
        self.length = len(first)
        if self._held and any(
            len(c) != self.length for c in self.candidates
        ):
            raise ValueError("cascade requires equal-length candidates")
        self.dims = (
            len(first[0]) if len(first) and hasattr(first[0], "__len__")
            else None
        )
        # Rounding allowance of the bound stages.  In exact arithmetic
        # no bound exceeds the distance it bounds, but a bound adds its
        # terms in another order than the DP: LB_Kim adds both corners
        # first, and the summed nd bounds add channel by channel where
        # the DP adds sample by sample.  Each bound term is at most a
        # DP term, and every term is non-negative, so a sum of k terms
        # lies within a factor 1 +- k * u of the exact sum (u = 2**-53):
        # k <= n * dims for a bound, (2n - 1) * dims for a path.  A
        # bound thus rounds at most a factor 1 + 3 * n * dims * u above
        # the completed distance, inside the 1 + 4 * n * dims * u used
        # here.  A bound one ulp above a tied candidate's distance
        # would otherwise prune it, and a best-first scan would return
        # a later index than the in-order scan's first-wins winner.
        self._rounding = 4.0 * self.length * (self.dims or 1) * 2.0 ** -53
        self._stages = _pick_stages(band, self.dims, rt)
        self._vectorised = rt.kernels().name != "python"
        self._stack = None
        self._cache: Optional[Dict[int, Dict[int, float]]] = (
            {} if share_exact else None
        )
        self._provided = candidate_envelopes is not None
        self._envelopes = (
            self._stored(candidate_envelopes) if self._provided
            else [None] * len(self.candidates) if self._held
            else None
        )

    def _stored(self, provided) -> list:
        """Precomputed envelopes in the form the bound stages take."""
        count = len(self.candidates)
        if self.dims is not None:
            envs = [tuple(e) for e in provided]
            if len(envs) != count:
                raise ValueError(
                    "candidate_envelopes must cover every candidate"
                )
            return envs
        up, lo = provided
        if len(up) != count or len(lo) != count:
            raise ValueError("candidate_envelopes must cover every candidate")
        if self._vectorised:
            import numpy as np

            up = np.ascontiguousarray(up, dtype=np.float64)
            lo = np.ascontiguousarray(lo, dtype=np.float64)
        return [Envelope(self.band, u, v) for u, v in zip(up, lo)]

    def scan(
        self,
        query: Sequence[float],
        query_index: Optional[int] = None,
        on_close: Optional[Callable[[CascadeScan], None]] = None,
    ) -> CascadeScan:
        """A candidate-at-a-time view for callers that drive their own
        loop (see :class:`CascadeScan`).  ``query_index`` declares that
        ``query`` *is* candidate ``query_index``; ``on_close`` runs
        once when the scan is closed."""
        return CascadeScan(self, query, query_index, on_close)

    def nearest(
        self,
        query: Sequence[float],
        query_index: Optional[int] = None,
        exclude: Optional[int] = None,
    ) -> BatchNearest:
        """Exact nearest candidate to ``query`` (see the class notes).

        ``query_index`` declares a self-join membership (``query`` is
        ``candidates[query_index]``): its envelope is reused and, when
        the batch was built with ``share_exact=True``, its exact
        distances feed the symmetric cache.  ``exclude`` skips one
        candidate index (leave-one-out); an index outside the
        candidates is a ``ValueError``.
        """
        count = len(self.candidates)
        if exclude is not None and not 0 <= exclude < count:
            raise ValueError(
                f"exclude={exclude} is not a candidate index "
                f"(0..{count - 1})"
            )
        admissible = [j for j in range(count) if j != exclude]
        if not admissible:
            raise ValueError("no candidates to search")
        scan = self.scan(query, query_index)
        kims, keoghs = self._prefilter(scan)
        if self._held:
            if kims is None:
                kims = [
                    self._stages.kim(scan.query, c)
                    for c in self.candidates
                ]
            # cheapest bound first; ties by original position keep the
            # scan deterministic
            order = sorted(admissible, key=lambda j: (kims[j], j))
        else:
            order = admissible

        best, best_idx = inf, -1
        known: Optional[Dict[int, float]] = None
        if self._cache is not None and query_index is not None:
            known = self._cache.setdefault(query_index, {})
            for j, d in known.items():
                # every cached value is an exact distance, hence a
                # valid threshold; seeding cannot change the winner
                # because the seeded candidate is rescanned below
                if j == exclude:
                    continue
                if d < best or (d == best and (best_idx < 0 or j < best_idx)):
                    best, best_idx = d, j

        for j in order:
            d = known.get(j) if known is not None else None
            if d is not None:
                scan.stats.candidates += 1
                scan.stats.reused_exact += 1
                _obs.incr("lb.candidates")
                _obs.incr("lb.reused_exact")
            else:
                d = scan._evaluate(
                    j, best,
                    None if kims is None else kims[j],
                    None if keoghs is None else keoghs[j],
                )
                if d != inf and known is not None:
                    known[j] = d
                    self._cache.setdefault(j, {})[query_index] = d
            # smallest original index among the equally nearest: the
            # first-wins winner of the in-order serial scan
            if d < best or (d == best and (best_idx < 0 or j < best_idx)):
                best, best_idx = d, j
        if best_idx < 0:
            # all infinite distances (possible only with inf inputs);
            # fall back to the first admissible candidate
            best_idx = admissible[0]
            best = self._stages.exact(
                scan.query, scan.envelope, self.candidates[best_idx], inf,
            ).distance
        return BatchNearest(
            index=best_idx, distance=best, stats=scan.stats,
            artifacts_reused=scan.artifacts_reused,
        )

    def _prefilter(self, scan: CascadeScan):
        """Full Kim and Keogh bounds for every candidate, from two
        stacked kernel calls -- on vectorised backends over held
        univariate candidates only; ``(None, None)`` otherwise."""
        if not (self._vectorised and self.dims is None and self._held):
            return None, None
        kernels = self.runtime.kernels()
        if self._stack is None:
            import numpy as np

            self._stack = np.ascontiguousarray(
                self.candidates, dtype=np.float64
            )
        _obs.incr("lb.chunk_prefilter")
        kims = kernels.lb_kim(scan.query, self._stack)
        _obs.incr("lb.chunk_prefilter")
        keoghs = kernels.lb_keogh_chunk(
            scan.envelope.upper, scan.envelope.lower, self._stack,
        )
        return kims.tolist(), keoghs.tolist()
