"""Ahead-of-time artifacts for repeated cDTW search.

The paper's repeated-use argument (Section 3.4) is an amortisation
argument: banding, lower bounds and early abandoning pay off because
their per-dataset setup is done *once* and reused across thousands of
queries.  Yet the query paths in this package recompute that setup --
z-normalised windows, Keogh envelopes, endpoint features -- on every
call.  :class:`DatasetIndex` moves the setup ahead of time:

* :func:`build_index` snapshots a series *collection* (1-NN search,
  k-NN classification, LOOCV);
* :func:`build_stream_index` snapshots the sliding windows of a long
  *stream* (subsequence search, discords, motifs);

both precompute, per series, the band-``r`` Keogh envelope (through
the same ``envelope_chunk`` kernels the live path uses -- envelope
values are pure selections, so they are bit-identical on every
backend), the LB_Kim endpoint features, and the normalisation moments
(mean, std) of the raw values.  The index is keyed by the shared-memory
layer's blake2b content fingerprint of the **source bytes**: a loaded
index can prove, via :meth:`DatasetIndex.verify_collection` /
:meth:`DatasetIndex.verify_stream`, that it was built from exactly the
data a caller is about to search.  Persistence lives in
:mod:`repro.index.storage`; the query driver in
:mod:`repro.index.search`.

Consumers (``nearest_neighbor``, ``subsequence_search``, ``knn``,
``find_discord``, ``find_motif``) accept the index as an opaque
``index=`` argument and only ever call its methods -- the source-scan
test suite forbids them from naming this module's constructors, so the
index internals stay private to ``repro.index``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import Optional, Sequence, Tuple

from ..batch.shm import dataset_dims, pack_dataset
from ..core.validate import validate_series
from ..lowerbounds.envelope import Envelope
from ..preprocess.normalize import znorm, znorm_nd
from ..preprocess.sliding import sliding_windows
from ..runtime import Runtime

__all__ = [
    "DatasetIndex",
    "IndexMismatchError",
    "build_index",
    "build_stream_index",
]

KINDS = ("collection", "windows")


class IndexMismatchError(ValueError):
    """A :class:`DatasetIndex` does not match what a caller expects.

    Raised when an index's fingerprint disagrees with the bytes it is
    asked to serve, or when its build parameters (kind, band, window,
    step, normalisation) differ from a query's.  Subclasses
    ``ValueError`` so pre-index error handling keeps working.
    """


@dataclass(frozen=True)
class DatasetIndex:
    """Precomputed per-series search artifacts (see the module notes).

    Attributes
    ----------
    kind:
        ``"collection"`` (a set of whole series) or ``"windows"``
        (the sliding windows of one stream).
    band:
        Sakoe-Chiba half-width the envelopes were built with; queries
        must use the same band.
    normalize:
        Whether the stored series are z-normalised views of the
        source.  Collection indexes default to ``False`` (1-NN search
        compares raw series); window indexes to ``True`` (subsequence
        search z-normalises every window).
    step, window:
        Window stride and length (``windows`` kind; a collection
        records ``step=1`` and ``window = len(series[0])``).
    starts:
        Stream offset of every stored window (empty for collections).
    source_fingerprint:
        blake2b content fingerprint (:func:`repro.batch.shm.
        pack_dataset`) of the **source** -- the raw series collection,
        or the one-series stream -- proving which bytes the index
        describes.
    series:
        The prepared (possibly z-normalised) series the search runs
        over, bit-identical to what the index-free path would build.
    upper, lower:
        Per-series band-``band`` Keogh envelopes of ``series``.
    kim:
        Per-series ``(first, last)`` endpoint features (the LB_Kim
        inputs).
    moments:
        Per-series, per-channel ``(mean, std)`` of the *raw* values,
        using the same formulas as
        :func:`repro.preprocess.normalize.znorm` (``std`` is stored
        as 0.0 for constant series, which znorm maps to all-zeros).
    dims:
        Sample dimensionality.  ``1`` is the univariate case (rows
        are plain series).  For multivariate collections every row --
        series, envelopes, kim features, moments -- is stored *flat*,
        sample-major: row ``i`` of ``series`` holds
        ``length * dims`` floats laid out
        ``(v[0][0], ..., v[0][dims-1], v[1][0], ...)``, ``kim`` holds
        the first and last sample (``2 * dims`` floats), ``moments``
        one ``(mean, std)`` pair per channel.
    """

    kind: str
    band: int
    normalize: bool
    step: int
    window: int
    starts: Tuple[int, ...]
    source_fingerprint: str
    series: Tuple[Tuple[float, ...], ...]
    upper: Tuple[Tuple[float, ...], ...]
    lower: Tuple[Tuple[float, ...], ...]
    kim: Tuple[Tuple[float, ...], ...]
    moments: Tuple[Tuple[float, ...], ...]
    dims: int = 1

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown index kind {self.kind!r}")
        if self.band < 0:
            raise ValueError("band must be non-negative")
        if self.dims < 1:
            raise ValueError("dims must be at least 1")
        if not self.series:
            raise ValueError("index holds no series")
        flat = len(self.series[0])
        if self.window * self.dims != flat:
            # the header's window field is what require(window=...)
            # checks a query's length against, so it must agree with
            # the stored series -- otherwise a query of the "right"
            # window length would reuse envelopes of a different
            # length (silently wrong bounds)
            raise ValueError(
                f"stored series hold {flat} values but the header "
                f"claims window={self.window} x dims={self.dims}"
            )
        for block_name in ("series", "upper", "lower"):
            block = getattr(self, block_name)
            if len(block) != len(self.series) or any(
                len(row) != flat for row in block
            ):
                raise ValueError(f"ragged index block {block_name!r}")
        if len(self.kim) != len(self.series) or any(
            len(row) != 2 * self.dims for row in self.kim
        ):
            raise ValueError("kim features do not cover every series")
        if len(self.moments) != len(self.series) or any(
            len(row) != 2 * self.dims for row in self.moments
        ):
            raise ValueError("moments do not cover every series")
        if self.kind == "windows":
            if len(self.starts) != len(self.series):
                raise ValueError("starts do not cover every window")
            if any(
                b - a != self.step
                for a, b in zip(self.starts, self.starts[1:])
            ):
                raise ValueError(
                    "window starts must advance by exactly step"
                )
        elif self.starts:
            raise ValueError("collection indexes carry no starts")

    def __len__(self) -> int:
        return len(self.series)

    @property
    def length(self) -> int:
        """Length (sample count) of every stored series."""
        return len(self.series[0]) // self.dims

    def _vectors(self, row: Sequence[float]) -> Tuple[Tuple[float, ...], ...]:
        """Regroup one flat sample-major row into ``dims``-tuples."""
        d = self.dims
        return tuple(
            tuple(row[i:i + d]) for i in range(0, len(row), d)
        )

    def candidate_series(self):
        """The stored series in the shape search consumers feed to the
        cascade: flat rows when univariate, ``(length, dims)`` nested
        rows when multivariate."""
        if self.dims == 1:
            return self.series
        return tuple(self._vectors(row) for row in self.series)

    def envelope(self, index: int):
        """The stored Keogh envelope of one series: an
        :class:`~repro.lowerbounds.envelope.Envelope` when univariate,
        the per-channel tuple of them (``envelopes_nd`` form) when
        multivariate."""
        if self.dims == 1:
            return Envelope(
                self.band, list(self.upper[index]), list(self.lower[index])
            )
        up, lo = self.upper[index], self.lower[index]
        return tuple(
            Envelope(self.band, list(up[k::self.dims]), list(lo[k::self.dims]))
            for k in range(self.dims)
        )

    def candidate_envelopes(self):
        """All envelopes in the form the cascade batch driver consumes:
        ``(upper, lower)`` stacks when univariate, one per-channel
        :class:`Envelope` tuple per candidate when multivariate."""
        if self.dims == 1:
            return self.upper, self.lower
        return tuple(self.envelope(i) for i in range(len(self)))

    # ------------------------------------------------------------------
    # verification: an index must *prove* it matches the caller's data
    # ------------------------------------------------------------------

    def require(self, **expected) -> "DatasetIndex":
        """Check build parameters against a query's, chainable.

        ``index.require(kind="windows", band=5, window=32)`` raises
        :class:`IndexMismatchError` naming the first differing field.
        Recognised keys: ``kind``, ``band``, ``normalize``, ``step``,
        ``window``, ``length``, ``count``, ``dims``.
        """
        actual = {
            "kind": self.kind,
            "band": self.band,
            "normalize": self.normalize,
            "step": self.step,
            "window": self.window,
            "length": self.length,
            "count": len(self),
            "dims": self.dims,
        }
        for key, want in expected.items():
            if key not in actual:
                raise TypeError(f"unknown index requirement {key!r}")
            if want is not None and actual[key] != want:
                raise IndexMismatchError(
                    f"index {key} is {actual[key]!r} but the query "
                    f"needs {want!r}; rebuild the index with matching "
                    f"parameters"
                )
        return self

    def verify_collection(
        self, series: Sequence[Sequence[float]]
    ) -> "DatasetIndex":
        """Prove this index was built from exactly ``series``.

        Recomputes the blake2b content fingerprint of the candidate
        collection and compares it to the recorded source
        fingerprint; raises :class:`IndexMismatchError` on any
        difference (one mutated sample is enough to change the hash).
        """
        self.require(kind="collection")
        _, _, fingerprint = pack_dataset(series)
        if fingerprint != self.source_fingerprint:
            raise IndexMismatchError(
                "index fingerprint mismatch: this index was built from "
                f"source {self.source_fingerprint} but the candidates "
                f"hash to {fingerprint}; it does not describe these "
                "series"
            )
        return self

    def verify_stream(self, stream: Sequence[float]) -> "DatasetIndex":
        """Prove this index was built from exactly ``stream``."""
        self.require(kind="windows")
        _, _, fingerprint = pack_dataset([stream])
        if fingerprint != self.source_fingerprint:
            raise IndexMismatchError(
                "index fingerprint mismatch: this index was built from "
                f"source {self.source_fingerprint} but the stream "
                f"hashes to {fingerprint}; it does not describe this "
                "stream"
            )
        return self

    # ------------------------------------------------------------------
    # consumption
    # ------------------------------------------------------------------

    def searcher(
        self,
        runtime: Optional[Runtime] = None,
        share_exact: bool = False,
    ):
        """An :class:`~repro.index.search.IndexSearcher` over this
        index (the object consumers drive; see its docs)."""
        from .search import IndexSearcher

        return IndexSearcher(
            self, runtime=runtime, share_exact=share_exact,
        )

    def describe(self) -> dict:
        """JSON-friendly summary (the ``index stat`` CLI output)."""
        return {
            "kind": self.kind,
            "band": self.band,
            "normalize": self.normalize,
            "step": self.step,
            "window": self.window,
            "count": len(self),
            "length": self.length,
            "dims": self.dims,
            "source_fingerprint": self.source_fingerprint,
            "artifacts": ["series", "upper", "lower", "kim", "moments"],
        }


def _moments(raw: Sequence[float], epsilon: float = 1e-12) -> Tuple[float, float]:
    """(mean, std) with :func:`znorm`'s formulas; 0.0 std when constant."""
    n = len(raw)
    mean = sum(raw) / n
    var = sum((v - mean) ** 2 for v in raw) / n
    std = sqrt(var)
    return (mean, 0.0 if std < epsilon else std)


def _moments_nd(raw: Sequence[Sequence[float]]) -> Tuple[float, ...]:
    """Per-channel (mean, std) pairs of one nd series, channel-major
    (matching :func:`znorm_nd`'s per-axis statistics)."""
    dims = len(raw[0])
    out = []
    for k in range(dims):
        out.extend(_moments([float(v[k]) for v in raw]))
    return tuple(out)


def index_dims(dims: Optional[int], what: str) -> int:
    """The ``dims`` an index records for a dataset of sample width
    ``dims`` (:func:`~repro.batch.shm.dataset_dims`).

    An index records univariate data as ``dims=1``, so ``(length, 1)``
    vector samples could not round-trip: they are refused here, with
    the fix named, rather than failing later in arithmetic.
    """
    if dims is None:
        return 1
    if dims == 1:
        raise ValueError(
            f"{what} is shaped (length, 1); an index stores one-channel "
            "data as flat series, so pass one float per sample instead "
            "of 1-component vectors"
        )
    return dims


def _row(row) -> Tuple[float, ...]:
    """One ``(n,)`` row as floats."""
    return tuple(float(v) for v in row)


def _flat(row) -> Tuple[float, ...]:
    """One ``(n, dims)`` row flattened sample-major."""
    return tuple(float(c) for v in row for c in v)


def _assemble(
    kind: str,
    band: int,
    normalize: bool,
    step: int,
    window: int,
    starts: Sequence[int],
    source_fingerprint: str,
    prepared: Sequence[Sequence[float]],
    raw: Sequence[Sequence[float]],
    runtime: Optional[Runtime],
    dims: int = 1,
) -> DatasetIndex:
    rt = Runtime.resolve(runtime).serial()
    # one kernel for both shapes: multivariate envelopes come back
    # per channel, sample-major (chunk, n, dims), exactly the layout
    # the flat rows persist
    upper, lower = rt.kernels().envelope_chunk(prepared, band)
    flat, moments = (_row, _moments) if dims == 1 else (_flat, _moments_nd)
    return DatasetIndex(
        kind=kind,
        band=band,
        normalize=normalize,
        step=step,
        window=window,
        starts=tuple(int(s) for s in starts),
        source_fingerprint=source_fingerprint,
        series=tuple(flat(s) for s in prepared),
        upper=tuple(flat(row) for row in upper),
        lower=tuple(flat(row) for row in lower),
        kim=tuple(flat((s[0], s[-1])) for s in prepared),
        moments=tuple(moments(s) for s in raw),
        dims=dims,
    )


def build_index(
    series: Sequence[Sequence[float]],
    band: int,
    normalize: bool = False,
    runtime: Optional[Runtime] = None,
) -> DatasetIndex:
    """Index a collection of equal-length series for repeated 1-NN.

    ``normalize`` defaults to ``False`` because the 1-NN consumers
    (:func:`repro.search.nearest_neighbor`, the classifiers) compare
    candidates exactly as given; an index built with ``True`` stores
    the z-normalised views instead and only suits callers that search
    normalised space explicitly.

    The envelopes come from the runtime's ``envelope_chunk`` kernel;
    their values are pure sliding-extreme selections, hence
    bit-identical across backends, so the *same index file* serves
    every backend.

    Multivariate ``(length, dims)`` collections index transparently:
    per-channel envelopes and moments are stored (``znorm_nd`` when
    normalising), and the resulting index serves the multivariate
    cascade (``cdtw_d`` / ``cdtw_i`` search).
    """
    if band < 0:
        raise ValueError("band must be non-negative")
    if not series:
        raise ValueError("cannot index an empty collection")
    lengths = {len(s) for s in series}
    if len(lengths) != 1:
        raise ValueError(
            f"collection index requires equal-length series, got "
            f"lengths {sorted(lengths)}"
        )
    n = lengths.pop()
    if n == 0:
        raise ValueError("cannot index empty series")
    for i, s in enumerate(series):
        validate_series(s, f"series[{i}]")
    dims = index_dims(dataset_dims(series), "collection")
    _, _, fingerprint = pack_dataset(series)
    if dims == 1:
        raw = [list(s) for s in series]
        prepared = [znorm(s) if normalize else list(s) for s in raw]
    else:
        raw = [
            [tuple(float(c) for c in v) for v in s] for s in series
        ]
        prepared = [
            znorm_nd(s) if normalize else list(s) for s in raw
        ]
    return _assemble(
        kind="collection", band=band, normalize=normalize, step=1,
        window=n, starts=(), source_fingerprint=fingerprint,
        prepared=prepared, raw=raw, runtime=runtime, dims=dims,
    )


def build_stream_index(
    stream: Sequence[float],
    window: int,
    band: int,
    step: int = 1,
    normalize: bool = True,
    runtime: Optional[Runtime] = None,
) -> DatasetIndex:
    """Index the sliding windows of a stream for repeated search.

    Stores exactly the windows the index-free subsequence / discord /
    motif scans would materialise -- same offsets
    (:func:`repro.preprocess.sliding.sliding_windows` with this
    ``step``), same per-window :func:`znorm` when ``normalize`` --
    plus each window's envelope, endpoint features and raw moments.
    """
    if band < 0:
        raise ValueError("band must be non-negative")
    if window < 1 or step < 1:
        raise ValueError("window and step must be positive")
    validate_series(stream, "stream")
    if len(stream) < window:
        raise ValueError("stream shorter than window")
    dims = index_dims(dataset_dims([stream]), "stream")
    _, _, fingerprint = pack_dataset([stream])
    starts = []
    raw = []
    prepared = []
    for start, w in sliding_windows(stream, window, step):
        starts.append(start)
        if dims == 1:
            raw.append(w)
            prepared.append(znorm(w) if normalize else list(w))
        else:
            vw = [tuple(float(c) for c in v) for v in w]
            raw.append(vw)
            prepared.append(znorm_nd(vw) if normalize else list(vw))
    return _assemble(
        kind="windows", band=band, normalize=normalize, step=step,
        window=window, starts=starts, source_fingerprint=fingerprint,
        prepared=prepared, raw=raw, runtime=runtime, dims=dims,
    )
