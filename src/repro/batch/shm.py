"""Zero-copy dataset shipping over POSIX shared memory.

An executor in inline mode ships the entire series set through
every pool initializer, and the one-job pool the batch engine builds
for a ``workers=N`` call does so once per *call* -- exactly the
amortisation failure the paper's repeated-use discussion warns
about.  This module ships a series set **once** per dataset instead:

* :func:`pack_dataset` flattens the series into one contiguous
  little-endian ``float64`` buffer plus an offsets table, and hashes
  the packed bytes into a content **fingerprint** -- the key under
  which executors and workers cache the dataset.  Two calls over the
  same values (even via different list objects) resolve to the same
  fingerprint; a single mutated sample changes it, so a stale segment
  can never be served for fresh data.
* :class:`ShmDataset` (parent side) copies the packed buffer into a
  :class:`multiprocessing.shared_memory.SharedMemory` segment and
  hands out a small picklable *descriptor* (fingerprint, segment
  name, per-series lengths) -- the only thing that ever crosses the
  process boundary per task.
* :class:`AttachedDataset` (worker side) maps the segment and reads
  series straight out of it -- ``memoryview.cast('d')`` (or
  ``np.frombuffer``) views, no copy on attach.  The pure-Python DP
  wants built-in floats, so each series is materialised with
  ``tolist()`` at most once per worker per dataset (bit-exact: the
  buffer holds IEEE doubles).

Everything here is stdlib-only; NumPy is used opportunistically for
the zero-copy array views.  When shared memory is unavailable the
executor falls back to tuple-of-tuples shipping (see
:mod:`repro.batch.executor`) -- same fingerprints, same semantics.

Resource-tracker hygiene: on CPython < 3.13 merely *attaching* a
segment registers it with the attaching process's resource tracker,
so a dying worker would unlink a segment its parent still owns (and
spam leak warnings).  :class:`AttachedDataset` therefore suppresses
the registration while attaching (see :class:`_suppress_tracking`);
only the creating executor ever unlinks.
"""

from __future__ import annotations

import hashlib
import os
from array import array
from typing import List, Optional, Sequence, Tuple

try:  # pragma: no cover - import guard exercised via shm_available()
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - ancient/embedded pythons
    _shared_memory = None

#: Descriptor tuple shape: ``(kind, fingerprint, segment_name, lengths)``
#: for univariate datasets; multivariate descriptors append the sample
#: dimensionality as a fifth element (old readers, which unpack exactly
#: four, fail loudly on them instead of misreading the buffer).
ShmDescriptor = Tuple[str, str, str, Tuple[int, ...]]


def shm_available() -> bool:
    """Can this interpreter create shared-memory segments?"""
    return _shared_memory is not None


def fingerprint_bytes(
    payload: bytes, lengths: Sequence[int], dims: Optional[int] = None,
) -> str:
    """Content hash of a packed buffer + its offsets table.

    ``dims`` is ``None`` for univariate datasets (the historical
    preamble, byte-for-byte) and the sample dimensionality for
    multivariate ones -- a distinct preamble, so an nd dataset can
    never collide with the univariate dataset of its flattened values.
    """
    h = hashlib.blake2b(digest_size=16)
    if dims is None:
        h.update(repr(tuple(lengths)).encode())
    else:
        h.update(repr(("nd", dims, tuple(lengths))).encode())
    h.update(payload)
    return h.hexdigest()


def dataset_dims(series: Sequence[Sequence[float]]) -> Optional[int]:
    """The shared sample dimensionality of a dataset.

    ``None`` when every series is univariate (scalar samples); the
    common ``dims >= 1`` when every series is multivariate (samples
    are equal-length tuples/lists -- shape ``(length, dims)``).  A mix
    of the two, or differing dimensionalities, is always a caller bug
    and raises.
    """
    dims: Optional[int] = None
    first_vector = False
    for i, s in enumerate(series):
        if len(s) == 0:
            raise ValueError(f"series {i} is empty")
        vector = isinstance(s[0], (tuple, list))
        if i == 0:
            first_vector = vector
            dims = len(s[0]) if vector else None
        elif vector != first_vector:
            raise ValueError(
                f"series {i} is {'multivariate' if vector else 'univariate'} "
                f"but series 0 is {'multivariate' if first_vector else 'univariate'}; "
                "a dataset must be all-scalar or all (length, dims)"
            )
        elif vector and len(s[0]) != dims:
            raise ValueError(
                f"series {i} has {len(s[0])}-dimensional samples but "
                f"series 0 has {dims}-dimensional samples"
            )
    return dims


def pack_dataset(
    series: Sequence[Sequence[float]],
) -> Tuple[bytes, Tuple[int, ...], str]:
    """Flatten a series set into ``(payload, lengths, fingerprint)``.

    The payload is the concatenation of every series as native
    ``float64``; ``lengths`` recovers the per-series boundaries.  The
    fingerprint hashes both, so datasets differing only in how the
    same values are split into series hash differently.

    Multivariate series (samples are equal-length vectors) flatten
    sample-major -- series ``[(x0, y0), (x1, y1)]`` packs as
    ``x0 y0 x1 y1`` -- with ``lengths`` still counting *samples*, and
    the fingerprint carries the dimensionality (see
    :func:`fingerprint_bytes`); univariate payloads and fingerprints
    are byte-for-byte what they always were.

    >>> payload, lengths, fp = pack_dataset([(0.0, 1.0), (2.0,)])
    >>> lengths
    (2, 1)
    >>> len(payload)
    24
    >>> fp == pack_dataset([[0.0, 1.0], [2.0]])[2]
    True
    >>> nd_payload, nd_lengths, nd_fp = pack_dataset([[(0.0, 1.0)], [(2.0, 3.0)]])
    >>> nd_lengths
    (1, 1)
    >>> len(nd_payload)
    32
    >>> nd_fp == pack_dataset([[0.0, 1.0], [2.0, 3.0]])[2]
    False
    """
    dims = dataset_dims(series)
    flat = array("d")
    lengths: List[int] = []
    if dims is None:
        for s in series:
            flat.extend(s)
            lengths.append(len(s))
    else:
        for s in series:
            for v in s:
                flat.extend(v)
            lengths.append(len(s))
    if flat.itemsize != 8:  # pragma: no cover - no such platform today
        raise RuntimeError("array('d') is not 64-bit on this platform")
    payload = flat.tobytes()
    return payload, tuple(lengths), fingerprint_bytes(payload, lengths,
                                                      dims=dims)


def _offsets(lengths: Sequence[int]) -> List[Tuple[int, int]]:
    """Per-series ``(start, stop)`` element offsets into the buffer."""
    out, pos = [], 0
    for n in lengths:
        out.append((pos, pos + n))
        pos += n
    return out


class _suppress_tracking:
    """Block resource-tracker registration while *attaching*.

    On CPython < 3.13 ``SharedMemory(name=...)`` registers the segment
    with the attaching process's resource tracker exactly as a create
    does, so a dying worker would unlink a segment its parent still
    owns.  Unregistering after the fact is not enough either: the
    tracker's per-type cache is a set, so two workers registering and
    then unregistering the same name race into a spurious ``KeyError``
    inside the tracker process.  Suppressing the registration at its
    source avoids both failure modes; only the creating executor is
    ever tracked.  Best-effort: if tracker internals move, attaching
    still works and the only downside is a spurious leak warning.
    """

    def __enter__(self):
        try:
            from multiprocessing import resource_tracker

            self._tracker = resource_tracker
            self._register = resource_tracker.register
            resource_tracker.register = lambda *a, **k: None
        except Exception:  # pragma: no cover - exotic platforms
            self._tracker = None
        return self

    def __exit__(self, *exc):
        if self._tracker is not None:
            self._tracker.register = self._register
        return False


class ShmDataset:
    """Parent-side handle on one shipped dataset.

    Creates the segment, copies the packed payload in, and owns the
    unlink.  ``close()`` is idempotent and both closes the local
    mapping and unlinks the segment name from the system.
    """

    def __init__(self, payload: bytes, lengths: Tuple[int, ...],
                 fingerprint: str, dims: Optional[int] = None):
        if _shared_memory is None:
            raise RuntimeError("multiprocessing.shared_memory unavailable")
        if not payload:
            # zero-length segments are rejected by the OS; a dataset of
            # empty series cannot reach here (validation rejects them)
            raise ValueError("cannot ship an empty dataset")
        self.fingerprint = fingerprint
        self.lengths = lengths
        self.dims = dims
        self.nbytes = len(payload)
        self._shm = _shared_memory.SharedMemory(create=True,
                                                size=len(payload))
        self._shm.buf[: len(payload)] = payload
        self.name = self._shm.name
        self._owner_pid = os.getpid()
        self._closed = False

    def descriptor(self) -> ShmDescriptor:
        """The picklable per-task reference to this dataset.

        Univariate datasets keep the historical 4-tuple; multivariate
        ones append ``dims``, so a reader that unpacks exactly four
        elements fails loudly instead of misreading an nd buffer.
        """
        if self.dims is None:
            return ("shm", self.fingerprint, self.name, self.lengths)
        return ("shm", self.fingerprint, self.name, self.lengths,
                self.dims)

    def close(self) -> None:
        """Close the mapping and unlink the segment (idempotent).

        Only the creating *process* unlinks: a forked child that
        inherited this handle (e.g. through an executor's dataset
        registry) merely detaches its copy of the mapping, so the
        parent's live segment cannot be unlinked out from under it
        when the child's globals are garbage collected.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self._shm.close()
        finally:
            if os.getpid() == self._owner_pid:
                try:
                    self._shm.unlink()
                except FileNotFoundError:  # pragma: no cover - gone
                    pass

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass


class AttachedDataset:
    """Worker-side view of a shipped dataset.

    Attaches by segment name, immediately unregisters from the local
    resource tracker (see module docstring), and serves series as:

    * :meth:`series` -- built-in ``float`` lists, materialised lazily
      and memoized (what the pure-Python DP engine wants);
    * :meth:`arrays` -- zero-copy ``np.frombuffer`` views when NumPy
      is importable (what vectorised consumers want).
    """

    def __init__(self, descriptor: ShmDescriptor):
        if len(descriptor) == 4:
            kind, fingerprint, name, lengths = descriptor
            dims: Optional[int] = None
        else:
            kind, fingerprint, name, lengths, dims = descriptor
        if kind != "shm":
            raise ValueError(f"not an shm descriptor: {kind!r}")
        if _shared_memory is None:
            raise RuntimeError("multiprocessing.shared_memory unavailable")
        self.fingerprint = fingerprint
        self.lengths = tuple(lengths)
        self.dims = dims
        with _suppress_tracking():
            self._shm = _shared_memory.SharedMemory(name=name)
        count = sum(self.lengths) * (1 if dims is None else dims)
        self._view = memoryview(self._shm.buf)[: count * 8].cast("d")
        # element offsets: ``lengths`` counts samples, the buffer
        # holds ``dims`` doubles per sample (sample-major)
        scale = 1 if dims is None else dims
        self._bounds = [
            (a * scale, b * scale) for a, b in _offsets(self.lengths)
        ]
        self._series: Optional[Tuple[List[float], ...]] = None
        self._closed = False

    def series(self) -> Tuple[List[float], ...]:
        """All series as built-in floats (computed once).

        Univariate: a list of floats per series.  Multivariate: a list
        of ``dims``-tuples per series (sample-major, bit-exact).
        """
        if self._series is None:
            if self.dims is None:
                self._series = tuple(
                    self._view[a:b].tolist() for a, b in self._bounds
                )
            else:
                d = self.dims
                out = []
                for a, b in self._bounds:
                    flat = self._view[a:b].tolist()
                    out.append([
                        tuple(flat[i:i + d])
                        for i in range(0, len(flat), d)
                    ])
                self._series = tuple(out)
        return self._series

    def arrays(self):
        """Zero-copy ``float64`` array views, one per series.

        Requires NumPy; raises ``ImportError`` otherwise.  The views
        alias the shared segment -- treat them as read-only.
        Multivariate series come back as ``(length, dims)`` views.
        """
        import numpy as np

        count = sum(self.lengths) * (1 if self.dims is None else self.dims)
        base = np.frombuffer(self._shm.buf, dtype=np.float64, count=count)
        if self.dims is None:
            return tuple(base[a:b] for a, b in self._bounds)
        return tuple(
            base[a:b].reshape(-1, self.dims) for a, b in self._bounds
        )

    def close(self) -> None:
        """Release the local mapping (never unlinks -- parent owns)."""
        if self._closed:
            return
        self._closed = True
        self._series = None
        self._view.release()
        self._shm.close()

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass


class InlineDataset:
    """Tuple-of-tuples fallback used when shared memory is off.

    Shipped through the pool initializer (once per pool, not once per
    task); presents the same access surface as :class:`AttachedDataset`
    so worker code is mode-blind.
    """

    def __init__(self, series: Sequence[Sequence[float]],
                 fingerprint: str):
        self.fingerprint = fingerprint
        self.lengths = tuple(len(s) for s in series)
        self.dims = dataset_dims(series)
        self._series = tuple(list(s) for s in series)

    def series(self) -> Tuple[List[float], ...]:
        return self._series

    def close(self) -> None:  # symmetry with AttachedDataset
        pass
