"""No consumer module resolves an execution knob on its own.

The refactor's invariant: backend, worker-count and executor
resolution live in exactly one place (`repro.runtime`, with the batch
engine and the kernel registry as the substrates underneath it).  A
consumer that calls `resolve_backend` / `get_kernels` /
`default_executor`, counts CPUs, or re-derives "am I parallel?" from
`workers > 1` has grown a private knob again.  This scan tokenises
each consumer module and fails on any such code token -- strings and
comments are exempt, so docs may still *explain* the machinery.
"""

from __future__ import annotations

import io
import tokenize
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent

# every module refactored onto Runtime; engine/kernels/executor are
# the substrates and repro.runtime is the resolver -- all deliberately
# absent from this list
CONSUMER_MODULES = (
    "core/matrix.py",
    "lowerbounds/cascade.py",
    "search/cumulative.py",
    "search/nn_search.py",
    "search/subsequence.py",
    "classify/knn.py",
    "classify/loocv.py",
    "classify/learned_band.py",
    "cluster/linkage.py",
    "cluster/dba.py",
    "cluster/kmeans.py",
    "anomaly/discord.py",
    "motifs/discovery.py",
    "index/dataset_index.py",
    "index/search.py",
    "index/bench.py",
)

# modules that accept an ahead-of-time index as an opaque ``index=``
# argument; they may only *call its methods*, never construct or load
# index internals themselves -- otherwise the fingerprint-verification
# gate could be bypassed by a consumer building its own stale copy.
# They do construct the one cascade (``CascadeBatch``) for their
# index-free route, but never inject artifacts into it: the
# ``candidate_envelopes`` / ``query_envelope`` keywords are reserved
# for the fingerprint-verified ``IndexSearcher`` (index/search.py)
INDEX_CONSUMER_MODULES = (
    "search/nn_search.py",
    "search/subsequence.py",
    "classify/knn.py",
    "classify/loocv.py",
    "anomaly/discord.py",
    "motifs/discovery.py",
)

FORBIDDEN_INDEX_NAMES = frozenset(
    {
        "DatasetIndex",
        "IndexSearcher",
        "build_index",
        "build_stream_index",
        "load_index",
        "save_index",
        "candidate_envelopes",
        "query_envelope",
    }
)

# single-name tokens a consumer must never use in code
FORBIDDEN_NAMES = frozenset(
    {
        "resolve_backend",
        "resolve_executor",
        "get_kernels",
        "default_executor",
        "cpu_count",
    }
)

# multi-token knob re-derivations (normalised to single spaces)
FORBIDDEN_PHRASES = (
    "workers > 1",
    "executor is not None",
)

SKIP_TYPES = {
    tokenize.STRING,
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
}


def _code_tokens(path: Path):
    with open(path, "rb") as handle:
        for tok in tokenize.tokenize(handle.readline):
            if tok.type not in SKIP_TYPES:
                yield tok


@pytest.mark.parametrize("module", CONSUMER_MODULES)
def test_module_exists(module):
    assert (SRC / module).is_file(), f"consumer list is stale: {module}"


@pytest.mark.parametrize("module", CONSUMER_MODULES)
def test_no_private_knob_resolution(module):
    offending = [
        (tok.start[0], tok.string)
        for tok in _code_tokens(SRC / module)
        if tok.type == tokenize.NAME and tok.string in FORBIDDEN_NAMES
    ]
    assert not offending, (
        f"{module} resolves an execution knob itself {offending}; "
        "route it through repro.runtime.Runtime instead"
    )


@pytest.mark.parametrize("module", CONSUMER_MODULES)
def test_no_rederived_parallel_checks(module):
    code = " ".join(t.string for t in _code_tokens(SRC / module))
    hits = [p for p in FORBIDDEN_PHRASES if p in code]
    assert not hits, (
        f"{module} re-derives the execution mode {hits}; "
        "use Runtime.parallel"
    )


def _index_internals(path: Path):
    return [
        (tok.start[0], tok.string)
        for tok in _code_tokens(path)
        if tok.type == tokenize.NAME
        and tok.string in FORBIDDEN_INDEX_NAMES
    ]


@pytest.mark.parametrize("module", INDEX_CONSUMER_MODULES)
def test_index_consumers_stay_duck_typed(module):
    offending = _index_internals(SRC / module)
    assert not offending, (
        f"{module} constructs index internals itself {offending}; "
        "consumers drive the opaque index= object's methods only"
    )


def test_the_scan_itself_catches_violations(tmp_path):
    victim = tmp_path / "mod.py"
    victim.write_text(
        '"""docstring saying resolve_backend is fine."""\n'
        "# comment: workers > 1 is fine too\n"
        "parallel = workers > 1\n"
        "# a stale copy's envelopes via candidate_envelopes= is caught\n"
        "cascade = CascadeBatch(series, band, candidate_envelopes=stale)\n"
    )
    code = " ".join(t.string for t in _code_tokens(victim))
    assert "workers > 1" in code
    assert "resolve_backend" not in code
    assert _index_internals(victim) == [(5, "candidate_envelopes")]
