"""Loading trace documents as simulator-ready workloads.

:class:`IngestedWorkload` adapts a validated
:class:`~repro.ingest.format.TraceDocument` to the ``Workload`` protocol:
each kernel reference becomes a :class:`~repro.workloads.trace.KernelLaunch`
whose trace function hands out :class:`~repro.workloads.trace.ColumnarCTATrace`
objects built straight from the stored columns — no pattern synthesis, no
RNG — so ingested traces ride the array walkers exactly like synthetic
ones.  Traces are materialized lazily and cached per trace set, and
kernels sharing a trace set share the cached objects, preserving the
cross-kernel locality (and the records ``fast_groups`` builds once per
trace and issue rate) that iterative workloads rely on.

The workload digest is the document's content hash
(``ingest:<name>|v1|sha256:<hash>``), so simulation results cached for an
ingested trace self-invalidate the moment the trace file's semantic
content changes — identical in spirit to config-digest invalidation.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from ..workloads.trace import ColumnarCTATrace, KernelLaunch, Workload
from .format import (
    TRACE_FORMAT_VERSION,
    TraceDocument,
    document_digest,
    is_write_column,
    validate_document,
)
from .io import PathLike, load_document


class IngestedWorkload(Workload):
    """A ``Workload`` backed by an external trace document.

    Exposes ``footprint_lines``, ``line_bytes``, and ``category`` so
    downstream consumers (characterization, reports) treat it like any
    suite workload.  Instances pickle cleanly for the process-pool and
    serve executors: the lazy per-trace-set ``ColumnarCTATrace`` caches
    are dropped on ``__getstate__`` and rebuilt on demand in the worker.
    """

    def __init__(self, document: TraceDocument, digest: Optional[str] = None) -> None:
        """Wrap a document, validating it unless a digest is pre-computed.

        ``digest`` is the document's content hash when the caller already
        computed it (e.g. ``load_workload`` hashing at read time); when
        omitted the document is validated and hashed here.
        """
        if digest is None:
            validate_document(document)
            digest = document_digest(document)
        self.document = document
        self.name = document.name
        self.category = document.category or "INGESTED"
        self.footprint_lines = document.footprint_lines
        self.line_bytes = document.line_bytes
        self.content_hash = digest
        #: File the workload was loaded from, when it was (set by
        #: :func:`load_workload`); enables path+digest wire references.
        self.source_path: Optional[str] = None
        self._traces: Dict[int, List[ColumnarCTATrace]] = {}

    def digest(self) -> str:
        """Content-addressed identity: changes iff the trace content does."""
        return f"ingest:{self.name}|v{TRACE_FORMAT_VERSION}|sha256:{self.content_hash}"

    def _trace_set(self, index: int) -> List[ColumnarCTATrace]:
        traces = self._traces.get(index)
        if traces is None:
            traces = []
            for entry in self.document.trace_sets[index]:
                spans = [tuple(span) for span in entry.spans]
                traces.append(
                    ColumnarCTATrace(
                        entry.addrs,
                        is_write_column(entry),
                        spans,
                        entry.compute_cycles,
                    )
                )
            self._traces[index] = traces
        return traces

    def kernels(self) -> Iterator[KernelLaunch]:
        """Yield the document's kernel launches in program order."""
        for kernel in self.document.kernels:
            traces = self._trace_set(kernel.trace)

            def trace_fn(cta_index: int, _traces: List[ColumnarCTATrace] = traces) -> ColumnarCTATrace:
                return _traces[cta_index]

            yield KernelLaunch(
                n_ctas=kernel.n_ctas,
                groups_per_cta=kernel.groups_per_cta,
                trace_fn=trace_fn,
                label=kernel.label,
            )

    def __getstate__(self):
        """Pickle without the lazy trace caches (rebuilt on demand)."""
        state = self.__dict__.copy()
        state["_traces"] = {}
        return state

    def __repr__(self) -> str:
        return (
            f"IngestedWorkload({self.name!r}, kernels={len(self.document.kernels)}, "
            f"hash={self.content_hash})"
        )


def load_workload(path: PathLike) -> IngestedWorkload:
    """Read a trace file (JSONL or npz) and return a runnable workload.

    The source path is recorded on the workload (``source_path``) so a
    file-backed trace can be referenced by path + digest on the serve
    wire (see :func:`repro.serve.wire.trace_reference`).
    """
    document = load_document(path)
    workload = IngestedWorkload(document, digest=document_digest(document))
    workload.source_path = str(path)
    return workload
