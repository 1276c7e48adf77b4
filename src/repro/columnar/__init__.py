"""Columnar record batches — the packed data plane (see docs/columnar.md).

The hot ingest -> clean -> PEA path moves records as immutable
:class:`RecordBatch` columns, assembled by one :class:`BatchBuilder`;
rows are built only where a consumer reads one at a time (the replay
feed, snapshots, history).
"""

from repro.columnar.batch import BatchBuilder, RecordBatch

__all__ = ["BatchBuilder", "RecordBatch"]
