"""Columnar record batches — the packed data plane (see docs/columnar.md).

The hot ingest -> clean -> PEA path moves records as
:class:`RecordBatch` columns; rows are built only where a consumer
reads one at a time (the replay feed, snapshots, history).
"""

from repro.columnar.batch import RecordBatch

__all__ = ["RecordBatch"]
