"""Columnar record batches — the packed data plane (see docs/columnar.md).

The hot ingest -> clean -> PEA path moves records as
:class:`RecordBatch` columns; rows materialize only at true object
boundaries (pickup events, snapshots, history).
"""

from repro.columnar.batch import RecordBatch

__all__ = ["RecordBatch"]
