"""Small shared utilities (index mappings, time constants, atomic IO)."""

from repro.util.atomicio import (
    atomic_write_bytes,
    atomic_write_text,
    fsync_directory,
)
from repro.util.indexing import AsnIndexer
from repro.util.timeconst import DAY, HOUR, MEASUREMENT_WEEKS, WEEK

__all__ = [
    "AsnIndexer",
    "DAY",
    "HOUR",
    "MEASUREMENT_WEEKS",
    "WEEK",
    "atomic_write_bytes",
    "atomic_write_text",
    "fsync_directory",
]
