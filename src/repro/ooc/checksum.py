"""CRC32C (Castagnoli) for shard and checkpoint integrity.

The out-of-core layer stores matrix shards and solver checkpoints as
binary files that must survive torn writes, bit rot and the injected
``io`` chaos faults. Every payload carries a CRC32C — the Castagnoli
polynomial (0x1EDC6F41, reflected 0x82F63B78), the same checksum
iSCSI, ext4 metadata and most storage systems use — so a corrupt or
truncated file is *detected* on read instead of silently feeding wrong
bytes into a solve.

Every shard reload verifies its payload, so the checksum sits on the
budgeted apply's critical path. It runs in the native library
(:func:`repro.native.crc32c`, a slicing-by-8 loop in ``symkernel.c``)
without the GIL. Values are the classic table-driven CRC32C's (the RFC
3720 vectors pin them), so manifests and checkpoints written by any
version still verify.
"""

from ..native import crc32c

__all__ = ["crc32c"]
