"""
Reading around the cache with aligned buffers
=============================================

Buffered reads of a warm file measure memcpy, not the disk.  To see the
device itself, open with IoMode.DIRECT: the OS then moves data straight
between the device and your buffer, which in exchange must be aligned to
the volume's sector rules.  This script probes those rules, shows the
validator that explains a bad request before it is issued, and does one
uncached round trip.
"""
import tempfile
from pathlib import Path

from seqbench import (
    AlignedBuffer,
    Direction,
    IoMode,
    OpenDisposition,
    detect_sector_geometry,
    open_file,
    supports_direct_io,
    validate_direct_request,
)

root = Path(tempfile.mkdtemp(prefix="seqbench_demo_"))

# Every volume advertises a logical sector size; the recommended
# alignment is the safe stride to use when the probe cannot be precise.
geometry = detect_sector_geometry(root)
sector = geometry.logical_sector
print(f"logical sector {sector} bytes, "
      f"recommended alignment {geometry.recommended_alignment}")

# Aligned buffers come from the package, not from bytearray: the base
# address itself must sit on a sector boundary.
buffer = AlignedBuffer(4 * sector, geometry.recommended_alignment)
print(f"buffer base {buffer.address:#x}, capacity {buffer.capacity}")

# The validator names every broken rule up front.  A request one byte
# off in length and offset breaks two rules at once:
for violation in validate_direct_request(geometry, buffer, sector + 1, sector + 1):
    print(f"  would be refused: {violation}")

if not supports_direct_io(root):
    print("this filesystem refuses cache-bypass opens; stopping here")
else:
    path = root / "direct.dat"
    buffer.view[:] = bytes(range(256)) * (4 * sector // 256)
    with open_file(path, OpenDisposition.CREATE, Direction.WRITE,
                   IoMode.DIRECT) as handle:
        handle.write_block(buffer, 2 * sector)
        print(f"wrote {handle.length} bytes uncached")
    with open_file(path, OpenDisposition.OPEN, Direction.READ,
                   IoMode.DIRECT) as handle:
        readback = AlignedBuffer(4 * sector, geometry.recommended_alignment)
        got = handle.read_block(readback, 2 * sector)
        same = bytes(readback.view[:got]) == bytes(buffer.view[:got])
        print(f"read {got} bytes uncached, content matches: {same}")
    path.unlink()

root.rmdir()
