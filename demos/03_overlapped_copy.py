"""
Copying with reads and writes in flight together
================================================

A file copy at full speed keeps the source read and the destination
write overlapped instead of strictly alternating.  copy_file first
preallocates the destination to the source's length, so the overlapped
writes fill space that already exists rather than each allocating it
under the file's lock; a full disk fails there, before any block moves,
and the report's wall time includes it.  Then it runs depth slots, the
calling thread being one and a thread each for the others.  Every slot
reads and writes its own blocks and hands each block to a hook between
its read landing and its write being issued, in file order: a slot waits
for its turn, runs the hook and passes the turn on before it writes.
The hook is the natural place to checksum or inspect the stream without
a second pass.  The report's peak_outstanding is measured: the most
reads and writes that were inside their system calls at once, which is
at most depth and can be less when the transfers finish faster than the
slots hand the turn over.
"""
import hashlib
import tempfile
from pathlib import Path

from seqbench import copy_file, make_rng

root = Path(tempfile.mkdtemp(prefix="seqbench_demo_"))
src = root / "source.dat"
dst = root / "copy.dat"

# 8 MiB of seeded random bytes plus a ragged tail, so the last block is
# shorter than the rest and the slot that walks to it has to cut it short.
rng = make_rng(7)
src.write_bytes(rng.bytes(8 * 2**20 + 333))

streamed = hashlib.sha256()
report = copy_file(src, dst, block=256 * 1024, depth=4,
                   hook=lambda block: streamed.update(block))

print(f"copied {report.bytes_copied:,} bytes")
print(f"{report.read_requests} reads, {report.write_requests} writes, "
      f"peak {report.peak_outstanding} of depth 4 in flight at once")
print(f"wall time {report.wall_time * 1000:.1f} ms")

# The hook saw exactly the bytes that landed in the destination.
assert streamed.digest() == hashlib.sha256(dst.read_bytes()).digest()
print("hook checksum matches the destination")

src.unlink()
dst.unlink()
root.rmdir()
