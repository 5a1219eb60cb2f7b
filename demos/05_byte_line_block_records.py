"""
One file, four ways to move it
==============================

How much does the granularity of your I/O calls matter when the data is
identical?  These workloads read or write the same stream a byte at a
time, a line at a time, a block at a time, and as typed records, each
reporting a checksum over the payload so the equivalence is checkable,
plus a throughput sample so the speed difference is visible.
"""
import tempfile
from pathlib import Path

from seqbench import (
    BlockAtATime,
    ByteAtATime,
    LineAtATime,
    make_rng,
    run_read,
    run_write,
    typed_roundtrip,
    write_sort_file,
)

root = Path(tempfile.mkdtemp(prefix="seqbench_demo_"))
path = root / "workload.dat"

# Write 200,000 bytes of text as lines, then read it back three ways.
run_write(path, LineAtATime(), 200_000, make_rng(3))
print(f"{'granularity':<14} {'checksum':>12} {'requests':>9} {'MB/s':>8}")
for granularity in (ByteAtATime(), LineAtATime(), BlockAtATime(65536)):
    result = run_read(path, granularity)
    rate = result.sample.bytes_moved / 1e6 / result.sample.wall_seconds
    print(f"{type(granularity).__name__:<14} {result.checksum:>12} "
          f"{result.sample.request_count:>9} {rate:>8.1f}")
# Byte and block agree exactly; lines checksum only the payload between
# terminators, so their figure differs while covering the same file.  The
# LineAtATime row makes one request per line: its requests column is the
# file's line count.

# Typed records put numbers and strings in a binary stream and get the
# identical values back, no text formats involved.
values = [("u32", 42), ("str", "hello"), ("f64", 2.5), ("i64", -3)]
assert typed_roundtrip(values, root / "typed.bin") == values
print(f"typed round trip preserved {len(values)} values")

# The classic sort input: 100-byte records, a 10-byte random key each.
write_sort_file(root / "sort.dat", 1000, make_rng(137))
print(f"sort input: {(root / 'sort.dat').stat().st_size:,} bytes for 1000 records")

for name in ("workload.dat", "typed.bin", "sort.dat"):
    (root / name).unlink()
root.rmdir()
