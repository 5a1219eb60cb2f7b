"""
Regenerating every figure in one go
===================================

The scenarios module bundles the whole measurement suite: sweep request
sizes for buffered and uncached reads and writes, time incremental
against preallocated extension, and render the standard charts plus a
results.csv.  Scale presets trade time for smoothness; QUICK fits in a
coffee break and FULL is for a machine you can leave alone.  This demo
uses an even smaller custom scale so it finishes while you watch.
"""
import tempfile
from pathlib import Path

from seqbench.scenarios import QUICK, SweepScale, regen_figures, summary_scenario

out = Path(tempfile.mkdtemp(prefix="seqbench_demo_"))

# The hundred-byte smoke scenario first: create, write, read back,
# delete, raising with the failing step's name if anything is off.
summary_scenario(out)
print("summary scenario passed")

tiny = SweepScale(
    file_size=4 << 20,
    duration=0.15,
    trials=3,
    sizes=(1, 64, 1024, 65536),
    ext_size=2 << 20,
    ext_blocks=(65536, 262144),
)
print(f"sweeping {len(tiny.sizes)} request sizes "
      f"(the QUICK preset sweeps {len(QUICK.sizes)}) ...")
for path in regen_figures(out, tiny):
    print(f"  wrote {path.name}")
print(f"everything is under {out}")
