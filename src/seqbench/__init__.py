"""Sequential file I/O benchmarking toolkit.

Measures what file I/O actually costs on a machine: throughput and CPU
cost per byte across request sizes, buffered against uncached (direct)
transfers, overlapped copies, file-extension strategies, and how all of it
holds up on a deliberately fragmented volume.  A CSV schema, deterministic
SVG plots and a four-tool CLI (iospeed, fragdisk, examples, asynccopy)
make the results comparable across machines and runs.
"""
from .bench import (
    BenchmarkResult,
    ExtensionMode,
    IoConfig,
    ThroughputSample,
    detect_clock_ghz,
    measure_extension,
    next_offset,
    per_byte_cost,
    run_measurement,
    summarize,
)
from .core import (
    DEFAULT_SEED,
    Direction,
    OpenDisposition,
    format_size,
    make_rng,
    parse_size,
    split_rng,
)
from .engine import (
    AccessHint,
    AlignedBuffer,
    FALLBACK_GEOMETRY,
    FileHandle,
    FlushLevel,
    IoMode,
    SectorGeometry,
    count_extents,
    detect_sector_geometry,
    open_file,
    supports_direct_io,
    validate_direct_request,
)
from .errors import (
    ConfigError,
    CopyAbortedError,
    DirectIoUnsupportedError,
    DirectRequestError,
    ExtentQueryError,
    GeometryProbeError,
    ScenarioError,
    SizeParseError,
    StreamTruncatedError,
    ToolkitError,
    VolumeUnsupportedError,
)
from .fragger import FragConfig, FragReport, plan_directory_tree, run_cycles
from .pipeline import CopyReport, copy_file, plan_schedule
from .report import (
    CSV_COLUMNS,
    CSV_SCHEMA_VERSION,
    PlotKind,
    PlotSeries,
    ResultRow,
    emit_plot,
    from_csv,
    result_row,
    to_csv,
)
from .scenarios import FULL, QUICK, SweepScale, regen_figures, summary_scenario
from .volumes import scratch_volume, volume_support_problem
from .workloads import (
    BlockAtATime,
    ByteAtATime,
    LineAtATime,
    TypedReader,
    TypedRecords,
    TypedWriter,
    WorkloadResult,
    count_lines,
    run_read,
    run_write,
    typed_roundtrip,
    write_sort_file,
)

__version__ = "1.0.0"
