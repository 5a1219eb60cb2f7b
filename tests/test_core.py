"""Size parsing, size formatting and deterministic RNG construction."""
import copy
import pickle
import resource
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import seqbench as sb
from seqbench.core import SUFFIXES, U64_MAX

from conftest import golden_text, rng_state


# -- parse_size -------------------------------------------------------------

@pytest.mark.parametrize(
    "text, want",
    [
        ("0", 0),
        ("1", 1),
        ("1024", 1024),
        ("64K", 64 * 1024),
        ("64k", 64 * 1024),
        ("1M", 1 << 20),
        ("100m", 100 << 20),
        ("1G", 1 << 30),
        ("4g", 4 << 30),
        ("0K", 0),
        ("16777215", 16777215),
        (str(U64_MAX), U64_MAX),
    ],
)
def test_parse_size_accepts(text, want):
    assert sb.parse_size(text) == want


@pytest.mark.parametrize(
    "text",
    [
        "",
        "K",
        "M",
        "-1",
        "-1K",
        "+5",
        "1.5M",
        " 64K",
        "64 K",
        "64K ",
        "0x10",
        "1T",
        "1KB",
        "٤2",  # non-ASCII digits must not slip through int()
        str(U64_MAX + 1),
        "17179869184G",  # 16 Gi * 2**30 overflows 64 bits
    ],
)
def test_parse_size_rejects(text):
    with pytest.raises(sb.SizeParseError):
        sb.parse_size(text)


def test_parse_size_rejects_non_strings():
    with pytest.raises(sb.SizeParseError):
        sb.parse_size(64)


def test_size_parse_error_is_value_error_and_toolkit_error():
    with pytest.raises(ValueError):
        sb.parse_size("nope")
    with pytest.raises(sb.ToolkitError):
        sb.parse_size("nope")


# -- format_size ------------------------------------------------------------

@pytest.mark.parametrize(
    "size, want",
    [
        (0, "0"),
        (1, "1"),
        (1023, "1023"),
        (1024, "1K"),
        (65536, "64K"),
        (3 << 20, "3M"),
        (1 << 30, "1G"),
        ((1 << 20) + 512, str((1 << 20) + 512)),
        (1536, str(1536)),  # 1.5K is not expressible, falls back to bytes
    ],
)
def test_format_size(size, want):
    assert sb.format_size(size) == want


def test_format_size_rejects_bad_input():
    with pytest.raises(ValueError):
        sb.format_size(-1)
    with pytest.raises(ValueError):
        sb.format_size(U64_MAX + 1)
    with pytest.raises(TypeError):
        sb.format_size(1.0)
    with pytest.raises(TypeError):
        sb.format_size(True)


@given(st.integers(min_value=0, max_value=U64_MAX))
def test_format_parse_round_trip(size):
    assert sb.parse_size(sb.format_size(size)) == size


@given(
    st.integers(min_value=0, max_value=2**33),
    st.sampled_from(sorted(SUFFIXES)),
)
def test_parse_format_canonical(count, suffix):
    """parse(format(parse(x))) == parse(x) for any suffixed spelling."""
    text = f"{count}{suffix}"
    value = count * SUFFIXES[suffix]
    assert sb.parse_size(text) == value
    assert sb.parse_size(sb.format_size(value)) == value


# -- RNG --------------------------------------------------------------------

def test_default_seed_value():
    assert sb.DEFAULT_SEED == 137


def test_rng_golden_draws_seed_137():
    """First raw 64-bit outputs for (seed=137, stream=0) are pinned."""
    want = [int(line) for line in golden_text("rng_seed137.txt").split()]
    got = [int(v) for v in sb.make_rng(137).bit_generator.random_raw(16)]
    assert got == want


def test_rng_same_pair_same_draws():
    a = sb.make_rng(9, 3).integers(0, 2**63, size=64)
    b = sb.make_rng(9, 3).integers(0, 2**63, size=64)
    assert (a == b).all()


def test_rng_streams_differ():
    base = sb.make_rng(137).integers(0, 2**63, size=16)
    other = sb.make_rng(137, stream=1).integers(0, 2**63, size=16)
    assert not (base == other).all()


def test_rng_seeds_differ():
    a = sb.make_rng(1).integers(0, 2**63, size=16)
    b = sb.make_rng(2).integers(0, 2**63, size=16)
    assert not (a == b).all()


def test_rng_rejects_negative():
    with pytest.raises(ValueError):
        sb.make_rng(-1)
    with pytest.raises(ValueError):
        sb.make_rng(0, stream=-1)


def _numpy_generator(seed, stream):
    """numpy's own Generator over the bit generator make_rng keys."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


MiB = 1 << 20

#: Bytes in one piece of a draw: 8,192 raw 64-bit outputs.
_PIECE = 64 << 10

#: Lengths at the edge of a piece: a byte short of one, exactly one, a byte
#: and a whole output into a second, and 64 pieces with a 3-byte tail.
_PIECE_EDGES = [_PIECE - 1, _PIECE, _PIECE + 1, _PIECE + 8, 4 * MiB + 3]

#: One draw: ("bytes", length), ("integers", an odd count of uint32 words, which
#: leaves a half-word pending) or ("random", None).
_DRAWS = st.one_of(
    st.tuples(st.just("bytes"), st.sampled_from([0, 1, 3, 4, 5, 7, 8, *_PIECE_EDGES]) | st.integers(0, 4096)),
    st.tuples(st.just("integers"), st.integers(0, 20).map(lambda k: 2 * k + 1)),
    st.tuples(st.just("random"), st.none()),
)


@given(st.integers(0, U64_MAX), st.integers(0, U64_MAX), st.lists(_DRAWS, max_size=12))
@example(137, 0, [("bytes", length) for length in _PIECE_EDGES])
@example(137, 1, [draw for length in [0, 3, *_PIECE_EDGES] for draw in (("integers", 1), ("bytes", length))])
def test_make_rng_draws_as_numpy_does(seed, stream, draws):
    """make_rng's bytes come from the raw stream, yet every draw, interleaved
    any way with pending half-words, equals numpy's and leaves its state."""
    ours, theirs = sb.make_rng(seed, stream), _numpy_generator(seed, stream)
    assert isinstance(ours, np.random.Generator)
    for kind, arg in draws:
        if kind == "bytes":
            assert ours.bytes(arg) == theirs.bytes(arg)
        elif kind == "integers":
            want = theirs.integers(0, 2**32, size=arg, dtype=np.uint32)
            assert (ours.integers(0, 2**32, size=arg, dtype=np.uint32) == want).all()
        else:
            assert ours.random() == theirs.random()
        assert rng_state(ours) == rng_state(theirs)


def test_a_copied_or_pickled_generator_draws_on_as_the_original():
    rng = sb.make_rng(5, 2)
    rng.bytes(5)  # leaves a half-word pending
    copies = [copy.deepcopy(rng), pickle.loads(pickle.dumps(rng))]
    want = rng.bytes(13), rng.random(), rng.bytes(64)
    for other in copies:
        assert type(other) is type(rng)
        assert (other.bytes(13), other.random(), other.bytes(64)) == want
        assert rng_state(other) == rng_state(rng)


def test_a_draw_holds_about_its_own_length_of_memory():
    """The result is the one allocation larger than a piece: a 4 MiB draw
    peaks far below the 2 x 4 MiB of a raw array plus a copy of it."""
    rng = sb.make_rng(11)
    tracemalloc.start()
    try:
        rng.bytes(4 * MiB)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 4 * MiB <= peak <= 4 * MiB + 4 * _PIECE


def test_repeated_draws_reuse_the_pages_they_freed():
    """After one warm-up draw, a 4 MiB draw faults in fewer pages than its
    result has (1,024), because the freed pieces and result are reused."""
    rng = sb.make_rng(12)
    rng.bytes(4 * MiB)
    before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
    for _ in range(10):
        rng.bytes(4 * MiB)
    faults = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before
    assert faults / 10 < 4 * MiB // 4096


def test_a_negative_byte_count_draws_nothing():
    rng = sb.make_rng(3)
    before = rng_state(rng)
    with pytest.raises(ValueError, match="length may not be negative"):
        rng.bytes(-1)
    assert rng_state(rng) == before


def test_make_rng_streams_byte_uniformity():
    """Pooled bytes from streams 1..4 of one seed look uniform (chi-square)."""
    scipy_stats = pytest.importorskip("scipy.stats")
    pooled = np.concatenate([sb.make_rng(137, s).integers(0, 256, size=20000) for s in range(1, 5)])
    counts = np.bincount(pooled, minlength=256)
    result = scipy_stats.chisquare(counts)
    assert result.pvalue > 1e-4
