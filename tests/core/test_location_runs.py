"""Location runs: the one form a preallocated set takes in a version 4
stream header, a ``HELLO`` frame and the resume token."""

import io
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.epoch import partition_auto
from repro.core.state import LocationRuns
from repro.errors import TraceError
from repro.serve.protocol import (
    FRAME_HELLO,
    HEADER_SIZE,
    ProtocolError,
    decode_json_payload,
    encode_json_frame,
    make_hello,
    validate_hello,
)
from repro.trace.serialize import dump_stream, iter_load, stream_header
from repro.workloads.registry import get_benchmark

LOCATION_SETS = st.frozensets(st.integers(0, 200), max_size=40)

#: Each is refused by the header check and the HELLO check alike.
BAD_RUNS = [
    pytest.param([[4, 6], [1, 2]], id="unsorted"),
    pytest.param([[1, 5], [3, 8]], id="overlapping"),
    pytest.param([[1, 3], [3, 5]], id="touching"),
    pytest.param([[3, 3]], id="empty-run"),
    pytest.param([[5, 2]], id="reversed"),
    pytest.param([[-1, 2]], id="negative-lo"),
    pytest.param([[True, 2]], id="bool"),
    pytest.param([[0, 2.0]], id="float"),
    pytest.param([["0", 2]], id="string"),
    pytest.param([[0, 2, 4]], id="three-elements"),
    pytest.param([[0, 2], 7], id="bare-location"),
    pytest.param({"0": 2}, id="not-a-list"),
    pytest.param(None, id="missing"),
    pytest.param([[0, 5], [9, 2**25 + 5]], id="too-many-locations"),
]


class TestCodec:
    @settings(max_examples=200, deadline=None)
    @given(locations=LOCATION_SETS)
    @example(locations=frozenset())
    @example(locations=frozenset({0}))
    @example(locations=frozenset({7}))
    def test_runs_are_the_set(self, locations):
        runs = LocationRuns.of(locations)
        assert runs == locations and locations == runs
        assert list(runs) == sorted(locations)
        assert len(runs) == len(locations)
        # Canonical: sorted, disjoint, not touching -- so the JSON form
        # passes the check and parses back to an equal value.
        text = json.dumps(runs.runs)
        assert LocationRuns.parse(json.loads(text)) == runs
        assert LocationRuns.of(sorted(locations) * 2) == runs

    @settings(max_examples=200, deadline=None)
    @given(locations=LOCATION_SETS)
    def test_membership_at_every_run_edge(self, locations):
        runs = LocationRuns.of(locations)
        for lo, hi in runs.runs:
            for probe in (lo - 1, lo, hi - 1, hi):
                assert (probe in runs) == (probe in locations)

    @pytest.mark.parametrize("value", BAD_RUNS)
    def test_the_checked_constructor_refuses(self, value):
        with pytest.raises(ValueError):
            LocationRuns.parse(value)


def _ocean_stream_text():
    """OCEAN at 4 threads x 11,500 events cut at h = 2,048: 32,768
    preallocated locations in 4 runs."""
    program = get_benchmark("OCEAN").generate(4, 11_500, seed=7)
    buf = io.StringIO()
    dump_stream(partition_auto(program, 2048), buf)
    return program, buf.getvalue()


class TestStreamHeader:
    @pytest.fixture(scope="class")
    def ocean(self):
        return _ocean_stream_text()

    def test_the_header_and_hello_are_o_runs(self, ocean):
        program, text = ocean
        line = text.split("\n", 1)[0]
        assert len(line) <= 1024
        header = stream_header(io.StringIO(text), "ocean")
        assert header["version"] == 4
        assert len(header["preallocated"].runs) == 4
        assert header["preallocated"] == program.preallocated
        hello = make_hello(
            "ocean", header["threads"], header["epochs"],
            header["preallocated"],
        )
        assert len(encode_json_frame(FRAME_HELLO, hello)) <= 1024

    def test_a_version_3_list_header_is_refused(self, ocean, tmp_path):
        """Version 3 listed every location; it is not read any more,
        whatever its list holds."""
        program, text = ocean
        header = json.loads(text.split("\n", 1)[0])
        header.update(version=3, preallocated=sorted(program.preallocated))
        path = tmp_path / "v3.jsonl"
        path.write_text(json.dumps(header) + "\n" + text.split("\n", 1)[1])
        with pytest.raises(
            TraceError, match=r"v3\.jsonl:1: unsupported trace version 3$"
        ):
            iter_load(path)

    @pytest.mark.parametrize("value", BAD_RUNS)
    def test_a_version_4_header_refuses(self, tmp_path, value):
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps({
            "format": "repro-trace", "version": 4, "threads": 1,
            "epochs": 0, "preallocated": value,
        }) + '\n{"epochs_written": 0}\n')
        with pytest.raises(
            TraceError, match=r"t\.jsonl:1: bad preallocated set"
        ):
            iter_load(path)


class TestHello:
    @staticmethod
    def received(**overrides):
        """A ``HELLO`` as the daemon decodes it, with ``overrides``."""
        frame = encode_json_frame(
            FRAME_HELLO, make_hello("s", 2, 3, {1, 2, 3, 9})
        )
        record = decode_json_payload(FRAME_HELLO, frame[HEADER_SIZE:])
        record.update(overrides)
        return record

    def test_the_runs_cross_the_wire_and_parse_once(self):
        record = self.received()
        assert record["preallocated"] == [[1, 4], [9, 10]]
        hello = validate_hello(record)
        assert type(hello["preallocated"]) is LocationRuns
        assert hello["preallocated"] == {1, 2, 3, 9}

    @pytest.mark.parametrize("value", BAD_RUNS)
    def test_the_hello_check_refuses(self, value):
        with pytest.raises(ProtocolError, match="bad preallocated set"):
            validate_hello(self.received(preallocated=value))
