"""Version 2 and 3 stream records for tests: forms the reader and the
daemon still accept, but nothing in the package writes.

Both list every preallocated location in the header, where version 4
gives runs.  Tests that plant a bad *row* (a JSON ``true``, an integer
past int64) need a record whose blocks are rows (version 2); these
helpers turn what ``dump_stream`` writes into either.
"""

import io
import json

from repro.core.columnar import ColumnarBlock
from repro.core.state import LocationRuns
from repro.trace.serialize import dump_stream


def rows_record(record):
    """A parsed epoch record with every packed block decoded to rows."""
    return dict(record, blocks=[
        ColumnarBlock.from_rows(raw).to_rows() for raw in record["blocks"]
    ])


def _header(line, version):
    header = json.loads(line)
    runs = LocationRuns.parse(header["preallocated"])
    return json.dumps(dict(header, version=version, preallocated=list(runs)))


def as_v3(text):
    """Version 4 stream text as version 3: the header's version set to
    3 and its runs listed location by location -- the bytes the version
    3 writer produced for the same partition."""
    header, rest = text.split("\n", 1)
    return _header(header, 3) + "\n" + rest


def as_v2(text):
    """Version 4 stream text as version 2: version 3's header with the
    version set to 2, and every block as rows."""
    header, *epochs, footer = text.splitlines()
    lines = [_header(header, 2)]
    lines += [json.dumps(rows_record(json.loads(line))) for line in epochs]
    return "\n".join(lines + [footer]) + "\n"


def v2_text(partition):
    """``partition`` as version 2 stream text."""
    buf = io.StringIO()
    dump_stream(partition, buf)
    return as_v2(buf.getvalue())


def save_v2_file(partition, path):
    """Write ``partition`` to ``path`` as a version 2 stream."""
    with open(path, "w") as fp:
        fp.write(v2_text(partition))
