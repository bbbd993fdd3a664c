"""Version 2 stream records for tests: the row-list block form the
reader and the daemon still accept, but nothing in the package writes.

Tests that plant a bad *row* (a JSON ``true``, an integer past int64)
need a record whose blocks are rows; these helpers turn what
``dump_stream`` writes into one.
"""

import io
import json

from repro.core.columnar import ColumnarBlock
from repro.trace.serialize import dump_stream


def rows_record(record):
    """A parsed epoch record with every packed block decoded to rows."""
    return dict(record, blocks=[
        ColumnarBlock.from_rows(raw).to_rows() for raw in record["blocks"]
    ])


def as_v2(text):
    """Version 3 stream text as version 2: the header's version set to
    2 and every block as rows -- the bytes the version 2 writer
    produced for the same partition."""
    header, *epochs, footer = text.splitlines()
    lines = [json.dumps(dict(json.loads(header), version=2))]
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
