"""The package's file formats.  CSV: one header line, then one row per record,
floats as %.17g, ints and strings as they are; each reader names the headers it
accepts.  JSON: sorted keys, indent 2 and a final newline."""

import itertools
import json

import numpy as np


def write_csv(path, header: str, columns) -> None:
    """Write `header` and one row per entry of the equal-length `columns`."""
    columns = [np.asarray(column) for column in columns]
    cells = [map("{:.17g}".format if c.dtype.kind == "f" else str, c.tolist()) for c in columns]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join([header, *map(",".join, zip(*cells))]) + "\n")


def read_csv(path, *headers: str) -> np.ndarray:
    """The rows as a 2-D float array.  ValueError unless the header is one of
    `headers` (names compared with spaces stripped) and rows follow, one column per name."""
    with open(path) as fh:
        found = ",".join(name.strip() for name in fh.readline().split(","))
        if found not in headers:
            raise ValueError(f"{path}: header {found!r}, expected {' or '.join(headers)}")
        rows = (line for line in fh if line.strip())
        first = next(rows, None)
        if first is None:
            raise ValueError(f"{path} has the header {found} and no rows")
        data = np.loadtxt(itertools.chain([first], rows), delimiter=",", ndmin=2)
    if data.shape[1] != found.count(",") + 1:
        raise ValueError(f"{path}: {data.shape[1]} columns under the header {found}")
    return data


def write_json(payload, path) -> None:
    with open(path, "w", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
