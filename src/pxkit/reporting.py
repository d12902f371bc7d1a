"""Result serialization: atomic file writes, JSON/CSV rendering, run manifests.

`render_table` writes every results file: a record (one CSV row under a
header, or one JSON object) or a list of records, in one of `FORMATS`.
Both formats encode scalars by one rule, `render_json`: reals with 17
significant digits, so written numbers round-trip to the exact double that
produced them, and every other scalar as `json.dumps` writes it.  A CSV cell
that is a string is written as is.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from pathlib import Path

FORMATS = ("csv", "json")  # the results-file formats `render_table` writes


def format_real(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite real {x!r}")
    return format(float(x), ".17g")


def render_json(obj, indent: int = 0) -> str:
    """JSON text with floats at 17 significant digits."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}{json.dumps(str(k))}: {render_json(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{render_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, float):
        return format_real(obj)
    return json.dumps(obj)


def _cell(v) -> str:
    return v if isinstance(v, str) else render_json(v)


def write_atomic(path: str | Path, text: str) -> None:
    """Write via a temp file in the target directory, then rename.

    The temp file is created with mode 0o666 less the umask, the mode a
    plain ``open(path, "w")`` gives a new file (`tempfile.mkstemp` would
    give 0o600 whatever the umask).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    while True:
        tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def render_table(result: dict | list[dict], fmt: str) -> str:
    """A record or a list of records: JSON, or CSV rows under the first record's keys."""
    if fmt == "json":
        return render_json(result) + "\n"
    if fmt != "csv":
        raise ValueError(f"unknown format {fmt!r}")
    records = [result] if isinstance(result, dict) else result
    columns = list(records[0])
    lines = [",".join(columns)] + [",".join(_cell(rec[c]) for c in columns) for rec in records]
    return "\n".join(lines) + "\n"


def manifest_path(results_path: str | Path) -> Path:
    """Where ``write_manifest`` puts the manifest of ``results_path``."""
    results_path = Path(results_path)
    return results_path.with_name(results_path.name + ".manifest.json")


def write_manifest(
    results_path: str | Path, results_text: str, config_record: dict, wall_time_s: float
) -> None:
    """Write the reproducibility manifest next to a results file."""
    import platform

    import numpy

    from . import __version__

    results_path = Path(results_path)
    manifest = {
        "results_file": results_path.name,
        "results_sha256": hashlib.sha256(results_text.encode("utf-8")).hexdigest(),
        "config": config_record,
        "versions": {
            "pxkit": __version__,
            "numpy": numpy.__version__,
            "python": platform.python_version(),
        },
        "wall_time_s": wall_time_s,
    }
    write_atomic(manifest_path(results_path), render_json(manifest) + "\n")
