"""Result serialization: atomic file writes, JSON/CSV rendering, run manifests.

Reals are rendered with 17 significant digits everywhere so written numbers
round-trip to the exact double that produced them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from pathlib import Path


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
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return format_real(obj)
    if isinstance(obj, int):
        return str(obj)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format_real(v)
    return str(v)


def render_csv(records: list[dict]) -> str:
    """One CSV row per record under a header of the first record's keys."""
    columns = list(records[0])
    lines = [",".join(columns)]
    for rec in records:
        lines.append(",".join(_cell(rec[c]) for c in columns))
    return "\n".join(lines) + "\n"


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


def render_table(records: list[dict], fmt: str) -> str:
    if fmt == "csv":
        return render_csv(records)
    if fmt == "json":
        return render_json(records) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def render_record(record: dict, fmt: str) -> str:
    if fmt == "csv":
        return render_csv([record])
    if fmt == "json":
        return render_json(record) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def sha256_of(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def write_manifest(
    results_path: str | Path, results_text: str, config_record: dict, wall_time_s: float
) -> Path:
    """Write the reproducibility manifest next to a results file."""
    import platform

    import numpy

    from . import __version__

    results_path = Path(results_path)
    manifest = {
        "results_file": results_path.name,
        "results_sha256": sha256_of(results_text),
        "config": config_record,
        "versions": {
            "pxkit": __version__,
            "numpy": numpy.__version__,
            "python": platform.python_version(),
        },
        "wall_time_s": wall_time_s,
    }
    manifest_path = results_path.with_name(results_path.name + ".manifest.json")
    write_atomic(manifest_path, render_json(manifest) + "\n")
    return manifest_path
