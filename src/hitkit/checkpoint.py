"""Checkpoint archives.

A checkpoint is a zip file with:
  meta.json            format_version, model config, ordered parameter index
  params/<name>        raw little-endian float32 values, C order
  extras/<key>         optional UTF-8 text members (vocab tables, label maps)

Zip timestamps are pinned so identical state produces byte-identical files.
"""

from __future__ import annotations

import json
import zipfile
import zlib
from dataclasses import dataclass, field

import numpy as np

FORMAT_VERSION = 1
_FIXED_DATE = (1980, 1, 1, 0, 0, 0)
_CHUNK = 1 << 16  # float32 values per write (256 KB): no member is converted whole


@dataclass
class Checkpoint:
    config: dict
    params: dict[str, np.ndarray]
    extras: dict[str, str] = field(default_factory=dict)


def _member(name: str) -> zipfile.ZipInfo:
    info = zipfile.ZipInfo(name, date_time=_FIXED_DATE)
    info.compress_type = zipfile.ZIP_STORED
    info.external_attr = 0o644 << 16
    return info


def save_checkpoint(path, params: dict[str, np.ndarray], config: dict, extras: dict[str, str] | None = None) -> None:
    names = sorted(params)
    meta = {
        "format_version": FORMAT_VERSION,
        "config": config,
        "params": [{"name": n, "shape": list(np.asarray(params[n]).shape)} for n in names],
    }
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
        zf.writestr(_member("meta.json"), json.dumps(meta, sort_keys=True, indent=1))
        for n in names:
            flat, info = np.ravel(params[n]), _member(f"params/{n}")
            info.file_size = 4 * flat.size  # as writestr sets it: the header and zip64 choice match
            with zf.open(info, "w") as dest:
                for lo in range(0, flat.size, _CHUNK):
                    dest.write(flat[lo:lo + _CHUNK].astype("<f4"))
        for key in sorted(extras or {}):
            zf.writestr(_member(f"extras/{key}"), extras[key])


def _is_entry(entry) -> bool:
    """Whether a params index entry is {"name": str, "shape": [non-negative int, ...]}."""
    return (isinstance(entry, dict) and isinstance(entry.get("name"), str)
            and isinstance(entry.get("shape"), list)
            and all(type(n) is int and n >= 0 for n in entry["shape"]))


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; a file that is not one raises ValueError naming `path`.

    Each parameter is the read-only float32 array over its member's bytes.

    A file that cannot be opened raises the OSError of `open`; whatever the zip reads
    raise on a damaged archive (a bad header, an unknown compression method, a
    corrupt deflate stream, a flag that says encrypted) names `path` as malformed.
    """
    with open(path, "rb") as fh:
        try:
            return _read_archive(fh)
        except (zipfile.BadZipFile, KeyError, ValueError, EOFError, OSError, RuntimeError,
                zlib.error) as exc:
            raise ValueError(f"malformed checkpoint {path}: {exc}") from None


def _read_archive(fh) -> Checkpoint:
    with zipfile.ZipFile(fh, "r") as zf:
        meta = json.loads(zf.read("meta.json").decode("utf-8"))
        if not isinstance(meta, dict) or not isinstance(meta.get("config"), dict):
            raise ValueError("meta.json is not a JSON object with a config object")
        if meta.get("format_version") != FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint format version "
                             f"{meta.get('format_version')!r}")
        if not (isinstance(meta.get("params"), list) and all(map(_is_entry, meta["params"]))):
            raise ValueError("meta.json params is not a list of {name: str, shape: [int]}")
        params = {}
        for entry in meta["params"]:
            raw = zf.read(f"params/{entry['name']}")
            params[entry["name"]] = np.frombuffer(raw, dtype="<f4").reshape(entry["shape"])
        extras = {}
        for info in zf.infolist():
            if info.filename.startswith("extras/"):
                extras[info.filename[len("extras/"):]] = zf.read(info).decode("utf-8")
    return Checkpoint(config=meta["config"], params=params, extras=extras)
