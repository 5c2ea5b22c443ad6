"""Provenance stamp for every results file: code identity, seed,
interpreter and library versions, and a host fingerprint.

The checkout the benchmark runs in need not be a git repository, so the
code is identified twice: by the git HEAD when ``.git`` is present
(read from the files, no git process), and always by a digest of the
program's sources under ``src/``.
"""

from __future__ import annotations

import hashlib
import os
import platform
import sys
from pathlib import Path


def git_sha(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
    except OSError:
        return "unknown"
    if not ref.startswith("ref:"):
        return ref
    name = ref.split(None, 1)[1]
    try:
        return (root / ".git" / name).read_text().strip()
    except OSError:
        pass
    try:
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest(root: Path) -> str:
    """sha256 over every ``src/**/*.py`` path and content, in path order."""
    h = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def host_fingerprint() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    mem_kb = None
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemTotal:"):
                    mem_kb = int(line.split()[1])
                    break
    except OSError:
        pass
    return {"cpu_model": cpu, "nproc": os.cpu_count(), "mem_total_kb": mem_kb}


def stamp(root: Path, seed: int, versions: dict | None = None) -> dict:
    return {
        "git_sha": git_sha(root),
        "src_digest": source_digest(root),
        "seed": seed,
        "python": sys.version.split()[0],
        **(versions or {}),
        "host": host_fingerprint(),
    }
