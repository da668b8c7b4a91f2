"""Reading program outputs into a comparable form, and comparing them with
the reference values recorded at the seed commit.

Rules: integers and strings must match exactly; floats must agree to
``REL_TOL`` relative, with an absolute floor of ``ABS_FLOOR`` so that a value
of exactly 0.0 at the seed may come back as round-off.  Callers can pass a
different rule for a path (the xi column keeps its own 1e-9 rule).
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
import os
import re

REL_TOL = 1e-12
ABS_FLOOR = 1e-15
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
_INT = re.compile(r"-?\d+\Z")


class Report:
    """Mismatches of one check, plus the worst float deviation seen."""

    def __init__(self):
        self.failures: list[str] = []
        self.worst: tuple | None = None     # (relative deviation, path, expected, got)

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def bound(self, path: str, measured: float, limit: float) -> None:
        """Record a measured quantity that must stay at or below limit."""
        share = measured / limit if limit else math.inf
        if self.worst is None or share > self.worst[0]:
            self.worst = (share, path, limit, measured)
        if not measured <= limit:
            self.fail(f"{path}: measured {measured!r} exceeds limit {limit!r}")

    def number(self, path, expected, got, rel=REL_TOL, abs_floor=ABS_FLOOR) -> None:
        if (isinstance(expected, bool) or isinstance(got, bool)
                or (isinstance(expected, int) and isinstance(got, int))):
            if expected != got or type(expected) is not type(got):
                self.fail(f"{path}: expected {expected!r}, got {got!r}")
            return
        e, g = float(expected), float(got)
        diff = abs(e - g)
        scale = max(abs(e), abs(g))
        relative = diff / scale if scale else 0.0
        if self.worst is None or relative > self.worst[0]:
            self.worst = (relative, path, e, g)
        if not (diff <= rel * scale or diff <= abs_floor):
            self.fail(f"{path}: expected {e!r}, got {g!r} (relative {relative:.3e})")

    def summary(self) -> str:
        head = "; ".join(self.failures[:3])
        more = f" (+{len(self.failures) - 3} more)" if len(self.failures) > 3 else ""
        worst = ""
        if self.worst is not None:
            share, path, e, g = self.worst
            worst = f"; worst case {path}: reference/limit {e!r}, measured {g!r}"
        return head + more + worst


def compare(expected, got, report: Report, path: str = "", rule=None) -> None:
    """Walk two JSON-like values; ``rule(path)`` may return (rel, abs_floor)."""
    if isinstance(expected, dict) and isinstance(got, dict):
        for key in sorted(set(expected) | set(got)):
            sub = f"{path}/{key}"
            if key not in got:
                report.fail(f"{sub}: missing")
            elif key not in expected:
                report.fail(f"{sub}: unexpected")
            else:
                compare(expected[key], got[key], report, sub, rule)
    elif isinstance(expected, list) and isinstance(got, list):
        if len(expected) != len(got):
            report.fail(f"{path}: length {len(got)}, expected {len(expected)}")
            return
        for i, (e, g) in enumerate(zip(expected, got)):
            compare(e, g, report, f"{path}[{i}]", rule)
    elif isinstance(expected, (int, float)) and isinstance(got, (int, float)):
        tol = rule(path) if rule else None
        if tol is None:
            report.number(path, expected, got)
        else:
            report.number(path, expected, got, *tol)
    elif expected != got:
        report.fail(f"{path}: expected {expected!r}, got {got!r}")


# --- readers -----------------------------------------------------------------------

def _token(text: str):
    if _INT.match(text):
        return int(text)
    try:
        return float(text)
    except ValueError:
        return text


def read_csv(path: str) -> dict:
    """Header plus one value list per column."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    rows = [[_token(tok) for tok in line.split(",")] for line in lines[1:]]
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise ValueError(f"{os.path.basename(path)} row {i + 1} has {len(row)} fields")
    return {"header": header, "columns": {h: [r[c] for r in rows] for c, h in enumerate(header)}}


def sample_csv(path: str, max_rows: int = 64) -> dict:
    """Row count, about max_rows evenly strided rows plus the last one, and the
    sum of |value| over every row of each column."""
    table = read_csv(path)
    n_rows = len(next(iter(table["columns"].values())))
    stride = max(1, -(-n_rows // max_rows))
    keep = sorted(set(range(0, n_rows, stride)) | {n_rows - 1}) if n_rows else []
    columns = {h: [col[i] for i in keep] for h, col in table["columns"].items()}
    abs_sums = {h: math.fsum(abs(v) for v in col) for h, col in table["columns"].items()}
    return {"header": table["header"], "n_rows": n_rows, "stride": stride,
            "columns": columns, "abs_sums": abs_sums}


def read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def file_digests(root: str) -> dict[str, str]:
    """sha256 of every output file under root except the manifests."""
    out = {}
    for directory, _, files in os.walk(root):
        for name in files:
            if name == "manifest.json":
                continue
            full = os.path.join(directory, name)
            h = hashlib.sha256()
            with open(full, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    h.update(block)
            out[os.path.relpath(full, root).replace(os.sep, "/")] = h.hexdigest()
    return out


def byte_identity(expected: dict[str, str], got: dict[str, str]) -> dict:
    differing = sorted(k for k in set(expected) | set(got) if expected.get(k) != got.get(k))
    return {"byte_identical": not differing, "differing_files": differing}


# --- storage -----------------------------------------------------------------------

def reference_path(profile: str, workload: str) -> str:
    return os.path.join(REFERENCE_DIR, profile, f"{workload}.json.gz")


def load_reference(profile: str, workload: str) -> dict:
    with gzip.open(reference_path(profile, workload), "rt") as fh:
        return json.load(fh)


def save_reference(profile: str, workload: str, payload: dict) -> str:
    path = reference_path(profile, workload)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    # mtime=0 keeps the compressed bytes identical across re-recordings
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as gz:
        gz.write((json.dumps(payload, sort_keys=True) + "\n").encode())
    return path
