"""graph6 codec, line-oriented dataset reader, and the invariant catalog.

graph6 packs the upper adjacency triangle column-wise, six bits per printable
character (ASCII 63..126).  The codec is bit-exact: parsing rejects stray
characters, wrong body lengths, and nonzero padding bits, and writing always
round-trips.  Size headers cover 1 and 4 byte forms (n <= 4096); the 8-byte
huge-graph header is rejected.

The catalog is a flat TSV file (header line "walkgi-catalog v2") holding one
record per graph: its graph6 text, strong-regularity parameters, exact
determinant as decimal text, and sha256 digests of the encodings of the two
stages of ``GROUP_STAGES``, in that order: a DP1 lc-det profile and an LW2
lc-walk signature.  The catalog computes neither encoding itself: records
carry the encodings ``partition_group`` used, so the lc-walk digest is "-"
for a graph whose coarse class was a singleton.  The encodings themselves
live in a sidecar blob directory keyed by hex digest, so equality checks can
always fall back to full byte comparison.

One reuse rule, in ``catalog_read``: a record is reused only for the graph it
was computed from, that is when the caller's graph of the same id has the
same graph6 text.  Only such records get their blobs, each distinct digest
read and verified once; every other record comes back without encodings,
and its blobs are never read.  A v1 file is read too: it has the same
columns, but its lc-walk digests name LW1 encodings, which must never meet
LW2 bytes in one class, so they come back as "-" and their blobs are
neither read nor written back.  Every blob and then the TSV is written to a
temp file and renamed into place, so an interrupted write leaves the
previous catalog readable; digest fields are validated before they name a
file.  Once the new TSV is in place, blobs it no longer names are removed.
"""

from __future__ import annotations

import hashlib
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

from .graph import MAX_VERTICES, Graph, SrgParams, srg_parameters
from .isotest import GROUP_STAGES
from .linalg import determinant

GRAPH6_HEADER_TOKEN = ">>graph6<<"
CATALOG_HEADER = "walkgi-catalog v2"
# same columns; its lc-walk digests name LW1 encodings, which are dropped
_CATALOG_HEADER_V1 = "walkgi-catalog v1"
NO_DIGEST = "-"
_DIGEST = re.compile(r"[0-9a-f]{64}")


class Graph6Error(ValueError):
    """Malformed graph6 text."""


class DatasetError(ValueError):
    """Dataset read aborted (strict mode)."""


class CatalogError(ValueError):
    """Malformed or inconsistent catalog data."""


def parse_graph6(text: str) -> Graph:
    """Parse one graph6 line into a Graph."""
    s = text.strip()
    if s.startswith(GRAPH6_HEADER_TOKEN):
        s = s[len(GRAPH6_HEADER_TOKEN):]
    if not s:
        raise Graph6Error("empty graph6 text")
    vals = []
    for pos, ch in enumerate(s):
        b = ord(ch)
        if not 63 <= b <= 126:
            raise Graph6Error(f"invalid graph6 byte at position {pos}")
        vals.append(b - 63)

    if vals[0] < 63:
        n = vals[0]
        body = vals[1:]
    else:
        if len(vals) >= 2 and vals[1] == 63:
            raise Graph6Error("8-byte size header (n > 258047) not supported")
        if len(vals) < 4:
            raise Graph6Error("truncated size header")
        n = (vals[1] << 12) | (vals[2] << 6) | vals[3]
        body = vals[4:]
    if n == 0:
        raise Graph6Error("graph must have at least one vertex")
    if n > MAX_VERTICES:
        raise Graph6Error(f"vertex count {n} exceeds cap {MAX_VERTICES}")

    nbits = n * (n - 1) // 2
    expected = (nbits + 5) // 6
    if len(body) != expected:
        raise Graph6Error(
            f"truncated/overlong body: expected {expected} characters for n={n}, got {len(body)}"
        )

    rows = [0] * n
    t = 0
    i, j = 0, 1
    for val in body:
        for shift in (5, 4, 3, 2, 1, 0):
            bit = (val >> shift) & 1
            if t < nbits:
                if bit:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
                i += 1
                if i == j:
                    i = 0
                    j += 1
            elif bit:
                raise Graph6Error("nonzero padding bits in graph6 body")
            t += 1
    return Graph(tuple(rows))


def write_graph6(G: Graph) -> str:
    """Canonical graph6 line; parse_graph6 reconstructs G exactly."""
    n = G.n
    out = []
    if n <= 62:
        out.append(chr(63 + n))
    else:
        out.append("~")
        out.append(chr(63 + ((n >> 12) & 63)))
        out.append(chr(63 + ((n >> 6) & 63)))
        out.append(chr(63 + (n & 63)))
    acc = 0
    nbits = 0
    for j in range(1, n):
        row_j = G.rows[j]
        for i in range(j):
            acc = (acc << 1) | ((row_j >> i) & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(63 + acc))
                acc = 0
                nbits = 0
    if nbits:
        out.append(chr(63 + (acc << (6 - nbits))))
    return "".join(out)


@dataclass(frozen=True, slots=True)
class ParseFailure:
    path: str
    lineno: int
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.lineno}: {self.message}"


def read_dataset(
    path: str | os.PathLike, strict: bool = False
) -> tuple[list[tuple[str, Graph]], list[ParseFailure]]:
    """Read a graph6 dataset file: one graph per line, file order preserved.

    Blank lines and '#' comments are skipped, as is an optional
    '>>graph6<<' header token.  Ids are "filename:lineno".  Parse failures
    are collected and returned; with strict=True the first failure raises
    DatasetError instead.
    """
    path = Path(path)
    name = path.name
    entries: list[tuple[str, Graph]] = []
    failures: list[ParseFailure] = []
    with open(path, encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            s = line.strip()
            if s.startswith(GRAPH6_HEADER_TOKEN):
                s = s[len(GRAPH6_HEADER_TOKEN):].strip()
            if not s or s.startswith("#"):
                continue
            try:
                entries.append((f"{name}:{lineno}", parse_graph6(s)))
            except Graph6Error as exc:
                if strict:
                    raise DatasetError(f"{path}:{lineno}: {exc}") from exc
                failures.append(ParseFailure(str(path), lineno, str(exc)))
    return entries, failures


@dataclass(frozen=True, slots=True)
class CatalogRecord:
    """One catalog line, with the encodings of its two digests where the
    record was made by ``make_catalog_record`` or reused by ``catalog_read``."""

    id: str
    g6: str
    params: SrgParams | None
    det: int
    lc_profile_digest: str
    lc_walk_digest: str
    lc_profile_encoding: bytes | None = None
    lc_walk_encoding: bytes | None = None

    def encodings(self) -> dict[str, bytes]:
        """{stage name: encoding} over ``GROUP_STAGES``, for the encodings
        the record carries."""
        return {stage: enc for stage, enc in
                zip(GROUP_STAGES, (self.lc_profile_encoding, self.lc_walk_encoding))
                if enc is not None}


def _digest(enc: bytes | None) -> str:
    return NO_DIGEST if enc is None else hashlib.sha256(enc).hexdigest()


def make_catalog_record(record_id: str, G: Graph, encodings: Mapping[str, bytes]) -> CatalogRecord:
    """A catalog record for one graph and the {stage name: encoding} dict
    computed for it; it must hold the first of ``GROUP_STAGES``, and a
    missing lc-walk encoding is recorded as the digest "-"."""
    profile, walk = encodings[GROUP_STAGES[0]], encodings.get(GROUP_STAGES[1])
    return CatalogRecord(
        id=record_id,
        g6=write_graph6(G),
        params=srg_parameters(G),
        det=determinant(G),
        lc_profile_digest=_digest(profile),
        lc_walk_digest=_digest(walk),
        lc_profile_encoding=profile,
        lc_walk_encoding=walk,
    )


def blob_dir(path: str | os.PathLike) -> Path:
    return Path(f"{os.fspath(path)}.blobs")


def _params_text(params: SrgParams | None) -> str:
    if params is None:
        return "-"
    return f"{params.n},{params.d},{params.alpha},{params.beta}"


def _parse_params(text: str, where: str) -> SrgParams | None:
    if text == "-":
        return None
    parts = text.split(",")
    if len(parts) != 4:
        raise CatalogError(f"{where}: bad params field {text!r}")
    try:
        n, d, alpha, beta = (int(p) for p in parts)
    except ValueError as exc:
        raise CatalogError(f"{where}: bad params field {text!r}") from exc
    return SrgParams(n, d, alpha, beta)


def _replace_file(target: Path, data: bytes) -> None:
    """Write ``data`` to ``target`` through a temp file in the same directory,
    so ``target`` never holds partial bytes."""
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def catalog_write(records: Iterable[CatalogRecord], path: str | os.PathLike) -> None:
    """Write sidecar blobs for records carrying encodings, then the catalog
    TSV; each file is replaced atomically, the TSV last.  Then remove every
    digest-named blob that no record names (a stale record was replaced);
    temp files and other files in the blob directory are left alone."""
    records = list(records)
    lines = [CATALOG_HEADER]
    for rec in records:
        for field_value in (rec.id, rec.g6):
            if "\t" in field_value or "\n" in field_value:
                raise CatalogError(f"field {field_value!r} contains tab/newline")
        lines.append(
            "\t".join(
                (
                    rec.id,
                    rec.g6,
                    _params_text(rec.params),
                    str(rec.det),
                    rec.lc_profile_digest,
                    rec.lc_walk_digest,
                )
            )
        )
    blobs = blob_dir(path)
    pending: dict[str, bytes] = {}
    for rec in records:
        for digest, enc in (
            (rec.lc_profile_digest, rec.lc_profile_encoding),
            (rec.lc_walk_digest, rec.lc_walk_encoding),
        ):
            # reused records share the bytes catalog_read loaded: hash each once
            if enc is not None and pending.get(digest) is not enc:
                if hashlib.sha256(enc).hexdigest() != digest:
                    raise CatalogError(f"record {rec.id!r}: digest does not match encoding")
                pending[digest] = enc
    if pending:
        blobs.mkdir(parents=True, exist_ok=True)
        for digest, enc in pending.items():
            target = blobs / digest
            if not target.exists():
                _replace_file(target, enc)
    _replace_file(Path(path), ("\n".join(lines) + "\n").encode("utf-8"))
    if blobs.is_dir():
        named = {d for rec in records for d in (rec.lc_profile_digest, rec.lc_walk_digest)}
        for blob in blobs.iterdir():
            if _DIGEST.fullmatch(blob.name) and blob.name not in named:
                blob.unlink(missing_ok=True)


def catalog_read(path: str | os.PathLike, graphs: Mapping[str, Graph]) -> list[CatalogRecord]:
    """Read a catalog's records.  A record whose id names a graph of
    ``graphs`` with the same graph6 text comes back with the verified blobs
    its digests name, None for a missing blob or the digest "-"; each
    distinct digest is read once.  Every other record comes back without
    encodings, and its blobs are never read.  A v1 record's lc-walk digest
    comes back as "-", so its LW1 blob is neither read nor kept."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines or lines[0] not in (CATALOG_HEADER, _CATALOG_HEADER_V1):
        found = lines[0] if lines else "<empty file>"
        raise CatalogError(f"unsupported catalog version: {found!r}")
    v1 = lines[0] == _CATALOG_HEADER_V1
    blobs = blob_dir(path)
    loaded: dict[str, bytes | None] = {NO_DIGEST: None}

    def blob(digest: str) -> bytes | None:
        if digest not in loaded:
            target = blobs / digest
            data = target.read_bytes() if target.is_file() else None
            if data is not None and hashlib.sha256(data).hexdigest() != digest:
                raise CatalogError(f"{path}: sidecar blob {digest} fails digest check")
            loaded[digest] = data
        return loaded[digest]

    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 6:
            raise CatalogError(f"{path}:{lineno}: expected 6 fields, got {len(fields)}")
        rec_id, g6, params_text, det_text, profile_digest, walk_digest = fields
        where = f"{path}:{lineno}"
        try:
            det = int(det_text)
        except ValueError as exc:
            raise CatalogError(f"{where}: bad determinant field {det_text!r}") from exc
        params = _parse_params(params_text, where)
        # digests name files under the blob directory: nothing else may pass
        if not _DIGEST.fullmatch(profile_digest):
            raise CatalogError(f"{where}: bad lc-profile digest {profile_digest!r}")
        if not (walk_digest == NO_DIGEST or _DIGEST.fullmatch(walk_digest)):
            raise CatalogError(f"{where}: bad lc-walk digest {walk_digest!r}")
        if v1:
            walk_digest = NO_DIGEST
        profile = walk = None
        if rec_id in graphs and write_graph6(graphs[rec_id]) == g6:
            profile, walk = blob(profile_digest), blob(walk_digest)
        records.append(
            CatalogRecord(
                id=rec_id,
                g6=g6,
                params=params,
                det=det,
                lc_profile_digest=profile_digest,
                lc_walk_digest=walk_digest,
                lc_profile_encoding=profile,
                lc_walk_encoding=walk,
            )
        )
    return records
