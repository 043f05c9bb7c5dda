"""graph6 codec, line-oriented dataset reader, and the invariant catalog.

graph6 packs the upper adjacency triangle column-wise, six bits per printable
character (ASCII 63..126).  The codec is bit-exact: parsing rejects stray
characters, wrong body lengths, and nonzero padding bits, and writing always
round-trips.  Size headers cover 1 and 4 byte forms (n <= 4096); the 8-byte
huge-graph header is rejected.  The dataset reader never raises on a
malformed line: it returns the line's failure beside the other graphs.

The catalog is a flat TSV file (header line "walkgi-catalog v3") holding one
record per graph: its id, its graph6 text, and sha256 digests of the
encodings of the two stages of ``GROUP_STAGES``, in that order: a DP1 lc-det
profile and an LW2 lc-walk signature.  It holds only what ``group`` reuses;
``walkgi info`` gives a graph's determinant and SRG parameters.  The catalog
computes neither encoding itself: records carry the encodings
``partition_group`` used, so the lc-walk digest is "-" for a graph whose
coarse class was a singleton or held one representative of certified
copies.
The encodings themselves live in a sidecar blob directory keyed by hex
digest, so equality checks can always fall back to full byte comparison.

One reuse rule, in ``catalog_read``: a record is reused only for the graph it
was computed from, that is when the caller's graph of the same id has the
same graph6 text.  Only such records get their blobs, each distinct digest
read and verified once; every other record comes back without encodings,
and its blobs are never read.  A file with any other header, v1 and v2
included, is rejected with a message to remove it and its blob directory,
so that the next run rebuilds both.  Every blob and then the TSV is written
to a temp file and renamed into place, so an interrupted write leaves the
previous catalog readable, and a blob already in place is kept only if it
holds the bytes to be written, so a damaged one is replaced.  Digest fields
are validated before they name a file.  Once the new TSV is in place, blobs
it no longer names are removed.
"""

from __future__ import annotations

import os
import re
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

from .graph import MAX_VERTICES, Graph
from .isotest import GROUP_STAGES

GRAPH6_HEADER_TOKEN = ">>graph6<<"
CATALOG_HEADER = "walkgi-catalog v3"
NO_DIGEST = "-"
_DIGEST = re.compile(r"[0-9a-f]{64}")
# a graph6 character, "?" (63) to "~" (126), as its six bits, most
# significant first, and back
_SIX_BITS = {c: format(c - 63, "06b") for c in range(63, 127)}
_SIX_CHARS = {bits: chr(c) for c, bits in _SIX_BITS.items()}
_NOT_GRAPH6 = re.compile(r"[^?-~]")


class Graph6Error(ValueError):
    """Malformed graph6 text."""


class CatalogError(ValueError):
    """Malformed or inconsistent catalog data."""


def parse_graph6(text: str) -> Graph:
    """Parse one graph6 line into a Graph.

    The body becomes one text of binary digits, the upper triangle column
    by column.  Column j, the digits for the pairs (i, j) with i < j, is
    laid out as row j of an n x n text, so the text holds the lower
    triangle and its transpose the upper; row i is then read from both
    with its digits reversed, vertex 0 least significant.  Every step is a
    string or int operation on a whole row, with no Python step per bit.
    """
    s = text.strip()
    if s.startswith(GRAPH6_HEADER_TOKEN):
        s = s[len(GRAPH6_HEADER_TOKEN):]
    if not s:
        raise Graph6Error("empty graph6 text")
    bad = _NOT_GRAPH6.search(s)
    if bad:
        raise Graph6Error(f"invalid graph6 byte at position {bad.start()}")
    data = s.encode("ascii")

    if data[0] < 126:
        n, body = data[0] - 63, data[1:]
    else:
        if len(data) >= 2 and data[1] == 126:
            raise Graph6Error("8-byte size header (n > 258047) not supported")
        if len(data) < 4:
            raise Graph6Error("truncated size header")
        n, body = (data[1] - 63) << 12 | (data[2] - 63) << 6 | (data[3] - 63), data[4:]
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
    bits = "".join(map(_SIX_BITS.__getitem__, body))
    if "1" in bits[nbits:]:
        raise Graph6Error("nonzero padding bits in graph6 body")

    zeros = "0" * n
    lower = "".join([bits[j * (j - 1) // 2:j * (j + 1) // 2] + zeros[j:] for j in range(n)])
    upper = "".join([lower[c::n] for c in range(n)])
    # reversed whole, the two texts are the matrix's digits from vertex
    # (n-1, n-1) down to (0, 0): row n-1 first, each row's digits reversed
    text = format(int(lower[::-1], 2) | int(upper[::-1], 2), f"0{n * n}b")
    rows = [int(text[k:k + n], 2) for k in range(0, n * n, n)]
    return Graph(tuple(reversed(rows)))


def write_graph6(G: Graph) -> str:
    """Canonical graph6 line; parse_graph6 reconstructs G exactly.  Column j
    of the upper triangle is the low j bits of row j, least significant
    first; the digits are cut into groups of six with no Python step per
    bit."""
    n = G.n
    if n <= 62:
        head = chr(63 + n)
    else:
        head = "~" + chr(63 + (n >> 12 & 63)) + chr(63 + (n >> 6 & 63)) + chr(63 + (n & 63))
    bits = "".join([format(row & ((1 << j) - 1), f"0{j}b")[::-1] for j, row in enumerate(G.rows) if j])
    bits += "0" * (-len(bits) % 6)
    return head + "".join(map(_SIX_CHARS.__getitem__, map("".join, zip(*[iter(bits)] * 6))))


class ParseFailure(NamedTuple):
    """A dataset line that failed to parse."""

    path: str
    lineno: int
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.lineno}: {self.message}"


def read_dataset(path: str | os.PathLike) -> tuple[list[tuple[str, Graph]], list[ParseFailure]]:
    """Read a graph6 dataset file: one graph per line, file order preserved.

    Blank lines and '#' comments are skipped, as is an optional
    '>>graph6<<' header token.  Ids are "filename:lineno".  A malformed
    line never stops the read: its failure is returned beside the graphs
    of the other lines.
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
                failures.append(ParseFailure(str(path), lineno, str(exc)))
    return entries, failures


class CatalogRecord(NamedTuple):
    """One catalog line, with the encodings of its two digests where the
    record was made by ``make_catalog_record`` or reused by ``catalog_read``."""

    id: str
    g6: str
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
    """The hex sha256 of ``enc``, or "-" for None."""
    if enc is None:
        return NO_DIGEST
    import hashlib  # imported here, so that runs without a catalog never load it

    return hashlib.sha256(enc).hexdigest()


def make_catalog_record(record_id: str, G: Graph, encodings: Mapping[str, bytes]) -> CatalogRecord:
    """A catalog record for one graph and the {stage name: encoding} dict
    computed for it; it must hold the first of ``GROUP_STAGES``, and a
    missing lc-walk encoding is recorded as the digest "-"."""
    profile, walk = encodings[GROUP_STAGES[0]], encodings.get(GROUP_STAGES[1])
    return CatalogRecord(
        id=record_id,
        g6=write_graph6(G),
        lc_profile_digest=_digest(profile),
        lc_walk_digest=_digest(walk),
        lc_profile_encoding=profile,
        lc_walk_encoding=walk,
    )


def blob_dir(path: str | os.PathLike) -> Path:
    return Path(f"{os.fspath(path)}.blobs")


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


def check_catalog_field(value: str) -> None:
    """Raise ``CatalogError`` unless ``value`` can be a catalog field: it
    holds no tab and none of the line breaks ``catalog_read`` splits on,
    every one that ``str.splitlines`` knows."""
    if "\t" in value or value.splitlines() not in ([], [value]):
        raise CatalogError(f"field {value!r} contains a tab or a line break")


def catalog_write(records: Iterable[CatalogRecord], path: str | os.PathLike) -> None:
    """Write sidecar blobs for records carrying encodings, then the catalog
    TSV; each file is replaced atomically, the TSV last, and a blob already
    in place is kept only if it holds the same bytes.  Then remove every
    digest-named blob that no record names (a stale record was replaced);
    temp files and other files in the blob directory are left alone."""
    records = list(records)
    lines = [CATALOG_HEADER]
    for rec in records:
        check_catalog_field(rec.id)
        check_catalog_field(rec.g6)
        lines.append("\t".join((rec.id, rec.g6, rec.lc_profile_digest, rec.lc_walk_digest)))
    blobs = blob_dir(path)
    pending: dict[str, bytes] = {}
    for rec in records:
        for digest, enc in (
            (rec.lc_profile_digest, rec.lc_profile_encoding),
            (rec.lc_walk_digest, rec.lc_walk_encoding),
        ):
            # reused records share the bytes catalog_read loaded: hash each once
            if enc is not None and pending.get(digest) is not enc:
                if _digest(enc) != digest:
                    raise CatalogError(f"record {rec.id!r}: digest does not match encoding")
                pending[digest] = enc
    if pending:
        blobs.mkdir(exist_ok=True)
        for digest, enc in pending.items():
            target = blobs / digest
            try:
                kept = target.read_bytes() == enc
            except OSError:
                kept = False
            if not kept:
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
    encodings, and its blobs are never read.  A file headed other than
    ``CATALOG_HEADER`` is rejected, its blobs unread."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    blobs = blob_dir(path)
    if not lines or lines[0] != CATALOG_HEADER:
        found = lines[0] if lines else "<empty file>"
        raise CatalogError(f"{path}: unsupported catalog version {found!r}, expected "
                           f"{CATALOG_HEADER!r}; remove {path} and {blobs}/ to rebuild both")
    loaded: dict[str, bytes | None] = {NO_DIGEST: None}

    def blob(digest: str) -> bytes | None:
        if digest not in loaded:
            target = blobs / digest
            data = target.read_bytes() if target.is_file() else None
            if data is not None and _digest(data) != digest:
                raise CatalogError(f"{path}: sidecar blob {digest} fails digest check")
            loaded[digest] = data
        return loaded[digest]

    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 4:
            raise CatalogError(f"{path}:{lineno}: expected 4 fields, got {len(fields)}")
        rec_id, g6, profile_digest, walk_digest = fields
        where = f"{path}:{lineno}"
        # digests name files under the blob directory: nothing else may pass
        if not _DIGEST.fullmatch(profile_digest):
            raise CatalogError(f"{where}: bad lc-profile digest {profile_digest!r}")
        if not (walk_digest == NO_DIGEST or _DIGEST.fullmatch(walk_digest)):
            raise CatalogError(f"{where}: bad lc-walk digest {walk_digest!r}")
        profile = walk = None
        if rec_id in graphs and write_graph6(graphs[rec_id]) == g6:
            profile, walk = blob(profile_digest), blob(walk_digest)
        records.append(CatalogRecord(rec_id, g6, profile_digest, walk_digest, profile, walk))
    return records
