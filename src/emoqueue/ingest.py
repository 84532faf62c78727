"""Ingestion of conversation exports into canonical comment streams.

One JSONL record per comment: ``{"id", "parent_id", "author", "created_at",
"text"}``. Files are replayed in (created_at, id) order as a discrete-event
sequence with the record's own timestamp as the simulated clock. Typical
platform exports map onto this schema directly; for Reddit-style dumps strip
the ``t1_``/``t3_`` prefixes from parent references into ``parent_id``, for
Twitter-style dumps use ``in_reply_to_status_id`` as ``parent_id``.
"""

from __future__ import annotations

import gzip
import json
import logging
from dataclasses import dataclass
from pathlib import Path

logger = logging.getLogger(__name__)


class IngestError(Exception):
    """Input file could not be read or parsed."""


class EmptyInputError(IngestError):
    """The input held no valid records."""


@dataclass(frozen=True, slots=True)
class RawRecord:
    """One unclassified comment as it appears in an export."""

    id: str
    parent_id: str | None
    author: str
    created_at: float
    text: str


@dataclass(frozen=True)
class ParseResult:
    """Parsed records plus counts of skipped and superseded lines."""

    records: list[RawRecord]
    malformed: int = 0
    duplicates: int = 0

    def __len__(self) -> int:
        return len(self.records)


def _coerce_record(obj: object) -> RawRecord | None:
    if not isinstance(obj, dict):
        return None
    rid = obj.get("id")
    author = obj.get("author")
    created = obj.get("created_at")
    text = obj.get("text")
    parent = obj.get("parent_id")
    if not isinstance(rid, str) or not rid:
        return None
    if not isinstance(author, str):
        return None
    if not isinstance(created, (int, float)) or isinstance(created, bool) or created < 0:
        return None
    if not isinstance(text, str):
        return None
    if parent is not None and not isinstance(parent, str):
        return None
    if parent == "":
        parent = None
    return RawRecord(
        id=rid, parent_id=parent, author=author, created_at=float(created), text=text
    )


def parse_jsonl(path: str | Path) -> ParseResult:
    """Parse a JSONL (optionally gzip-compressed) file of raw records.

    Malformed lines are skipped and counted; a duplicated id keeps the last
    record seen. Raises IngestError if the file is unreadable and
    EmptyInputError if no valid record survives.
    """
    path = Path(path)
    opener = gzip.open if path.suffix == ".gz" else open
    by_id: dict[str, RawRecord] = {}
    malformed = 0
    duplicates = 0
    try:
        with opener(path, "rt", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError:
                    malformed += 1
                    continue
                record = _coerce_record(obj)
                if record is None:
                    malformed += 1
                    continue
                if record.id in by_id:
                    duplicates += 1
                by_id[record.id] = record
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc}") from exc
    if malformed:
        logger.warning("%s: skipped %d malformed line(s)", path, malformed)
    if duplicates:
        logger.warning("%s: %d duplicate id(s), last record kept", path, duplicates)
    if not by_id:
        raise EmptyInputError(f"{path}: no valid records")
    records = sorted(by_id.values(), key=lambda r: (r.created_at, r.id))
    return ParseResult(records=records, malformed=malformed, duplicates=duplicates)


def partition_conversations(records: list[RawRecord]) -> list[list[RawRecord]]:
    """Group records by their root ancestor into per-conversation streams.

    Each group is sorted in replay order; groups are ordered by their root's
    (created_at, id). A record whose parent chain leaves the file (a dangling
    subthread) joins the earliest root's conversation, where the graph layer
    will reattach it as an orphan. Raises IngestError when no root exists.
    """
    by_id = {r.id: r for r in records}
    roots = sorted(
        (r for r in records if r.parent_id is None), key=lambda r: (r.created_at, r.id)
    )
    if not roots:
        raise IngestError("no root record (absent parent_id) in input")
    fallback_root = roots[0].id

    anchor: dict[str, str] = {}

    def resolve(rid: str) -> str:
        path: list[str] = []
        cur = rid
        seen: set[str] = set()
        while True:
            cached = anchor.get(cur)
            if cached is not None:
                break
            if cur in seen:
                raise IngestError(f"reply cycle involving {cur!r}")
            seen.add(cur)
            path.append(cur)
            parent = by_id[cur].parent_id
            if parent is None:
                cached = cur
                break
            if parent not in by_id:
                cached = fallback_root
                break
            cur = parent
        for p in path:
            anchor[p] = cached
        return cached

    groups: dict[str, list[RawRecord]] = {}
    for record in records:
        groups.setdefault(resolve(record.id), []).append(record)
    ordered_roots = [r.id for r in roots]
    out: list[list[RawRecord]] = []
    for root_id in ordered_roots:
        group = groups.get(root_id)
        if group:
            out.append(sorted(group, key=lambda r: (r.created_at, r.id)))
    return out
