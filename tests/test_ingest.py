from __future__ import annotations

import gzip
import json

import pytest

from emoqueue.ingest import (
    EmptyInputError,
    IngestError,
    parse_jsonl,
    partition_conversations,
)

from helpers import make_record


def write_jsonl(tmp_path, rows, name="stream.jsonl"):
    path = tmp_path / name
    path.write_text(
        "\n".join(json.dumps(r) if isinstance(r, dict) else r for r in rows) + "\n",
        encoding="utf-8",
    )
    return path


def rec(i, parent=None, t=0.0, text="hello", author="u"):
    return {"id": i, "parent_id": parent, "author": author, "created_at": t, "text": text}


class TestParseJsonl:
    def test_three_valid_lines(self, tmp_path):
        path = write_jsonl(tmp_path, [rec("a"), rec("b", "a", 1.0), rec("c", "a", 2.0)])
        result = parse_jsonl(path)
        assert len(result) == 3
        assert result.malformed == 0

    def test_missing_id_skipped_with_count(self, tmp_path):
        row = {"parent_id": None, "author": "u", "created_at": 0, "text": "x"}
        path = write_jsonl(tmp_path, [row, rec("a")])
        result = parse_jsonl(path)
        assert len(result) == 1
        assert result.malformed == 1

    def test_duplicate_id_keeps_last(self, tmp_path):
        path = write_jsonl(tmp_path, [rec("a", text="first"), rec("a", text="second")])
        result = parse_jsonl(path)
        assert len(result) == 1
        assert result.duplicates == 1
        assert result.records[0].text == "second"

    def test_bad_json_counted(self, tmp_path):
        path = write_jsonl(tmp_path, ["{not json", json.dumps(rec("a"))])
        result = parse_jsonl(path)
        assert result.malformed == 1

    def test_negative_timestamp_rejected(self, tmp_path):
        path = write_jsonl(tmp_path, [rec("a", t=-5.0), rec("b")])
        result = parse_jsonl(path)
        assert len(result) == 1

    def test_empty_input_raises(self, tmp_path):
        path = write_jsonl(tmp_path, ["{broken"])
        with pytest.raises(EmptyInputError):
            parse_jsonl(path)

    def test_unreadable_file_raises(self, tmp_path):
        with pytest.raises(IngestError):
            parse_jsonl(tmp_path / "missing.jsonl")

    def test_gzip_by_extension(self, tmp_path):
        path = tmp_path / "stream.jsonl.gz"
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(json.dumps(rec("a")) + "\n")
        result = parse_jsonl(path)
        assert len(result) == 1

    def test_empty_parent_string_is_none(self, tmp_path):
        path = write_jsonl(tmp_path, [dict(rec("a"), parent_id="")])
        assert parse_jsonl(path).records[0].parent_id is None

    def test_records_sorted_by_time_then_id(self, tmp_path):
        path = write_jsonl(
            tmp_path, [rec("b", t=5.0), rec("c", t=3.0), rec("a", t=3.0)]
        )
        assert [r.id for r in parse_jsonl(path).records] == ["a", "c", "b"]


def replay(records):
    """(now, record) in the order the harness replays them: conversation by
    conversation, each in (created_at, id) order."""
    return [(r.created_at, r) for group in partition_conversations(records) for r in group]


class TestReplay:
    def test_order_and_clock(self):
        records = [
            make_record("b", None, 5.0, ""),
            make_record("a", None, 3.0, ""),
            make_record("c", None, 3.0, ""),
        ]
        events = list(replay(records))
        assert [(t, r.id) for t, r in events] == [(3.0, "a"), (3.0, "c"), (5.0, "b")]

    def test_single_record(self):
        records = [make_record("a", None, 1.0, "")]
        assert len(list(replay(records))) == 1

    def test_empty_stream(self):
        with pytest.raises(IngestError):
            replay([])

    def test_reparsing_yields_identical_stream(self, tmp_path):
        rows = [rec("a"), rec("b", "a", 2.0), rec("c", "b", 4.0)]
        path = write_jsonl(tmp_path, rows)
        first = parse_jsonl(path).records
        second = parse_jsonl(path).records
        assert first == second


class TestPartition:
    def test_groups_by_root_ancestor(self):
        records = [
            make_record("r1", None, 0.0, ""),
            make_record("r2", None, 1.0, ""),
            make_record("a", "r1", 2.0, ""),
            make_record("b", "a", 3.0, ""),
            make_record("c", "r2", 4.0, ""),
        ]
        groups = partition_conversations(records)
        assert [sorted(r.id for r in g) for g in groups] == [["a", "b", "r1"], ["c", "r2"]]

    def test_every_record_in_exactly_one_conversation(self):
        records = [make_record("r", None, 0.0, "")]
        records += [make_record(f"x{i}", "r" if i == 0 else f"x{i-1}", float(i + 1), "") for i in range(5)]
        groups = partition_conversations(records)
        all_ids = [r.id for g in groups for r in g]
        assert sorted(all_ids) == sorted(r.id for r in records)
        assert len(all_ids) == len(set(all_ids))

    def test_dangling_chain_joins_earliest_root(self):
        records = [
            make_record("r1", None, 0.0, ""),
            make_record("r2", None, 1.0, ""),
            make_record("lost", "gone", 2.0, ""),
        ]
        groups = partition_conversations(records)
        assert {r.id for r in groups[0]} == {"r1", "lost"}

    def test_no_root_raises(self):
        with pytest.raises(IngestError):
            partition_conversations([make_record("a", "b", 0.0, "")])

    def test_cycle_raises(self):
        records = [
            make_record("r", None, 0.0, ""),
            make_record("a", "b", 1.0, ""),
            make_record("b", "a", 2.0, ""),
        ]
        with pytest.raises(IngestError):
            partition_conversations(records)
