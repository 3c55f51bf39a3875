"""Tests for the commit journal and recovery."""

import pytest

from repro.active import ActiveDatabase
from repro.active.journal import Journal
from repro.errors import StorageError, TransactionError
from repro.lang.atoms import atom
from repro.lang.updates import delete, insert
from repro.storage.database import Database
from repro.storage.delta import Delta

RULES = "@name(cleanup) emp(X), not active(X), payroll(X, S) -> -payroll(X, S)."


def make_db(tmp_path, journal=True):
    db = ActiveDatabase.from_text(
        "emp(joe). active(joe). payroll(joe, 10).",
        journal=str(tmp_path / "commits.journal") if journal else None,
    )
    db.add_rule(RULES)
    return db


class TestJournalFile:
    def test_append_and_read(self, tmp_path):
        journal = Journal(str(tmp_path / "j.log"))
        journal.append(1, (insert(atom("p", "a")),), Delta([insert(atom("p", "a"))]))
        journal.append(
            2, (delete(atom("p", "a")),), Delta([delete(atom("p", "a"))])
        )
        records = journal.records()
        assert [r.transaction_id for r in records] == [1, 2]
        assert records[0].delta.inserts == frozenset({atom("p", "a")})

    def test_missing_file_is_empty(self, tmp_path):
        assert Journal(str(tmp_path / "absent.log")).records() == []

    def test_replay(self, tmp_path):
        journal = Journal(str(tmp_path / "j.log"))
        journal.append(1, (), Delta([insert(atom("p"))]))
        journal.append(2, (), Delta([insert(atom("q")), delete(atom("p"))]))
        replayed = journal.replay(Database(), in_place=False)
        assert replayed == Database.from_text("q.")

    def test_truncated_tail_tolerated(self, tmp_path):
        path = tmp_path / "j.log"
        journal = Journal(str(path))
        journal.append(1, (), Delta([insert(atom("p"))]))
        with open(path, "a") as handle:
            handle.write("tx=2|requested=")  # crash mid-append
        records = journal.records()
        assert [r.transaction_id for r in records] == [1]
        assert journal.corrupt_tail is not None

    def test_corruption_in_middle_raises(self, tmp_path):
        path = tmp_path / "j.log"
        journal = Journal(str(path))
        journal.append(1, (), Delta([insert(atom("p"))]))
        with open(path, "a") as handle:
            handle.write("garbage line\n")
        with open(path, "a") as handle:
            handle.write("tx=3|requested=|applied=+q\n")
        with pytest.raises(StorageError):
            journal.records()

    def test_torn_tail_followed_by_blank_lines_tolerated(self, tmp_path):
        # A bad line used to be tolerated only at the literal last index,
        # so trailing blank line(s) after a torn record blocked recovery.
        path = tmp_path / "j.log"
        journal = Journal(str(path))
        journal.append(1, (), Delta([insert(atom("p"))]))
        with open(path, "a") as handle:
            handle.write("v2|tx=2|len=999")  # torn mid-append
            handle.write("\n\n  \n")  # trailing blanks
        reread = Journal(str(path))
        assert [r.transaction_id for r in reread.records()] == [1]
        assert reread.corrupt_tail is not None

    def test_unterminated_final_record_is_torn(self, tmp_path):
        # A record missing only its trailing newline parses, but the next
        # append would concatenate onto it — it must count as torn and be
        # truncated before new records are written.
        path = tmp_path / "j.log"
        journal = Journal(str(path))
        journal.append(1, (), Delta([insert(atom("p"))]))
        journal.append(2, (), Delta([insert(atom("q"))]))
        data = path.read_bytes()
        path.write_bytes(data[:-1])  # strip the final newline
        reread = Journal(str(path))
        assert [r.transaction_id for r in reread.records()] == [1]
        assert reread.corrupt_tail is not None
        reread.append(3, (), Delta([insert(atom("r"))]))
        final = Journal(str(path))
        assert [r.transaction_id for r in final.records()] == [1, 3]
        assert final.corrupt_tail is None

    def test_repair_tail_truncates_and_is_idempotent(self, tmp_path):
        path = tmp_path / "j.log"
        journal = Journal(str(path))
        journal.append(1, (), Delta([insert(atom("p"))]))
        clean_size = path.stat().st_size
        with open(path, "a") as handle:
            handle.write("v2|tx=2|len=")
        repairer = Journal(str(path))
        assert repairer.repair_tail() is True
        assert path.stat().st_size == clean_size
        assert repairer.repair_tail() is False
        assert Journal(str(path)).repair_tail() is False

    def test_len_is_cached_after_first_scan(self, tmp_path):
        journal = Journal(str(tmp_path / "j.log"))
        journal.append(1, (), Delta([insert(atom("p"))]))
        assert len(journal) == 1
        journal.append(2, (), Delta([insert(atom("q"))]))
        # append keeps the cached count current without re-parsing
        assert journal._count == 2
        assert len(journal) == 2
        journal.truncate()
        assert len(journal) == 0


class TestVersionCompatibility:
    V1_LINES = (
        "tx=1|requested=+emp(joe)|applied=+emp(joe);+audit(joe)\n"
        "tx=2|requested=-emp(joe)|applied=-emp(joe)\n"
    )

    def test_v1_journal_still_reads(self, tmp_path):
        path = tmp_path / "v1.journal"
        path.write_text(self.V1_LINES)
        records = Journal(str(path)).records()
        assert [r.transaction_id for r in records] == [1, 2]
        assert [r.version for r in records] == [1, 1]
        assert atom("audit", "joe") in records[0].delta.inserts

    def test_appending_to_a_v1_journal_writes_v2(self, tmp_path):
        path = tmp_path / "v1.journal"
        path.write_text(self.V1_LINES)
        journal = Journal(str(path))
        journal.append(3, (), Delta([insert(atom("note", "a|b"))]))
        records = Journal(str(path)).records()
        assert [r.version for r in records] == [1, 1, 2]
        assert atom("note", "a|b") in records[2].delta.inserts

    def test_v1_journal_recovers_into_activedb(self, tmp_path):
        from repro.storage.textio import dump_database

        snapshot = tmp_path / "base.park"
        dump_database(Database(), str(snapshot))
        path = tmp_path / "v1.journal"
        path.write_text(self.V1_LINES)
        recovered = ActiveDatabase.recover(str(snapshot), str(path))
        assert recovered.rows("audit") == [("joe",)]
        assert recovered.rows("emp") == []
        assert recovered._next_tx == 3

    def test_quoted_constants_roundtrip(self, tmp_path):
        journal = Journal(str(tmp_path / "j.log"))
        fancy = atom("note", "two words")
        journal.append(1, (insert(fancy),), Delta([insert(fancy)]))
        (record,) = journal.records()
        assert fancy in record.delta.inserts

    @pytest.mark.parametrize(
        "value",
        [
            "pipe|inside",
            "semi;colon",
            "line\nbreak",
            "cr\rhere",
            "percent 100%",
            "escaped %7C literal",
            'quo"te\\back',
            "tab\tstop",
            "all|of;it\n%7C%0A\\together",
        ],
    )
    def test_structural_bytes_in_constants_roundtrip(self, tmp_path, value):
        # v1 corrupted on | ; and newline inside quoted constants; v2
        # framing must round-trip every one of them bit-exactly.
        journal = Journal(str(tmp_path / "j.log"))
        nasty = atom("note", value, "plain")
        journal.append(
            1, (insert(nasty),), Delta([insert(nasty), delete(atom("p"))])
        )
        (record,) = Journal(str(tmp_path / "j.log")).records()
        assert record.requested == (insert(nasty),)
        assert nasty in record.delta.inserts
        assert atom("p") in record.delta.deletes

    def test_records_are_one_line_each(self, tmp_path):
        path = tmp_path / "j.log"
        journal = Journal(str(path))
        nasty = atom("note", "a|b;c\nd")
        journal.append(1, (insert(nasty),), Delta([insert(nasty)]))
        journal.append(2, (), Delta([insert(atom("q"))]))
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        assert len(lines) == 2
        assert all(line.startswith("v2|") for line in lines)

    def test_crc_detects_bit_rot(self, tmp_path):
        path = tmp_path / "j.log"
        journal = Journal(str(path))
        journal.append(1, (), Delta([insert(atom("p", "aa"))]))
        data = bytearray(path.read_bytes())
        data[-5] ^= 0x01  # flip one payload bit, keep the length intact
        path.write_bytes(bytes(data))
        reread = Journal(str(path))
        assert reread.records() == []  # sole record = tail, tolerated
        assert reread.corrupt_tail is not None

    def test_truncate(self, tmp_path):
        journal = Journal(str(tmp_path / "j.log"))
        journal.append(1, (), Delta([insert(atom("p"))]))
        journal.truncate()
        assert len(journal) == 0


class TestActiveDatabaseIntegration:
    def test_commits_are_journaled(self, tmp_path):
        db = make_db(tmp_path)
        db.delete("active", "joe")
        (record,) = db.journal.records()
        assert record.transaction_id == 1
        assert atom("payroll", "joe", 10) in record.delta.deletes

    def test_recover_reproduces_state(self, tmp_path):
        snapshot = tmp_path / "base.park"
        db = make_db(tmp_path)
        db.checkpoint(str(snapshot))  # checkpoint the initial state
        db.delete("active", "joe")
        db.insert("emp", "ann")

        recovered = ActiveDatabase.recover(
            str(snapshot), str(tmp_path / "commits.journal"), rules=[]
        )
        assert recovered.database == db.database
        # transaction numbering continues after the journaled history
        assert recovered._next_tx == 3

    def test_checkpoint_truncates_journal(self, tmp_path):
        db = make_db(tmp_path)
        db.delete("active", "joe")
        snapshot = tmp_path / "base.park"
        db.checkpoint(str(snapshot))
        assert len(db.journal) == 0
        recovered = ActiveDatabase.recover(
            str(snapshot), str(tmp_path / "commits.journal")
        )
        assert recovered.database == db.database

    def test_recovery_ignores_rule_changes(self, tmp_path):
        # Replaying deltas (not rules) makes recovery independent of the
        # current rule set.
        snapshot = tmp_path / "base.park"
        db = make_db(tmp_path)
        db.checkpoint(str(snapshot))
        db.delete("active", "joe")
        recovered = ActiveDatabase.recover(
            str(snapshot),
            str(tmp_path / "commits.journal"),
            rules=["p0 -> +q0."],  # different rules entirely
        )
        assert recovered.database == db.database

    def test_rejected_updates_keep_history_recoverable(self, tmp_path):
        # Malformed staged updates fail before commit, so the journal and
        # a fresh checkpoint both still parse back into the same state.
        snapshot = tmp_path / "base.park"
        journal_path = str(tmp_path / "commits.journal")
        db = make_db(tmp_path)
        db.checkpoint(str(snapshot))
        for args in (("bad name", 1), ("event(k0)",), ("payroll", "joe")):
            with pytest.raises(TransactionError):
                db.insert(*args)
        db.delete("active", "joe")
        db.insert("emp", "ann")
        recovered = ActiveDatabase.recover(str(snapshot), journal_path)
        assert recovered.database == db.database
        db.checkpoint(str(snapshot))
        recovered = ActiveDatabase.recover(str(snapshot), journal_path)
        assert recovered.database == db.database

    def test_no_journal_by_default(self, tmp_path):
        db = make_db(tmp_path, journal=False)
        db.delete("active", "joe")
        assert db.journal is None

    def test_recover_with_corrupt_tail_repairs_and_continues(self, tmp_path):
        snapshot = tmp_path / "base.park"
        journal_path = tmp_path / "commits.journal"
        db = make_db(tmp_path)
        db.checkpoint(str(snapshot))
        db.delete("active", "joe")
        expected = db.database.copy()
        with open(journal_path, "a") as handle:
            handle.write("v2|tx=2|len=55|crc=0000")  # crash mid-append
        recovered = ActiveDatabase.recover(str(snapshot), str(journal_path))
        assert recovered.database == expected
        assert recovered._next_tx == 2
        # the torn bytes were truncated during recover, not left to be
        # concatenated onto by the next commit
        recovered.insert("emp", "ann")
        records = Journal(str(journal_path)).records()
        assert [r.transaction_id for r in records] == [1, 2]

    def test_recover_after_mid_history_checkpoint(self, tmp_path):
        snapshot = tmp_path / "base.park"
        journal_path = tmp_path / "commits.journal"
        db = make_db(tmp_path)
        db.delete("active", "joe")  # journaled, then folded into the...
        db.checkpoint(str(snapshot))  # ...snapshot; journal truncated
        assert len(db.journal) == 0
        db.insert("emp", "ann")  # only this commit is journaled
        recovered = ActiveDatabase.recover(str(snapshot), str(journal_path))
        assert recovered.database == db.database
        # numbering continues from the journaled suffix, not from 1
        assert recovered._next_tx == 3

    def test_recover_next_tx_from_empty_journal(self, tmp_path):
        snapshot = tmp_path / "base.park"
        db = make_db(tmp_path)
        db.checkpoint(str(snapshot))
        recovered = ActiveDatabase.recover(
            str(snapshot), str(tmp_path / "commits.journal")
        )
        assert recovered._next_tx == 1
        assert recovered.database == db.database

    def test_recover_parses_the_journal_once(self, tmp_path, monkeypatch):
        # recover used to call journal.records() twice (replay + tx ids)
        snapshot = tmp_path / "base.park"
        db = make_db(tmp_path)
        db.checkpoint(str(snapshot))
        db.delete("active", "joe")
        calls = []
        original = Journal._scan

        def counting_scan(self):
            calls.append(self.path)
            return original(self)

        monkeypatch.setattr(Journal, "_scan", counting_scan)
        ActiveDatabase.recover(str(snapshot), str(tmp_path / "commits.journal"))
        assert len(calls) == 1

    def test_group_commit_convenience(self, tmp_path):
        db = make_db(tmp_path)
        with db.group_commit(4):
            for index in range(6):
                db.insert("emp", "bulk_%d" % index)
        assert len(db.journal) == 6
        assert len(Journal(str(tmp_path / "commits.journal")).records()) == 6

    def test_group_commit_without_journal_is_noop(self, tmp_path):
        db = make_db(tmp_path, journal=False)
        with db.group_commit(4):
            db.insert("emp", "ann")
        assert db.contains("emp", "ann")


def _record(journal, tx_id, name):
    update = insert(atom("p", name))
    journal.append(tx_id, (update,), Delta([update]))


class TestGroupCommitEdges:
    """Edge cases the fault-injection suite does not reach directly."""

    @pytest.mark.parametrize("size", [0, -1, -100])
    def test_nonpositive_size_clamps_to_one(self, tmp_path, size):
        journal = Journal(str(tmp_path / "j.log"))
        with journal.group_commit(size):
            assert journal._group_size == 1
            _record(journal, 1, "a")
            # Size 1 means every append syncs immediately: nothing defers.
            assert journal._pending_syncs == 0
        assert journal._group_size == 1
        assert len(journal.records()) == 1

    def test_exception_restores_size_and_syncs_prefix(self, tmp_path):
        journal = Journal(str(tmp_path / "j.log"))
        with pytest.raises(RuntimeError):
            with journal.group_commit(10):
                _record(journal, 1, "a")
                _record(journal, 2, "b")
                assert journal._pending_syncs == 2  # deferred inside the block
                raise RuntimeError("crash mid-batch")
        # The context manager restored the immediate-sync default and
        # flushed the written prefix on the way out.
        assert journal._group_size == 1
        assert journal._pending_syncs == 0
        assert [record.transaction_id for record in journal.records()] == [1, 2]

    def test_nested_group_commit_restores_outer_size(self, tmp_path):
        journal = Journal(str(tmp_path / "j.log"))
        with journal.group_commit(4):
            assert journal._group_size == 4
            with journal.group_commit(8):
                assert journal._group_size == 8
                _record(journal, 1, "a")
            # Inner exit restores the *outer* batch size, not the default,
            # and syncs what the inner block deferred.
            assert journal._group_size == 4
            assert journal._pending_syncs == 0
            _record(journal, 2, "b")
        assert journal._group_size == 1
        assert journal._pending_syncs == 0
        assert [record.transaction_id for record in journal.records()] == [1, 2]
