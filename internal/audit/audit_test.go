package audit_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"autowrap/internal/audit"
)

func openLedger(t *testing.T, path string, opt audit.Options) *audit.Ledger {
	t.Helper()
	l, err := audit.Open(path, opt)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// fillLedger appends n lifecycle events across shards and sites.
func fillLedger(t *testing.T, l *audit.Ledger, n int) {
	t.Helper()
	events := []string{audit.EventLearn, audit.EventCandidate, audit.EventPromote,
		audit.EventRollback, audit.EventDriftTrip, audit.EventAutoRepair}
	for i := 0; i < n; i++ {
		err := l.Append(i%4, events[i%len(events)],
			fmt.Sprintf("site-%d.example.com", i%7), i%3, fmt.Sprintf("event %d", i))
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestLedgerChainAndVerify pins the happy path: events append, the
// chain verifies from genesis, counters agree, reopen continues the
// chain seamlessly and the result still verifies.
func TestLedgerChainAndVerify(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.jsonl")
	l := openLedger(t, path, audit.Options{NoSync: true})
	fillLedger(t, l, 10)
	st := l.Stats()
	if st.Events != 10 || st.Records != 10 || st.Checkpoints != 0 {
		t.Fatalf("stats after 10 events: %+v", st)
	}
	rep, err := l.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Events != 10 || rep.LastSeq != 10 {
		t.Fatalf("verify report: %+v", rep)
	}
	recent := l.Recent(3)
	if len(recent) != 3 || recent[2].Seq != 10 || recent[0].Seq != 8 {
		t.Fatalf("Recent(3) = %+v", recent)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen continues the chain: the next record's Prev is the old head.
	l2 := openLedger(t, path, audit.Options{NoSync: true})
	defer l2.Close()
	if got := l2.Stats(); got.LastSeq != 10 {
		t.Fatalf("reopen lost the chain position: %+v", got)
	}
	fillLedger(t, l2, 5)
	rep2, err := audit.VerifyFile(path)
	if err != nil {
		t.Fatalf("chain broken across reopen: %v", err)
	}
	if rep2.Events != 15 || rep2.LastSeq != 15 {
		t.Fatalf("after reopen+append: %+v", rep2)
	}
}

// TestLedgerCheckpoints pins the Merkle cadence: every CheckpointEvery
// events a checkpoint record lands, its root verifies, and tampering
// with a batch's event makes the walk fail before its checkpoint.
func TestLedgerCheckpoints(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.jsonl")
	l := openLedger(t, path, audit.Options{CheckpointEvery: 4, NoSync: true})
	fillLedger(t, l, 10)
	st := l.Stats()
	if st.Checkpoints != 2 {
		t.Fatalf("10 events at cadence 4: %d checkpoints, want 2", st.Checkpoints)
	}
	if st.Records != 12 {
		t.Fatalf("10 events + 2 checkpoints: %d records", st.Records)
	}
	if _, err := l.Verify(); err != nil {
		t.Fatal(err)
	}
	// Checkpoint records must carry a sha256-sized hex root.
	found := 0
	for _, rec := range l.Recent(0) {
		if rec.Event == audit.EventCheckpoint {
			found++
			if len(rec.Detail) != 64 {
				t.Fatalf("checkpoint root %q is not sha256 hex", rec.Detail)
			}
		}
	}
	if found != 2 {
		t.Fatalf("recent ring shows %d checkpoints, want 2", found)
	}
	l.Close()
}

// TestLedgerTamperDetectedAtEveryOffset is the acceptance pin for
// tamper-evidence: flip one bit at EVERY byte of the ledger in turn, and
// each time Verify must fail with a *TamperError whose sequence number
// is no later than the record the damaged byte belongs to (damage to
// record k may legitimately surface at k's own hash or at k+1's Prev
// link, never after).
func TestLedgerTamperDetectedAtEveryOffset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.jsonl")
	l := openLedger(t, path, audit.Options{CheckpointEvery: 3, NoSync: true})
	fillLedger(t, l, 7)
	l.Close()
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Map each byte offset to the 1-based line (record) it belongs to.
	lineOf := make([]uint64, len(clean))
	line := uint64(1)
	for i, b := range clean {
		lineOf[i] = line
		if b == '\n' {
			line++
		}
	}
	tampered := filepath.Join(t.TempDir(), "tampered.jsonl")
	for off := 0; off < len(clean); off++ {
		data := append([]byte(nil), clean...)
		data[off] ^= 0x01
		if err := os.WriteFile(tampered, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, verr := audit.VerifyFile(tampered)
		var te *audit.TamperError
		if !errors.As(verr, &te) {
			t.Fatalf("flip at byte %d (record %d) went undetected: %v", off, lineOf[off], verr)
		}
		if te.Seq > lineOf[off]+1 {
			t.Fatalf("flip at byte %d (record %d) blamed on seq %d — damage localized too late",
				off, lineOf[off], te.Seq)
		}
	}
}

// TestLedgerTornTailRecovery pins the crash asymmetry: Open truncates an
// unterminated final line and continues; a torn line in the middle (or
// any complete-but-wrong record) refuses to open.
func TestLedgerTornTailRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.jsonl")
	l := openLedger(t, path, audit.Options{NoSync: true})
	fillLedger(t, l, 5)
	l.Close()
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the tail: drop the final newline and half the last record.
	if err := os.WriteFile(path, clean[:len(clean)-9], 0o644); err != nil {
		t.Fatal(err)
	}
	l2 := openLedger(t, path, audit.Options{NoSync: true})
	if l2.RecoveredBytes() == 0 {
		t.Fatal("torn tail went unreported")
	}
	if got := l2.Stats(); got.LastSeq != 4 {
		t.Fatalf("recovery kept seq %d, want 4 (the last complete record)", got.LastSeq)
	}
	// The chain continues from the recovered head and verifies whole.
	if err := l2.Append(0, audit.EventPromote, "x", 2, "post-recovery"); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	rep, err := audit.VerifyFile(path)
	if err != nil {
		t.Fatalf("post-recovery chain does not verify: %v", err)
	}
	if rep.LastSeq != 5 {
		t.Fatalf("post-recovery seq %d, want 5", rep.LastSeq)
	}

	// Mid-chain damage is tampering, not a crash: Open must refuse.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, oerr := audit.Open(path, audit.Options{})
	var te *audit.TamperError
	if !errors.As(oerr, &te) {
		t.Fatalf("Open accepted a mid-chain break: %v", oerr)
	}
}

// TestLedgerNilSafety pins that a nil ledger is a full no-op surface, so
// the serving plane can thread one through unconditionally.
func TestLedgerNilSafety(t *testing.T) {
	var l *audit.Ledger
	if err := l.Append(0, audit.EventLearn, "x", 1, ""); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st != (audit.Stats{}) {
		t.Fatalf("nil Stats = %+v", st)
	}
	if rec := l.Recent(5); rec != nil {
		t.Fatalf("nil Recent = %+v", rec)
	}
	if p := l.Path(); p != "" {
		t.Fatalf("nil Path = %q", p)
	}
	if _, err := l.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLedgerClosedAppend pins that appends after Close fail loudly.
func TestLedgerClosedAppend(t *testing.T) {
	l := openLedger(t, filepath.Join(t.TempDir(), "a.jsonl"), audit.Options{NoSync: true})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(0, audit.EventLearn, "x", 1, ""); err == nil ||
		!strings.Contains(err.Error(), "closed") {
		t.Fatalf("append on closed ledger: %v", err)
	}
}

// TestAppendAllMatchesSequentialAppends: events appended in batches make
// the ledger that appending them one by one makes — the same records in
// the same order, checkpoints where a batch crosses a checkpoint boundary
// included — apart from the times, and with them the hashes, links and
// Merkle roots. The batched file verifies and reopens.
func TestAppendAllMatchesSequentialAppends(t *testing.T) {
	dir := t.TempDir()
	opt := audit.Options{CheckpointEvery: 5}
	batched := openLedger(t, filepath.Join(dir, "batched.jsonl"), opt)
	single := openLedger(t, filepath.Join(dir, "single.jsonl"), opt)
	events := []string{audit.EventLearn, audit.EventCandidate, audit.EventPromote, audit.EventRollback}
	i := 0
	for _, n := range []int{1, 2, 3, 2, 4, 1, 6, 2} {
		var batch []audit.Entry
		for k := 0; k < n; k++ {
			e := audit.Entry{Event: events[i%len(events)], Site: fmt.Sprintf("site-%d", i%3), Version: i % 4, Detail: fmt.Sprintf("event %d", i)}
			batch = append(batch, e)
			if err := single.Append(3, e.Event, e.Site, e.Version, e.Detail); err != nil {
				t.Fatal(err)
			}
			i++
		}
		if err := batched.AppendAll(3, batch...); err != nil {
			t.Fatal(err)
		}
	}
	if b, s := batched.Stats(), single.Stats(); b != s {
		t.Fatalf("batched stats %+v, one by one %+v", b, s)
	}
	for _, l := range []*audit.Ledger{batched, single} {
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := audit.VerifyFile(batched.Path())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Events != uint64(i) || rep.Checkpoints != uint64(i/5) {
		t.Fatalf("batched ledger: %+v", rep)
	}
	read := func(path string) []audit.Record {
		l := openLedger(t, path, opt)
		defer l.Close()
		recs := l.Recent(0)
		for k := range recs {
			recs[k].TimeMS, recs[k].Prev, recs[k].Hash = 0, "", ""
			if recs[k].Event == audit.EventCheckpoint {
				recs[k].Detail = ""
			}
		}
		return recs
	}
	b, s := read(batched.Path()), read(single.Path())
	if len(b) != len(s) {
		t.Fatalf("batched ledger has %d records, one by one %d", len(b), len(s))
	}
	for k := range b {
		if b[k] != s[k] {
			t.Fatalf("record %d: batched %+v, one by one %+v", k, b[k], s[k])
		}
	}
	closed := openLedger(t, filepath.Join(dir, "closed.jsonl"), opt)
	closed.Close()
	if err := closed.AppendAll(0, audit.Entry{Event: audit.EventLearn}); err == nil {
		t.Fatal("AppendAll on a closed ledger succeeded")
	}
}
