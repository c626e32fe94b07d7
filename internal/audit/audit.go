// Package audit is the tamper-evident half of the durability subsystem:
// an append-only, hash-chained ledger of every lifecycle event in the
// fleet — learn, candidate, promote, rollback, drift trip, auto-repair.
// At fleet scale "which wrapper version produced this record and why was
// it promoted" must be answerable later and trustworthy then; the chain
// is what makes the answer trustworthy.
//
// The ledger is a JSON-lines file. Every record carries Prev (the hash
// of the record before it; "genesis" for the first) and Hash (sha256
// over the record's canonical encoding with Hash blanked). Any byte
// changed after the fact breaks either its own hash or its successor's
// Prev link, and Verify walks the chain from genesis and names the first
// sequence number where it breaks.
//
// Every CheckpointEvery events the ledger appends a checkpoint record
// whose Detail is the Merkle root over the batch's record hashes
// (pairwise sha256, odd leaf duplicated). The chain alone already
// detects tampering; checkpoints give an external auditor compact roots
// to copy somewhere the ledger's writer cannot reach — with the roots
// anchored elsewhere, even a full rewrite-and-rechain of the file is
// detectable.
//
// Crash recovery mirrors logstore's: Open truncates a torn (unterminated)
// final line and continues the chain from the last complete record, but
// any complete record that fails the chain fails Open with a
// *TamperError — a crash can tear the tail, only tampering breaks the
// middle.
package audit

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// Genesis is the Prev link of the first record in a ledger.
const Genesis = "genesis"

// Lifecycle event names recorded in the ledger. Checkpoints are emitted
// by the ledger itself.
const (
	EventLearn      = "learn"
	EventCandidate  = "candidate"
	EventPromote    = "promote"
	EventRollback   = "rollback"
	EventDriftTrip  = "drift-trip"
	EventAutoRepair = "auto-repair"
	EventCheckpoint = "checkpoint"
)

// Record is one chained ledger entry.
type Record struct {
	Seq     uint64 `json:"seq"`
	TimeMS  int64  `json:"time_unix_ms"`
	Shard   int    `json:"shard"`
	Event   string `json:"event"`
	Site    string `json:"site,omitempty"`
	Version int    `json:"version,omitempty"`
	// Detail is free-form context; for checkpoint records it is the hex
	// Merkle root over the batch's record hashes.
	Detail string `json:"detail,omitempty"`
	Prev   string `json:"prev"`
	Hash   string `json:"hash"`
}

// hashOf computes the record's chain hash: sha256 over the canonical
// JSON encoding with the Hash field blanked.
func hashOf(r Record) string {
	r.Hash = ""
	b, err := json.Marshal(r)
	if err != nil {
		// Record has no unmarshalable fields; this cannot happen.
		panic("audit: marshal record: " + err.Error())
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// merkleRoot folds leaf hashes pairwise (sha256(left||right)) up to one
// root, duplicating the last leaf at odd levels. Empty input yields the
// hash of nothing.
func merkleRoot(leaves [][]byte) []byte {
	if len(leaves) == 0 {
		sum := sha256.Sum256(nil)
		return sum[:]
	}
	level := make([][]byte, len(leaves))
	copy(level, leaves)
	for len(level) > 1 {
		if len(level)%2 == 1 {
			level = append(level, level[len(level)-1])
		}
		next := level[:0]
		for i := 0; i < len(level); i += 2 {
			sum := sha256.Sum256(append(append([]byte(nil), level[i]...), level[i+1]...))
			next = append(next, sum[:])
		}
		level = next
	}
	return level[0]
}

// TamperError reports the first broken link in a ledger walk.
type TamperError struct {
	Seq    uint64 // sequence number of the offending record
	Line   int    // 1-based line in the ledger file
	Reason string
	Err    error
}

func (e *TamperError) Error() string {
	return fmt.Sprintf("audit: chain broken at seq %d (line %d): %s", e.Seq, e.Line, e.Reason)
}

func (e *TamperError) Unwrap() error { return e.Err }

// Report summarizes a verified ledger.
type Report struct {
	Records     uint64 `json:"records"`
	Events      uint64 `json:"events"`
	Checkpoints uint64 `json:"checkpoints"`
	LastSeq     uint64 `json:"last_seq"`
	LastHash    string `json:"last_hash"`
}

// Stats are the ledger's live counters, exposed under /metrics.
type Stats struct {
	Records     uint64 `json:"records"`
	Events      uint64 `json:"events"`
	Checkpoints uint64 `json:"checkpoints"`
	LastSeq     uint64 `json:"last_seq"`
}

// Options tune a ledger; the zero value selects defaults.
type Options struct {
	// CheckpointEvery is the batch size between Merkle checkpoints.
	// Default 64 events.
	CheckpointEvery int
	// Recent is how many records the in-memory ring keeps for
	// GET /v1/audit. Default 512.
	Recent int
	// NoSync skips the fsync after each append (tests/benchmarks only).
	NoSync bool
}

func (o Options) withDefaults() Options {
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 64
	}
	if o.Recent <= 0 {
		o.Recent = 512
	}
	return o
}

// Ledger is an open audit ledger. All methods are safe on a nil
// receiver (appends become no-ops, reads return zero values), so the
// serving plane can thread one through unconditionally and auditing
// stays strictly opt-in.
type Ledger struct {
	path string
	opt  Options

	mu        sync.Mutex
	f         *os.File
	seq       uint64
	prev      string   // hash of the last record
	leaves    [][]byte // record hashes since the last checkpoint
	stats     Stats
	recent    []Record
	recovered int64  // bytes of torn tail Open dropped
	pending   []byte // the lines of the append being made, reused
}

// Entry is one lifecycle event, as AppendAll takes it.
type Entry struct {
	Event   string
	Site    string
	Version int
	Detail  string
}

// Open opens (creating if needed) the ledger at path, replaying and
// verifying the existing chain. A torn final line is truncated; a broken
// chain anywhere else fails with a *TamperError.
func Open(path string, opt Options) (*Ledger, error) {
	if path == "" {
		return nil, fmt.Errorf("audit: empty path")
	}
	opt = opt.withDefaults()
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("audit: %w", err)
	}
	st, torn, err := walkChain(data, true)
	if err != nil {
		return nil, err
	}
	if torn >= 0 {
		if err := os.Truncate(path, torn); err != nil {
			return nil, fmt.Errorf("audit: truncate torn tail: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("audit: %w", err)
	}
	l := &Ledger{
		path:   path,
		opt:    opt,
		f:      f,
		seq:    st.seq,
		prev:   st.prev,
		leaves: st.leaves,
		stats:  st.stats(),
	}
	if torn >= 0 {
		l.recovered = int64(len(data)) - torn
	}
	n := len(st.recent)
	if n > opt.Recent {
		st.recent = st.recent[n-opt.Recent:]
	}
	l.recent = st.recent
	return l, nil
}

// Path returns the ledger file's path ("" on a nil ledger).
func (l *Ledger) Path() string {
	if l == nil {
		return ""
	}
	return l.path
}

// RecoveredBytes reports how many torn-tail bytes Open dropped.
func (l *Ledger) RecoveredBytes() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.recovered
}

// Append chains and persists one lifecycle event. On a nil ledger it is
// a no-op. Every CheckpointEvery events a checkpoint record follows
// automatically.
func (l *Ledger) Append(shard int, event, site string, version int, detail string) error {
	return l.AppendAll(shard, Entry{Event: event, Site: site, Version: version, Detail: detail})
}

// AppendAll chains and persists the events in order, with the checkpoints
// that appending them one by one would put among them, under one lock and
// with one write and one fsync for all. On failure none of them is
// chained: the next append continues from the record before them. On a
// nil ledger it is a no-op.
func (l *Ledger) AppendAll(shard int, events ...Entry) error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fmt.Errorf("audit: ledger closed")
	}
	// What the batch appends lands past these slices' lengths, and a
	// checkpoint starts a fresh leaves array, so restoring them undoes it.
	seq, prev, leaves, stats, recent := l.seq, l.prev, l.leaves, l.stats, l.recent
	l.pending = l.pending[:0]
	err := func() error {
		for _, e := range events {
			if err := l.chain(shard, e.Event, e.Site, e.Version, e.Detail); err != nil {
				return err
			}
			if len(l.leaves) >= l.opt.CheckpointEvery {
				root := merkleRoot(l.leaves)
				l.leaves = nil
				if err := l.chain(shard, EventCheckpoint, "", 0, hex.EncodeToString(root)); err != nil {
					return err
				}
			}
		}
		if _, err := l.f.Write(l.pending); err != nil {
			return fmt.Errorf("audit: append: %w", err)
		}
		if !l.opt.NoSync {
			if err := l.f.Sync(); err != nil {
				return fmt.Errorf("audit: sync: %w", err)
			}
		}
		return nil
	}()
	if err != nil {
		l.seq, l.prev, l.leaves, l.stats, l.recent = seq, prev, leaves, stats, recent
	}
	return err
}

// chain makes the next record, appends its line to l.pending and advances
// the chain past it.
func (l *Ledger) chain(shard int, event, site string, version int, detail string) error {
	prev := l.prev
	if l.seq == 0 {
		prev = Genesis
	}
	rec := Record{
		Seq:     l.seq + 1,
		TimeMS:  time.Now().UnixMilli(),
		Shard:   shard,
		Event:   event,
		Site:    site,
		Version: version,
		Detail:  detail,
		Prev:    prev,
	}
	rec.Hash = hashOf(rec)
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	l.pending = append(append(l.pending, line...), '\n')
	l.seq = rec.Seq
	l.prev = rec.Hash
	l.stats.Records++
	l.stats.LastSeq = rec.Seq
	if event == EventCheckpoint {
		l.stats.Checkpoints++
	} else {
		l.stats.Events++
		leaf, _ := hex.DecodeString(rec.Hash)
		l.leaves = append(l.leaves, leaf)
	}
	l.recent = append(l.recent, rec)
	if len(l.recent) > l.opt.Recent {
		l.recent = l.recent[len(l.recent)-l.opt.Recent:]
	}
	return nil
}

// Stats returns the live counters (zero on a nil ledger).
func (l *Ledger) Stats() Stats {
	if l == nil {
		return Stats{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Recent returns up to n of the newest records, oldest first (nil on a
// nil ledger).
func (l *Ledger) Recent(n int) []Record {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if n <= 0 || n > len(l.recent) {
		n = len(l.recent)
	}
	return append([]Record(nil), l.recent[len(l.recent)-n:]...)
}

// Verify re-reads the ledger file and walks the whole chain from
// genesis, strictly: any invalid or torn line is a *TamperError naming
// the first offending sequence number.
func (l *Ledger) Verify() (Report, error) {
	if l == nil {
		return Report{}, nil
	}
	return VerifyFile(l.path)
}

// Close syncs and closes the ledger file.
func (l *Ledger) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	var err error
	if !l.opt.NoSync {
		err = l.f.Sync()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// VerifyFile walks the chain of the ledger at path from genesis. It is
// strict: every line must be a complete, correctly chained record, and
// every checkpoint's Merkle root must match its batch. The returned
// error is a *TamperError naming the first broken sequence number.
func VerifyFile(path string) (Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Report{}, fmt.Errorf("audit: verify: %w", err)
	}
	st, _, err := walkChain(data, false)
	if err != nil {
		return Report{}, err
	}
	return Report{
		Records:     st.stats().Records,
		Events:      st.stats().Events,
		Checkpoints: st.stats().Checkpoints,
		LastSeq:     st.seq,
		LastHash:    st.prev,
	}, nil
}

// chainState is the walk's running state: enough to verify, and enough
// for Open to continue appending where the file left off.
type chainState struct {
	seq         uint64
	prev        string
	leaves      [][]byte
	records     uint64
	events      uint64
	checkpoints uint64
	recent      []Record
}

func (st *chainState) stats() Stats {
	return Stats{Records: st.records, Events: st.events, Checkpoints: st.checkpoints, LastSeq: st.seq}
}

// walkChain verifies the serialized ledger line by line. When tornOK is
// true an unterminated final line is tolerated and its byte offset is
// returned for truncation (-1 when the file is clean); when false it is
// a *TamperError like any other damage.
func walkChain(data []byte, tornOK bool) (st chainState, tornAt int64, err error) {
	tornAt = -1
	st.prev = ""
	offset := int64(0)
	line := 0
	for len(data) > 0 {
		line++
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			if tornOK {
				return st, offset, nil
			}
			return st, -1, &TamperError{Seq: st.seq + 1, Line: line, Reason: "torn final record"}
		}
		raw := data[:nl]
		data = data[nl+1:]
		var rec Record
		if uerr := json.Unmarshal(raw, &rec); uerr != nil {
			return st, -1, &TamperError{Seq: st.seq + 1, Line: line,
				Reason: "unreadable record: " + uerr.Error(), Err: uerr}
		}
		// The ledger only ever writes canonical json.Marshal lines, so a
		// stored line that parses but differs from its re-encoding was
		// edited after the fact — e.g. a flipped byte in a field name that
		// json.Unmarshal would silently ignore.
		if canon, _ := json.Marshal(rec); !bytes.Equal(raw, canon) {
			return st, -1, &TamperError{Seq: st.seq + 1, Line: line,
				Reason: "non-canonical encoding: record bytes differ from their re-encoding"}
		}
		if rec.Seq != st.seq+1 {
			return st, -1, &TamperError{Seq: st.seq + 1, Line: line,
				Reason: fmt.Sprintf("sequence skew: record claims seq %d, chain expects %d", rec.Seq, st.seq+1)}
		}
		wantPrev := st.prev
		if st.seq == 0 {
			wantPrev = Genesis
		}
		if rec.Prev != wantPrev {
			return st, -1, &TamperError{Seq: rec.Seq, Line: line,
				Reason: fmt.Sprintf("prev-link mismatch: record carries %.16s…, chain head is %.16s…", rec.Prev, wantPrev)}
		}
		if got := hashOf(rec); got != rec.Hash {
			return st, -1, &TamperError{Seq: rec.Seq, Line: line,
				Reason: fmt.Sprintf("hash mismatch: stored %.16s…, computed %.16s…", rec.Hash, got)}
		}
		if rec.Event == EventCheckpoint {
			root := hex.EncodeToString(merkleRoot(st.leaves))
			if rec.Detail != root {
				return st, -1, &TamperError{Seq: rec.Seq, Line: line,
					Reason: fmt.Sprintf("checkpoint root mismatch: stored %.16s…, computed %.16s…", rec.Detail, root)}
			}
			st.leaves = st.leaves[:0]
			st.checkpoints++
		} else {
			leaf, derr := hex.DecodeString(rec.Hash)
			if derr != nil || len(leaf) != sha256.Size {
				return st, -1, &TamperError{Seq: rec.Seq, Line: line,
					Reason: "hash is not a sha256 hex digest", Err: derr}
			}
			st.leaves = append(st.leaves, leaf)
			st.events++
		}
		st.seq = rec.Seq
		st.prev = rec.Hash
		st.records++
		st.recent = append(st.recent, rec)
		if len(st.recent) > 4096 {
			st.recent = st.recent[len(st.recent)-2048:]
		}
		offset += int64(nl) + 1
	}
	return st, -1, nil
}
