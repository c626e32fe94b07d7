package store_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"autowrap/internal/store"
)

// lifecycleScript drives a registry through every lifecycle op: two
// promoted versions and a candidate on one site, a promote, a rollback,
// and a second site — the state every Apply/Encode test compares against.
func lifecycleScript(t *testing.T, s *store.Store) {
	t.Helper()
	if _, err := s.Put("a.example.com", testPortable(), store.Meta{Score: 0.9}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutCandidate("a.example.com", testPortable(), store.Meta{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Promote("a.example.com", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Rollback("a.example.com"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("b.example.com", testPortable(), store.Meta{}); err != nil {
		t.Fatal(err)
	}
}

// sameRegistry compares the durable state of two stores via their wire
// encodings — the canonical equality every backend must preserve.
func sameRegistry(t *testing.T, a, b *store.Store) {
	t.Helper()
	ea, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	eb, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ea, eb) {
		t.Fatalf("registries diverge:\n%s\n--- vs ---\n%s", ea, eb)
	}
}

// TestApplyReplaysLifecycle pins the event-sourcing contract: replaying
// the events a mutation sequence emits through Apply reproduces exactly
// the registry that emitted them.
func TestApplyReplaysLifecycle(t *testing.T) {
	src := store.New()
	lifecycleScript(t, src)

	replay := store.New()
	apply := func(op store.Op, site string, version int, e *store.Entry) {
		t.Helper()
		if err := replay.Apply(op, site, version, e); err != nil {
			t.Fatalf("apply %s %s v%d: %v", op, site, version, err)
		}
	}
	for _, site := range src.Sites() {
		for _, e := range src.History(site) {
			e := e
			// Reconstruct each append as the op the serving plane reports:
			// whether the version entered promoted is in the promotion log's
			// first occurrence order; the script's shape makes it explicit.
			promoted := site == "b.example.com" || e.Version == 1
			op := store.OpCandidate
			if promoted {
				op = store.OpPut
			}
			apply(op, site, e.Version, &e)
		}
	}
	apply(store.OpPromote, "a.example.com", 2, nil)
	apply(store.OpRollback, "a.example.com", 0, nil)
	sameRegistry(t, src, replay)
}

// TestApplyPutIsCandidateThenPromote: a promoted heal is logged as one put
// where it was a candidate and a promote, so the two must replay to the
// same registry — after an incumbent, and as a site's first version.
func TestApplyPutIsCandidateThenPromote(t *testing.T) {
	src := store.New()
	lifecycleScript(t, src)
	apply := func(s *store.Store, op store.Op, site string, version int, e *store.Entry) {
		t.Helper()
		if err := s.Apply(op, site, version, e); err != nil {
			t.Fatalf("apply %s %s v%d: %v", op, site, version, err)
		}
	}
	twoOps, oneOp := store.New(), store.New()
	for _, site := range src.Sites() {
		for k, e := range src.History(site) {
			e := e
			if k == 0 {
				apply(twoOps, store.OpPut, site, e.Version, &e)
				apply(oneOp, store.OpPut, site, e.Version, &e)
				continue
			}
			apply(twoOps, store.OpCandidate, site, e.Version, &e)
			apply(twoOps, store.OpPromote, site, e.Version, nil)
			apply(oneOp, store.OpPut, site, e.Version, &e)
		}
	}
	e := src.History("a.example.com")[0]
	e.Site = "c.example.com"
	apply(twoOps, store.OpCandidate, e.Site, 1, &e)
	apply(twoOps, store.OpPromote, e.Site, 1, nil)
	apply(oneOp, store.OpPut, e.Site, 1, &e)
	sameRegistry(t, twoOps, oneOp)
}

// TestApplyRejectsInvalidEvents pins that Apply enforces Load-grade
// invariants instead of trusting its input.
func TestApplyRejectsInvalidEvents(t *testing.T) {
	entryFor := func(site string, version int) *store.Entry {
		s := store.New()
		if _, err := s.Put(site, testPortable(), store.Meta{}); err != nil {
			t.Fatal(err)
		}
		e, _ := s.Latest(site)
		e.Version = version
		return &e
	}
	cases := []struct {
		name string
		run  func(s *store.Store) error
		want string
	}{
		{"put without entry", func(s *store.Store) error {
			return s.Apply(store.OpPut, "x", 1, nil)
		}, "no entry"},
		{"entry site mismatch", func(s *store.Store) error {
			return s.Apply(store.OpPut, "x", 1, entryFor("y", 1))
		}, "carries site"},
		{"version gap", func(s *store.Store) error {
			return s.Apply(store.OpCandidate, "x", 3, entryFor("x", 3))
		}, "want v1"},
		{"non-compiling entry", func(s *store.Store) error {
			e := entryFor("x", 1)
			e.Lang = "no-such-lang"
			e.LR = nil
			return s.Apply(store.OpPut, "x", 1, e)
		}, "apply put"},
		{"promote unknown version", func(s *store.Store) error {
			return s.Apply(store.OpPromote, "x", 9, nil)
		}, ""},
		{"rollback with no history", func(s *store.Store) error {
			return s.Apply(store.OpRollback, "x", 0, nil)
		}, ""},
		{"unknown op", func(s *store.Store) error {
			return s.Apply(store.Op("mystery"), "x", 0, nil)
		}, "unknown op"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run(store.New())
			if err == nil {
				t.Fatal("invalid event applied cleanly")
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestEncodeMatchesSaveBytes pins that Encode is Save's exact wire form,
// so a snapshot embedded in a log segment and a registry file on disk
// are the same bytes.
func TestEncodeMatchesSaveBytes(t *testing.T) {
	s := store.New()
	lifecycleScript(t, s)
	path := filepath.Join(t.TempDir(), "wrappers.json")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, enc) {
		t.Fatalf("Encode diverges from Save:\n%s\n--- vs ---\n%s", enc, onDisk)
	}
}

// TestDecodeRoundTrip pins Decode(Encode(s)) == s, including promotion
// history, and that Decode validates as eagerly as Load.
func TestDecodeRoundTrip(t *testing.T) {
	s := store.New()
	lifecycleScript(t, s)
	enc, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := store.Decode(enc, "round-trip")
	if err != nil {
		t.Fatal(err)
	}
	sameRegistry(t, s, back)
	// The script's promote+rollback leaves the log at [1] (rollback pops).
	if got := back.Promotions("a.example.com"); len(got) != 1 || got[0] != 1 {
		t.Fatalf("promotion log lost in round-trip: %v, want [1]", got)
	}

	poisoned := bytes.Replace(enc, []byte(`"lang"`), []byte(`"gnal"`), 1)
	if _, err := store.Decode(poisoned, "poisoned"); err == nil {
		t.Fatal("Decode accepted an entry with no wrapper language")
	} else if !strings.Contains(err.Error(), "poisoned") {
		t.Fatalf("Decode error %q does not name its source", err)
	}
}

// TestCloneIsDeep pins that Clone shares no durable state with its
// source: mutating either side is invisible to the other.
func TestCloneIsDeep(t *testing.T) {
	s := store.New()
	lifecycleScript(t, s)
	c := s.Clone()
	sameRegistry(t, s, c)
	if _, err := c.Put("c.example.com", testPortable(), store.Meta{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Promote("a.example.com", 2); err != nil {
		t.Fatal(err)
	}
	if s.Len() == c.Len() {
		t.Fatal("clone and source share site maps")
	}
	if act, _ := c.Active("a.example.com"); act.Version != 1 {
		t.Fatalf("promote on source moved clone's active to v%d", act.Version)
	}
}
