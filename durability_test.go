// End-to-end acceptance tests for the durability subsystem (ISSUE 9):
// the same lifecycle driven through the HTTP service over both store
// backends must land byte-identical registries on a cold reopen, and a
// single flipped byte anywhere in the audit ledger must be named by
// sequence number when the chain is verified.
package autowrap_test

import (
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"autowrap"
	"autowrap/internal/audit"
	"autowrap/internal/lr"
	"autowrap/internal/serve"
	"autowrap/internal/serve/servetest"
	"autowrap/internal/store"
)

// bootDurable seeds a two-version site into the given backend and boots
// a server persisting through it with a live audit ledger.
func bootDurable(t *testing.T, be autowrap.StoreBackend, seed func(*store.Store) error, auditPath string) *servetest.Server {
	t.Helper()
	st := store.New()
	put := func(site, class string, candidate bool) error {
		w := &lr.Compiled{Left: `<div class="` + class + `">`, Right: `</div>`}
		var err error
		if candidate {
			_, err = st.PutCandidate(site, w, store.Meta{})
		} else {
			_, err = st.Put(site, w, store.Meta{})
		}
		return err
	}
	if err := put("shop.example.com", "a", false); err != nil {
		t.Fatal(err)
	}
	if err := put("shop.example.com", "b", true); err != nil {
		t.Fatal(err)
	}
	if err := put("news.example.com", "a", false); err != nil {
		t.Fatal(err)
	}
	if err := seed(st); err != nil {
		t.Fatal(err)
	}
	led, err := autowrap.OpenAuditLedger(auditPath, autowrap.AuditLedgerOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { led.Close() })
	srv, err := autowrap.NewServer(autowrap.ServerConfig{
		Dispatcher: autowrap.NewDispatcher(st, autowrap.DispatcherOptions{}),
		Backend:    be,
		Shard:      0,
		Audit:      led,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := servetest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return hs
}

// driveLifecycle runs the same admin script every parity variant must
// agree on: promote shop to v2, roll it back.
func driveLifecycle(t *testing.T, base string) {
	t.Helper()
	var admin serve.AdminResponse
	if code := postJSON(t, base+"/v1/promote",
		serve.AdminRequest{Site: "shop.example.com", Version: 2}, &admin); code != http.StatusOK {
		t.Fatalf("promote: status %d", code)
	}
	if code := postJSON(t, base+"/v1/rollback",
		serve.AdminRequest{Site: "shop.example.com"}, &admin); code != http.StatusOK {
		t.Fatalf("rollback: status %d", code)
	}
}

// TestStoreBackendParityEndToEnd pins the pluggability contract: the
// identical HTTP lifecycle through the file backend and the log backend
// must produce byte-identical registries on a cold reload.
func TestStoreBackendParityEndToEnd(t *testing.T) {
	dir := t.TempDir()

	// File backend: attach the live partition, snapshot the seed, serve.
	filePath := filepath.Join(dir, "wrappers.json")
	fb, err := autowrap.OpenFileStore(filePath)
	if err != nil {
		t.Fatal(err)
	}
	hs := bootDurable(t, fb, func(st *store.Store) error {
		fb.Attach(0, st)
		return fb.Snapshot()
	}, filepath.Join(dir, "audit-file.jsonl"))
	driveLifecycle(t, hs.URL)

	// Log backend: seed the empty log from the same registry, serve.
	logDir := filepath.Join(dir, "wrappers.log")
	lb, err := autowrap.OpenLogStore(logDir, autowrap.LogStoreOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	hs2 := bootDurable(t, lb, lb.SeedFrom, filepath.Join(dir, "audit-log.jsonl"))
	driveLifecycle(t, hs2.URL)
	if err := lb.Close(); err != nil {
		t.Fatal(err)
	}

	// Cold reload both. The file backend wrote Store.Save bytes; the log
	// backend replays its records. Same lifecycle, same registry.
	viaFile, err := autowrap.LoadWrapperStore(filePath)
	if err != nil {
		t.Fatal(err)
	}
	lb2, err := autowrap.OpenLogStore(logDir, autowrap.LogStoreOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer lb2.Close()
	viaLog, err := lb2.Load()
	if err != nil {
		t.Fatal(err)
	}
	encFile, err := viaFile.Encode()
	if err != nil {
		t.Fatal(err)
	}
	encLog, err := viaLog.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(encFile) != string(encLog) {
		t.Fatalf("backends diverge after identical lifecycle:\n--- file ---\n%s\n--- log ---\n%s", encFile, encLog)
	}
	if act, ok := viaLog.Active("shop.example.com"); !ok || act.Version != 1 {
		t.Fatalf("lifecycle did not land: active %+v ok=%v, want v1 after rollback", act, ok)
	}
	if len(viaLog.History("shop.example.com")) != 2 {
		t.Fatalf("history lost a version: %d", len(viaLog.History("shop.example.com")))
	}
}

// TestAuditTamperNamedBySeq is the headline acceptance pin: flip ONE byte
// of a ledger written by real server traffic and VerifyAuditLedger must
// fail with a TamperError naming the offending sequence number.
func TestAuditTamperNamedBySeq(t *testing.T) {
	dir := t.TempDir()
	lb, err := autowrap.OpenLogStore(filepath.Join(dir, "wrappers.log"), autowrap.LogStoreOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	auditPath := filepath.Join(dir, "audit.jsonl")
	hs := bootDurable(t, lb, lb.SeedFrom, auditPath)
	driveLifecycle(t, hs.URL)

	if _, err := autowrap.VerifyAuditLedger(auditPath); err != nil {
		t.Fatalf("untampered ledger must verify: %v", err)
	}
	data, err := os.ReadFile(auditPath)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit in the middle of the first record — the promote event.
	data[20] ^= 0x01
	if err := os.WriteFile(auditPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, verr := autowrap.VerifyAuditLedger(auditPath)
	var te *audit.TamperError
	if !errors.As(verr, &te) {
		t.Fatalf("tampered ledger verified clean: %v", verr)
	}
	if te.Seq != 1 {
		t.Fatalf("tamper in record 1 blamed on seq %d", te.Seq)
	}
}
