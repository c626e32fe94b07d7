package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"autowrap/internal/audit"
	"autowrap/internal/chaos"
	"autowrap/internal/jobs"
	"autowrap/internal/serve"
	"autowrap/internal/store"
	"autowrap/internal/store/logstore"
)

// violations accumulates invariant failures instead of aborting on the
// first: one hostile run should report everything it broke. Duplicate
// (name, detail) pairs collapse, and per-name details are capped so a
// high-QPS failure mode cannot flood the report.
type violations struct {
	mu    sync.Mutex
	order []string
	byKey map[string][]string
}

const maxDetailsPerInvariant = 5

func (v *violations) add(name, detail string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.byKey == nil {
		v.byKey = make(map[string][]string)
	}
	if _, seen := v.byKey[name]; !seen {
		v.order = append(v.order, name)
	}
	ds := v.byKey[name]
	if len(ds) >= maxDetailsPerInvariant {
		return
	}
	for _, d := range ds {
		if d == detail {
			return
		}
	}
	v.byKey[name] = append(ds, detail)
}

// report prints every violation and says whether there were any.
func (v *violations) report(w io.Writer) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, name := range v.order {
		for _, d := range v.byKey[name] {
			fmt.Fprintf(w, "INVARIANT VIOLATED: %s: %s\n", name, d)
		}
	}
	return len(v.order) > 0
}

// --- live monitors ---

// startHeapSampler records HeapAlloc after a forced GC every 5s. The
// heap-bounded invariant fires only on monotonic growth across every
// sample AND a final size far past the first — bounded sawtooth churn
// under load is healthy, a straight line up is a leak.
func (h *harness) startHeapSampler() {
	h.sampleHeap()
}

func (h *harness) sampleHeap() {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	h.heapMu.Lock()
	h.heapSamples = append(h.heapSamples, ms.HeapAlloc)
	h.heapMu.Unlock()
}

// startMonitor polls the serving plane every 2s while the run is live:
// gate bounds and monotonicity, counter sanity against the client ledger,
// and the job planes for anything stuck in running past its deadline.
func (h *harness) startMonitor() {
	go func() {
		defer close(h.monitorDone)
		var prev serve.GateSnapshot
		ticks := 0
		for {
			select {
			case <-h.monitorStop:
				return
			case <-time.After(2 * time.Second):
			}
			ticks++
			if ticks%3 == 0 {
				h.sampleHeap()
			}
			gate, err := h.fetchGate()
			if err != nil {
				continue // drain may already have closed the listener
			}
			if gate.InFlight < 0 || gate.InFlight > int64(gate.MaxInFlight) {
				h.viol.add("metrics-consistent", fmt.Sprintf("gate in_flight %d outside [0,%d]", gate.InFlight, gate.MaxInFlight))
			}
			if gate.Waiting < 0 || gate.Waiting > int64(gate.MaxQueue) {
				h.viol.add("metrics-consistent", fmt.Sprintf("gate waiting %d outside [0,%d]", gate.Waiting, gate.MaxQueue))
			}
			if gate.Admitted < prev.Admitted || gate.Rejected < prev.Rejected || gate.TimedOut < prev.TimedOut {
				h.viol.add("metrics-consistent", fmt.Sprintf("gate counters went backwards: %+v then %+v", prev, gate))
			}
			prev = gate
			h.checkNoStuckJobs(60 * time.Second)
		}
	}()
}

func (h *harness) stopMonitor() {
	close(h.monitorStop)
	<-h.monitorDone
}

// checkNoStuckJobs scans every shard's job plane for a running job older
// than limit — with a request timeout of seconds, a job running for a
// minute is wedged, not slow.
func (h *harness) checkNoStuckJobs(limit time.Duration) {
	for k, srv := range h.servers {
		m := srv.Jobs()
		if m == nil {
			continue
		}
		for _, j := range m.List() {
			if j.State == jobs.StateRunning && j.RunMS > limit.Milliseconds() {
				h.viol.add("no-stuck-jobs", fmt.Sprintf("shard %d job %s (%s %s) running for %dms", k, j.ID, j.Kind, j.Site, j.RunMS))
			}
		}
	}
}

// --- metrics access ---

// fetchGate returns the fleet-summed gate snapshot from /metrics,
// whichever plane shape is serving.
func (h *harness) fetchGate() (serve.GateSnapshot, error) {
	raw, err := h.getJSON("/metrics")
	if err != nil {
		return serve.GateSnapshot{}, err
	}
	if h.o.shards > 1 {
		var m serve.FleetMetricsResponse
		if err := json.Unmarshal(raw, &m); err != nil {
			return serve.GateSnapshot{}, err
		}
		return m.Gate, nil
	}
	var m serve.MetricsResponse
	if err := json.Unmarshal(raw, &m); err != nil {
		return serve.GateSnapshot{}, err
	}
	return m.Gate, nil
}

func (h *harness) getJSON(path string) ([]byte, error) {
	r, err := h.client.Get(h.baseURL + path)
	if err != nil {
		return nil, err
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d", path, r.StatusCode)
	}
	return io.ReadAll(r.Body)
}

// --- waits between traffic stop and drain ---

// awaitHeals probes every stormed site with a drifted page until a newer
// wrapper version answers with records — proof auto-repair promoted a
// re-learned wrapper — or the deadline passes.
func (h *harness) awaitHeals(deadline time.Time) {
	for _, site := range h.sites {
		if !site.stormed.Load() {
			continue
		}
		probe, _ := json.Marshal(serve.ExtractRequest{Site: site.name,
			Page: &serve.PageInput{ID: "heal-probe", HTML: site.drifted[0]}})
		for {
			_, resp, ok := h.postExtract(probe)
			if ok && int64(resp.Version) > site.preVersion.Load() &&
				len(resp.Results) == 1 && len(resp.Results[0].Records) > 0 {
				site.healed.Store(true)
				h.logf("healed: %s now serves v%d with %d records on the drifted template",
					site.name, resp.Version, len(resp.Results[0].Records))
				break
			}
			if time.Now().After(deadline) {
				h.viol.add("drift-healed", fmt.Sprintf("%s never healed: still v%d (stormed at v%d) with no records on drifted pages",
					site.name, resp.Version, site.preVersion.Load()))
				break
			}
			time.Sleep(150 * time.Millisecond)
		}
	}
}

// awaitJobsIdle waits for every job plane to run dry (queued == 0,
// running == 0) so the final ledgers compare settled state, not a race.
func (h *harness) awaitJobsIdle(budget time.Duration) {
	deadline := time.Now().Add(budget)
	for {
		idle := true
		for _, srv := range h.servers {
			if m := srv.Jobs(); m != nil {
				met := m.Metrics()
				if met.Queued > 0 || met.Running > 0 {
					idle = false
				}
			}
		}
		if idle {
			return
		}
		if time.Now().After(deadline) {
			for k, srv := range h.servers {
				if m := srv.Jobs(); m != nil {
					met := m.Metrics()
					if met.Queued > 0 || met.Running > 0 {
						h.viol.add("no-stuck-jobs", fmt.Sprintf("shard %d jobs not idle %v after traffic stopped: %d queued, %d running",
							k, budget, met.Queued, met.Running))
					}
				}
			}
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// --- settled-state checks (traffic stopped, jobs idle, pre-drain) ---

// checkGateLedger compares the client's classification of every extract
// response against the gate's own counters. With traffic stopped the
// identity is exact: each Acquire resolved to exactly one of
// admitted/rejected/timed-out, and both sides counted the same events.
func (h *harness) checkGateLedger() {
	gate, err := h.fetchGate()
	if err != nil {
		h.viol.add("gate-ledger", fmt.Sprintf("cannot fetch final gate snapshot: %v", err))
		return
	}
	if gate.InFlight != 0 || gate.Waiting != 0 {
		h.viol.add("gate-ledger", fmt.Sprintf("traffic stopped but gate shows %d in flight, %d waiting", gate.InFlight, gate.Waiting))
	}
	if a, r, t := h.ledger.admitted.Load(), h.ledger.rejected.Load(), h.ledger.timedOut.Load(); gate.Admitted != a || gate.Rejected != r || gate.TimedOut != t {
		h.viol.add("gate-ledger", fmt.Sprintf(
			"server counted admitted=%d rejected=%d timed_out=%d; clients observed %d/%d/%d",
			gate.Admitted, gate.Rejected, gate.TimedOut, a, r, t))
	}
}

// checkMetricsConsistent asserts the fleet /metrics rollups agree with
// themselves exactly once traffic has settled: the fleet-wide merge, the
// per-shard sum and the per-site sum are three views of one ledger.
func (h *harness) checkMetricsConsistent() {
	if h.o.shards == 1 {
		return // single server exposes no rollups to cross-check
	}
	raw, err := h.getJSON("/metrics")
	if err != nil {
		h.viol.add("metrics-consistent", fmt.Sprintf("cannot fetch final metrics: %v", err))
		return
	}
	var m serve.FleetMetricsResponse
	if err := json.Unmarshal(raw, &m); err != nil {
		h.viol.add("metrics-consistent", fmt.Sprintf("final metrics undecodable: %v", err))
		return
	}
	type sums struct{ requests, pages, records, errors int64 }
	var shardSum, siteSum sums
	for _, s := range m.PerShard {
		shardSum.requests += s.Metrics.Requests
		shardSum.pages += s.Metrics.Pages
		shardSum.records += s.Metrics.Records
		shardSum.errors += s.Metrics.Errors
	}
	for _, s := range m.Sites {
		if s.Metrics == nil {
			continue
		}
		siteSum.requests += s.Metrics.Requests
		siteSum.pages += s.Metrics.Pages
		siteSum.records += s.Metrics.Records
		siteSum.errors += s.Metrics.Errors
	}
	fleet := sums{m.Fleet.Requests, m.Fleet.Pages, m.Fleet.Records, m.Fleet.Errors}
	if fleet != shardSum || fleet != siteSum {
		h.viol.add("metrics-consistent", fmt.Sprintf(
			"fleet=%+v but Σshards=%+v and Σsites=%+v", fleet, shardSum, siteSum))
	}
}

// checkJobsLedger verifies every shard's job accounting: per-kind
// submitted == done + failed + canceled, everything terminal, and no job
// canceled that the harness did not cancel itself.
func (h *harness) checkJobsLedger() {
	for k, srv := range h.servers {
		m := srv.Jobs()
		if m == nil {
			continue
		}
		met := m.Metrics()
		for kind, km := range met.Kinds {
			if km.Submitted != km.Done+km.Failed+km.Canceled {
				h.viol.add("jobs-ledger", fmt.Sprintf("shard %d kind %s: submitted %d != done %d + failed %d + canceled %d",
					k, kind, km.Submitted, km.Done, km.Failed, km.Canceled))
			}
		}
		for _, j := range m.List() {
			if !j.State.Terminal() {
				h.viol.add("jobs-ledger", fmt.Sprintf("shard %d job %s still %s after quiesce", k, j.ID, j.State))
			}
			if j.State == jobs.StateCanceled {
				if _, ours := h.selfCanceled.Load(j.ID); !ours {
					h.viol.add("jobs-ledger", fmt.Sprintf("shard %d job %s (%s %s) canceled by nobody", k, j.ID, j.Kind, j.Site))
				}
			}
		}
	}
}

// --- post-teardown checks ---

// checkGoroutineBaseline verifies the whole plane — HTTP server, job
// workers, maintainers, chaos clients — unwound back to the pre-boot
// goroutine census.
func (h *harness) checkGoroutineBaseline() {
	if err := h.baseline.Verify(10 * time.Second); err != nil {
		h.viol.add("goroutine-leak", err.Error())
	}
}

// checkHeapBounded fires only when every consecutive GC-settled sample
// grew AND the final heap is far beyond the first — the signature of a
// real leak rather than load-proportional churn.
func (h *harness) checkHeapBounded() {
	h.sampleHeap()
	h.heapMu.Lock()
	samples := h.heapSamples
	h.heapMu.Unlock()
	if len(samples) < 4 {
		return
	}
	monotonic := true
	for i := 1; i < len(samples); i++ {
		if samples[i] <= samples[i-1] {
			monotonic = false
			break
		}
	}
	first, last := samples[0], samples[len(samples)-1]
	if monotonic && last > first+first/2+32<<20 {
		h.viol.add("heap-bounded", fmt.Sprintf(
			"HeapAlloc grew monotonically across %d GC cycles: %d → %d bytes", len(samples), first, last))
	}
}

// checkStoreRecovery is the end-of-run corruption drill on the registry
// the fleet actually persisted all run: strict Load must accept the
// settled file, refuse a poisoned one naming the damage, and
// LoadRecovered must salvage every other site.
func (h *harness) checkStoreRecovery(rng *rand.Rand) {
	st, err := store.Load(h.storePath)
	if err != nil {
		h.viol.add("store-recovery", fmt.Sprintf("registry left corrupt after drain: %v", err))
		return
	}
	before := st.Len()
	site, version, err := chaos.CorruptStoreEntry(h.storePath, rng)
	if err != nil {
		h.viol.add("store-recovery", fmt.Sprintf("end-of-run corruption failed to write: %v", err))
		return
	}
	if _, err := store.Load(h.storePath); err == nil {
		h.viol.add("store-recovery", fmt.Sprintf("strict Load accepted a registry with %s v%d poisoned", site, version))
	} else if !strings.Contains(err.Error(), site) {
		h.viol.add("store-recovery", fmt.Sprintf("strict Load failed without naming site %s: %v", site, err))
	}
	rec, bad, err := store.LoadRecovered(h.storePath)
	if err != nil {
		h.viol.add("store-recovery", fmt.Sprintf("LoadRecovered refused the poisoned registry outright: %v", err))
		return
	}
	if len(bad) != 1 || bad[0].Site != site || bad[0].Version != version {
		h.viol.add("store-recovery", fmt.Sprintf("LoadRecovered reported %+v, want exactly %s v%d", bad, site, version))
	}
	if got := rec.Len(); got != before-1 {
		h.viol.add("store-recovery", fmt.Sprintf("LoadRecovered salvaged %d sites, want %d (all but %s)", got, before-1, site))
	}
}

// newestSegment returns the highest-numbered segment file in a log dir.
func newestSegment(dir string) (string, error) {
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil {
		return "", err
	}
	if len(names) == 0 {
		return "", fmt.Errorf("no segments in %s", dir)
	}
	sort.Strings(names) // zero-padded indices sort lexically
	return names[len(names)-1], nil
}

// checkLogRecovery is the log backend's end-of-run kill-and-reopen drill.
// The process "died" at teardown (the backend was closed; from the log's
// point of view a close and a crash look the same modulo the torn tail);
// now the log must reopen to a consistent registry: (1) the mid-run torn
// frame — if compaction did not already delete its segment — is reported
// and truncated, (2) a second open finds a clean log and reproduces
// byte-for-byte the same registry, and (3) fresh tail garbage injected
// post-mortem recovers to that same registry again.
func (h *harness) checkLogRecovery(rng *rand.Rand) {
	open := func(stage string) (*logstore.Backend, *store.Store, []byte) {
		lb, err := logstore.Open(h.logDir, logstore.Options{})
		if err != nil {
			h.viol.add("store-recovery", fmt.Sprintf("%s: log failed to reopen: %v", stage, err))
			return nil, nil, nil
		}
		st, err := lb.Load()
		if err != nil {
			lb.Close()
			h.viol.add("store-recovery", fmt.Sprintf("%s: reopened log cannot reproduce a registry: %v", stage, err))
			return nil, nil, nil
		}
		enc, err := st.Encode()
		if err != nil {
			lb.Close()
			h.viol.add("store-recovery", fmt.Sprintf("%s: reopened registry does not encode: %v", stage, err))
			return nil, nil, nil
		}
		return lb, st, enc
	}

	// Drill 1: reopen the log the run actually wrote, torn frame and all.
	lb, st, first := open("first reopen")
	if lb == nil {
		return
	}
	if h.garbageSeg != "" {
		if _, statErr := os.Stat(h.garbageSeg); statErr == nil {
			if lb.Recovered() == nil {
				h.viol.add("store-recovery", fmt.Sprintf("mid-run torn frame in %s survived reopen unreported", h.garbageSeg))
			}
		}
		// A rotation after the fault compacted the poisoned segment away;
		// a clean reopen is then the correct outcome.
	} else if rec := lb.Recovered(); rec != nil {
		h.viol.add("store-recovery", fmt.Sprintf("uncorrupted log reopened with recovery: dropped %d bytes of %s (%s)", rec.Dropped, rec.Segment, rec.Reason))
	}
	// The seeded population — dealer sites and flip sites — predates every
	// fault, so no consistent prefix may lose any of them.
	for _, s := range h.sites {
		if _, ok := st.Active(s.name); !ok {
			h.viol.add("store-recovery", fmt.Sprintf("reopened log lost seeded site %s", s.name))
		}
	}
	for _, f := range h.flips {
		if act, ok := st.Active(f.name); !ok || (act.Version != 1 && act.Version != 2) {
			h.viol.add("store-recovery", fmt.Sprintf("reopened log serves %s at v%d/%v, want v1 or v2", f.name, act.Version, ok))
		}
	}
	lb.Close()

	// Drill 2: recovery is idempotent — the first reopen repaired the
	// file, so a second finds nothing to recover and the same registry.
	lb2, _, second := open("second reopen")
	if lb2 == nil {
		return
	}
	if rec := lb2.Recovered(); rec != nil {
		h.viol.add("store-recovery", fmt.Sprintf("second reopen found damage the first left behind: %s@%d", rec.Segment, rec.Offset))
	}
	if !bytes.Equal(first, second) {
		h.viol.add("store-recovery", "second reopen reproduced a different registry than the first")
	}
	lb2.Close()

	// Drill 3: fresh tail garbage — the crash-mid-append shape — must be
	// reported, truncated, and must not move the registry.
	seg, err := newestSegment(h.logDir)
	if err != nil {
		h.viol.add("store-recovery", fmt.Sprintf("post-mortem tear: %v", err))
		return
	}
	if err := chaos.AppendTornFrame(seg, rng); err != nil {
		h.viol.add("store-recovery", fmt.Sprintf("post-mortem tear failed to write: %v", err))
		return
	}
	lb3, _, third := open("post-tear reopen")
	if lb3 == nil {
		return
	}
	if lb3.Recovered() == nil {
		h.viol.add("store-recovery", fmt.Sprintf("injected tail tear in %s went unreported on reopen", filepath.Base(seg)))
	}
	if !bytes.Equal(first, third) {
		h.viol.add("store-recovery", "tail tear changed the recovered registry (truncation ate or invented records)")
	}
	lb3.Close()
}

// checkAuditChain verifies the ledger the run wrote, end to end from
// genesis: every hash link and every Merkle checkpoint must hold, and the
// run's lifecycle — at minimum the flipper's promotes and rollbacks —
// must actually be in it. Any tampering (see -break audit) must surface
// as a *TamperError naming the first damaged sequence number.
func (h *harness) checkAuditChain() {
	rep, err := audit.VerifyFile(h.auditPath)
	if err != nil {
		var te *audit.TamperError
		if errors.As(err, &te) {
			h.viol.add("audit-chain-intact", fmt.Sprintf("ledger tampered at seq %d (line %d): %s", te.Seq, te.Line, te.Reason))
		} else {
			h.viol.add("audit-chain-intact", fmt.Sprintf("ledger unverifiable: %v", err))
		}
		return
	}
	if rep.Records == 0 {
		h.viol.add("audit-chain-intact", "run produced no audit records (lifecycle events not reaching the ledger)")
		return
	}
	if rep.LastSeq != rep.Records {
		h.viol.add("audit-chain-intact", fmt.Sprintf("ledger seq %d != %d records: the chain skipped numbers", rep.LastSeq, rep.Records))
	}
	// The flipper promoted/rolled back every 700ms all run; a verified
	// ledger with no promote events means auditing is disconnected.
	hasPromote := false
	for _, rec := range tailRecords(h.auditPath, 4096) {
		if rec.Event == audit.EventPromote {
			hasPromote = true
			break
		}
	}
	if !hasPromote {
		h.viol.add("audit-chain-intact", "verified ledger holds no promote events despite the flipper running all run")
	}
	h.logf("audit ledger verified: %d records, %d events, %d checkpoints", rep.Records, rep.Events, rep.Checkpoints)
}

// tailRecords best-effort decodes up to n newest records of a ledger the
// chain walk already verified.
func tailRecords(path string, n int) []audit.Record {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	out := make([]audit.Record, 0, len(lines))
	for _, ln := range lines {
		var rec audit.Record
		if json.Unmarshal(ln, &rec) == nil {
			out = append(out, rec)
		}
	}
	return out
}
