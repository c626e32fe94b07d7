package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"time"

	"autowrap/internal/serve"
	"autowrap/internal/shard"
)

// multiproc is the cross-process soak mode: instead of booting the fleet
// in-process, it spawns real wrapserved shard processes plus a
// forwarding front process, drives extract traffic through the front,
// kills one shard mid-run, and asserts the fleet degrades to partial
// availability — the dead shard's partition answers 503 naming the
// shard, every other partition keeps serving — then drains in order
// (front first, then the survivors) and verifies each process's audit
// ledger offline with wrapserved -audit-verify.
//
// Invariants (same reporting contract as the in-process soak):
//
//	multiproc-boot      every process reaches healthy within its budget
//	multiproc-parity    extract via the front == extract direct-to-shard
//	multiproc-no-panic  no 5xx before the kill, no dead connections
//	multiproc-partial   after the kill: dead partition 503s naming the
//	                    shard, surviving partition serves 200, the front
//	                    stays healthy and names the dead peer
//	multiproc-drain     SIGTERM front exits 0 before the shards are
//	                    signaled; surviving shards then exit 0
//	multiproc-audit     every shard's audit ledger verifies offline
type multiproc struct {
	o       options
	log     *log.Logger
	viol    *violations
	workDir string
	bin     string
	client  *http.Client

	shardAddrs []string
	shardCmds  []*exec.Cmd
	auditPaths []string
	frontAddr  string
	frontCmd   *exec.Cmd
}

var mpElapsedRe = regexp.MustCompile(`"elapsed_us":[0-9]+`)

func runMultiproc(o options) int {
	m := &multiproc{
		o:      o,
		log:    log.New(os.Stderr, "soak-mp: ", log.LstdFlags),
		viol:   &violations{},
		client: &http.Client{Timeout: 15 * time.Second},
	}
	if err := m.run(); err != nil {
		fmt.Fprintln(os.Stderr, "soak:", err)
		return 1
	}
	if m.viol.report(os.Stderr) {
		return 1
	}
	fmt.Printf("soak: multiproc invariants held (%d shard processes + front, seed %d)\n",
		m.o.shards, m.o.seed)
	return 0
}

func (m *multiproc) run() error {
	if m.o.shards < 2 {
		return fmt.Errorf("-multiproc needs -shards >= 2 (one process is killed mid-run)")
	}
	dir, err := os.MkdirTemp("", "soak-mp-*")
	if err != nil {
		return err
	}
	m.workDir = dir
	defer os.RemoveAll(dir)
	defer m.killAll()

	// The corpora and learned registry come from the same machinery as
	// the in-process soak; only the serving plane differs.
	h := &harness{o: m.o, log: m.log, viol: m.viol}
	if err := h.buildCorpora(); err != nil {
		return err
	}
	st, err := h.learnStore()
	if err != nil {
		return err
	}
	seedPath := filepath.Join(dir, "seed.json")
	if err := st.Save(seedPath); err != nil {
		return err
	}

	if err := m.buildBinary(); err != nil {
		return err
	}
	if err := m.spawnFleet(seedPath); err != nil {
		return err
	}
	m.awaitHealthy()

	ring := shard.NewRing(m.o.shards, m.o.vnodes)
	m.checkParity(ring, h.sites)
	m.driveTraffic(h.sites)

	victim := int(m.o.seed) % m.o.shards
	m.logf("killing shard %d (%s) mid-run", victim, m.shardAddrs[victim])
	_ = m.shardCmds[victim].Process.Kill()
	_, _ = m.shardCmds[victim].Process.Wait()
	m.checkPartialAvailability(ring, h.sites, victim)

	m.drainOrdered(victim)
	m.checkAuditLedgers(victim)
	return nil
}

// buildBinary compiles cmd/wrapserved into the work dir (CI's build
// cache makes this near-free after the first run).
func (m *multiproc) buildBinary() error {
	m.bin = filepath.Join(m.workDir, "wrapserved")
	cmd := exec.Command("go", "build", "-o", m.bin, "autowrap/cmd/wrapserved")
	out, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("building wrapserved: %v\n%s", err, out)
	}
	return nil
}

// freeAddr reserves an ephemeral localhost port and releases it for the
// child process to claim.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

// spawnFleet boots one wrapserved process per shard (each with its own
// copy of the seed registry and its own audit ledger) plus the
// forwarding front.
func (m *multiproc) spawnFleet(seedPath string) error {
	seed, err := os.ReadFile(seedPath)
	if err != nil {
		return err
	}
	for k := 0; k < m.o.shards; k++ {
		addr, err := freeAddr()
		if err != nil {
			return err
		}
		storePath := filepath.Join(m.workDir, fmt.Sprintf("shard%d.json", k))
		if err := os.WriteFile(storePath, seed, 0o644); err != nil {
			return err
		}
		auditPath := filepath.Join(m.workDir, fmt.Sprintf("shard%d-audit.jsonl", k))
		cmd := exec.Command(m.bin,
			"-role", "shard",
			"-shard-index", fmt.Sprint(k),
			"-shards", fmt.Sprint(m.o.shards),
			"-vnodes", fmt.Sprint(m.o.vnodes),
			"-store", storePath,
			"-store-backend", m.o.storeBackend,
			"-audit-log", auditPath,
			"-addr", addr,
			"-drain-timeout", "10s",
		)
		cmd.Stderr = m.procLog(fmt.Sprintf("shard%d", k))
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("spawning shard %d: %w", k, err)
		}
		m.shardAddrs = append(m.shardAddrs, addr)
		m.shardCmds = append(m.shardCmds, cmd)
		m.auditPaths = append(m.auditPaths, auditPath)
	}
	addr, err := freeAddr()
	if err != nil {
		return err
	}
	m.frontAddr = addr
	// The front retries its boot handshake implicitly: unreachable peers
	// only degrade, and per-request ring pinning still protects every
	// call, so front and shards can start concurrently.
	cmd := exec.Command(m.bin,
		"-role", "front",
		"-peers", strings.Join(m.shardAddrs, ","),
		"-vnodes", fmt.Sprint(m.o.vnodes),
		"-addr", addr,
		"-drain-timeout", "10s",
	)
	cmd.Stderr = m.procLog("front")
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("spawning front: %w", err)
	}
	m.frontCmd = cmd
	return nil
}

// procLog prefixes a child process's stderr into ours when -v is set,
// and discards it otherwise.
func (m *multiproc) procLog(name string) io.Writer {
	if !m.o.verbose {
		return io.Discard
	}
	pr, pw := io.Pipe()
	go func() {
		buf := make([]byte, 4096)
		for {
			n, err := pr.Read(buf)
			if n > 0 {
				m.log.Printf("[%s] %s", name, bytes.TrimRight(buf[:n], "\n"))
			}
			if err != nil {
				return
			}
		}
	}()
	return pw
}

// awaitHealthy polls every process's /healthz until it answers 200.
func (m *multiproc) awaitHealthy() {
	targets := append([]string{}, m.shardAddrs...)
	targets = append(targets, m.frontAddr)
	for _, addr := range targets {
		deadline := time.Now().Add(20 * time.Second)
		for {
			resp, err := m.client.Get("http://" + addr + "/healthz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				m.viol.add("multiproc-boot", fmt.Sprintf("%s never became healthy (last: %v)", addr, err))
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
}

func (m *multiproc) extract(base string, site *soakSite, page int) (int, []byte, error) {
	body, _ := json.Marshal(map[string]any{
		"site": site.name,
		"page": map[string]string{"id": fmt.Sprintf("p%d", page), "html": site.clean[page%len(site.clean)]},
	})
	resp, err := m.client.Post("http://"+base+"/v1/extract", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, mpElapsedRe.ReplaceAll(out, []byte(`"elapsed_us":0`)), nil
}

// checkParity asserts extract-through-the-front answers the same bytes
// as extract direct-to-the-owning-shard (timing masked).
func (m *multiproc) checkParity(ring *shard.Ring, sites []*soakSite) {
	for _, s := range sites {
		owner := ring.Owner(s.name)
		fc, fb, ferr := m.extract(m.frontAddr, s, 0)
		dc, db, derr := m.extract(m.shardAddrs[owner], s, 0)
		if ferr != nil || derr != nil {
			m.viol.add("multiproc-parity", fmt.Sprintf("%s: front err %v, direct err %v", s.name, ferr, derr))
			continue
		}
		if fc != dc || !bytes.Equal(fb, db) {
			m.viol.add("multiproc-parity", fmt.Sprintf(
				"%s: front %d %s != shard %d direct %d %s", s.name, fc, fb, owner, dc, db))
		}
	}
}

// driveTraffic sends steady extract traffic through the front for a
// slice of the soak budget; before any kill, nothing may 5xx.
func (m *multiproc) driveTraffic(sites []*soakSite) {
	dur := m.o.duration / 3
	m.logf("traffic: %v through front %s", dur, m.frontAddr)
	stop := time.Now().Add(dur)
	n := 0
	for time.Now().Before(stop) {
		s := sites[n%len(sites)]
		code, body, err := m.extract(m.frontAddr, s, n)
		if err != nil {
			m.viol.add("multiproc-no-panic", fmt.Sprintf("extract %s: %v", s.name, err))
		} else if code >= 500 {
			m.viol.add("multiproc-no-panic", fmt.Sprintf("extract %s: status %d: %s", s.name, code, body))
		}
		n++
		time.Sleep(time.Second / time.Duration(max(m.o.qps, 1)))
	}
	m.logf("traffic: %d requests", n)
}

// checkPartialAvailability asserts the fleet degrades by partition: the
// dead shard's sites answer 503 naming the shard and its address,
// everything else keeps serving, and the front's own health stays 200
// with the dead peer reported by name.
func (m *multiproc) checkPartialAvailability(ring *shard.Ring, sites []*soakSite, victim int) {
	for _, s := range sites {
		code, body, err := m.extract(m.frontAddr, s, 1)
		if err != nil {
			m.viol.add("multiproc-partial", fmt.Sprintf("extract %s after kill: %v", s.name, err))
			continue
		}
		if ring.Owner(s.name) == victim {
			want := fmt.Sprintf("shard %d (%s)", victim, m.shardAddrs[victim])
			if code != http.StatusServiceUnavailable || !strings.Contains(string(body), want) {
				m.viol.add("multiproc-partial", fmt.Sprintf(
					"%s on dead shard answered %d %s, want 503 naming %q", s.name, code, body, want))
			}
		} else if code != http.StatusOK {
			m.viol.add("multiproc-partial", fmt.Sprintf(
				"%s on surviving shard answered %d %s, want 200", s.name, code, body))
		}
	}
	resp, err := m.client.Get("http://" + m.frontAddr + "/healthz")
	if err != nil {
		m.viol.add("multiproc-partial", fmt.Sprintf("front healthz after kill: %v", err))
		return
	}
	defer resp.Body.Close()
	var h serve.HealthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		m.viol.add("multiproc-partial", fmt.Sprintf("front healthz decode: %v", err))
		return
	}
	if resp.StatusCode != http.StatusOK {
		m.viol.add("multiproc-partial", fmt.Sprintf("front healthz %d after one shard died, want 200", resp.StatusCode))
	}
	if len(h.Peers) != m.o.shards || h.Peers[victim].OK || h.Peers[victim].Error == "" {
		m.viol.add("multiproc-partial", fmt.Sprintf("front peers %+v: shard %d not reported down by name", h.Peers, victim))
	}
}

// drainOrdered performs the fleet drain in production order — front
// first (it stops admitting, finishes in-flight forwards, drains peers),
// then the surviving shard processes — and demands clean exits.
func (m *multiproc) drainOrdered(victim int) {
	wait := func(name string, cmd *exec.Cmd) {
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				m.viol.add("multiproc-drain", fmt.Sprintf("%s exited dirty: %v", name, err))
			}
		case <-time.After(20 * time.Second):
			m.viol.add("multiproc-drain", fmt.Sprintf("%s did not exit within 20s of SIGTERM", name))
			_ = cmd.Process.Kill()
		}
	}
	_ = m.frontCmd.Process.Signal(syscall.SIGTERM)
	wait("front", m.frontCmd)
	m.frontCmd = nil
	for k, cmd := range m.shardCmds {
		if k == victim {
			continue
		}
		_ = cmd.Process.Signal(syscall.SIGTERM)
		wait(fmt.Sprintf("shard%d", k), cmd)
	}
	m.shardCmds = nil
}

// checkAuditLedgers verifies every shard's chain offline through the
// shipped verb — the same check an operator runs.
func (m *multiproc) checkAuditLedgers(victim int) {
	for k, path := range m.auditPaths {
		if _, err := os.Stat(path); err != nil {
			// A shard that never appended (or the killed one racing its
			// first write) legitimately has no ledger.
			continue
		}
		out, err := exec.Command(m.bin, "-audit-verify", path).CombinedOutput()
		if err != nil {
			m.viol.add("multiproc-audit", fmt.Sprintf("shard %d ledger %s: %v: %s", k, path, err, out))
		}
	}
}

// killAll force-kills whatever is still running (error paths only; the
// happy path already waited on everything).
func (m *multiproc) killAll() {
	if m.frontCmd != nil && m.frontCmd.Process != nil {
		_ = m.frontCmd.Process.Kill()
		_, _ = m.frontCmd.Process.Wait()
	}
	for _, cmd := range m.shardCmds {
		if cmd != nil && cmd.Process != nil {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		}
	}
}

func (m *multiproc) logf(format string, args ...any) {
	if m.o.verbose {
		m.log.Printf(format, args...)
	}
}
