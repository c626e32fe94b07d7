// Command loadgen replays a sitegen corpus against a running wrapserved
// daemon at a target request rate and reports throughput and latency
// percentiles — the measurement half of the serving system.
//
// Usage:
//
//	sitegen -dataset dealers -sites 8 -out corpus
//	wrapserved -store wrappers.json &
//	loadgen -addr http://localhost:8080 -corpus corpus -qps 50 -duration 10s
//
// The corpus directory is walked for *.html files; each page belongs to the
// site named by its parent directory (exactly sitegen's layout,
// out/DATASET/site-name/page-NNN.html). Before the run, loadgen fetches
// /v1/sites and keeps only sites the server actually serves, so a corpus
// can be broader than the store.
//
// Traffic is mixed-site: every request picks a site and -batch of its pages
// with a seeded RNG, so runs are reproducible. The generator is open-loop
// up to -concurrency outstanding requests (beyond that it applies its own
// backpressure and the achieved rate drops below -qps, which the report
// shows honestly).
//
// Against a sharded fleet (wrapserved -shards N) the /v1/sites probe also
// learns which shard owns each site, and the report breaks sent/ok/
// rejected/failed and achieved req/s down per shard alongside the merged
// client-side latency table — the per-partition view of the same run.
// Against a forwarding front (wrapserved -role front) the /healthz probe
// additionally maps each shard to its peer process's address, and the
// per-shard rows carry it — the row that degrades is the process to look
// at.
//
// 429 responses are counted as "rejected" — that is the server's admission
// control working, not a failure; with -respect-retry-after loadgen waits
// out the server's Retry-After hint before the next request on that worker.
// Anything else non-2xx, and transport errors, count as failed. Exit code
// is 0 when no request failed, 1 otherwise.
//
// With -repair-every the run turns into a mixed maintenance scenario: on
// that period a repair job is submitted over POST /v1/repair for a random
// served site, built from -repair-pages of its corpus pages. The server
// answers 202 immediately (the learn happens on its background job plane),
// so extract throughput must not dip — which is exactly what this mode
// measures. 202 counts as accepted; 429/503 as refused backpressure (not
// failure); anything else fails the run.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"autowrap/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", "http://localhost:8080", "wrapserved base URL")
		corpus   = flag.String("corpus", "", "sitegen output directory (required)")
		qps      = flag.Float64("qps", 50, "target request rate")
		duration = flag.Duration("duration", 10*time.Second, "run length")
		conc     = flag.Int("concurrency", 16, "max outstanding requests")
		batch    = flag.Int("batch", 1, "pages per request")
		timeout  = flag.Duration("timeout", 10*time.Second, "per-request client timeout")
		seed     = flag.Int64("seed", 1, "traffic RNG seed")
		respect  = flag.Bool("respect-retry-after", false, "sleep out Retry-After hints after a 429")
		site     = flag.String("site", "", "restrict traffic to one site")
		repEvery = flag.Duration("repair-every", 0, "also submit an async repair job this often (0 disables; mixed extract+repair scenario)")
		repPages = flag.Int("repair-pages", 8, "corpus pages per submitted repair job")
	)
	flag.Parse()
	if *corpus == "" {
		fmt.Fprintln(os.Stderr, "loadgen: -corpus is required")
		flag.Usage()
		os.Exit(2)
	}
	rep, err := run(*addr, *corpus, *qps, *duration, *conc, *batch, *timeout, *seed, *respect, *site, *repEvery, *repPages)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
	fmt.Print(rep)
	if rep.Failed > 0 {
		os.Exit(1)
	}
}

// sitePages is one site's replayable page set. shard is the serving
// shard the daemon reported for the site (0 on an unsharded server), so
// the report can break traffic down the way the fleet partitions it.
type sitePages struct {
	name  string
	shard int
	pages []string // raw HTML
}

// loadCorpus walks the sitegen output tree: site name = parent directory of
// each .html file.
func loadCorpus(root string) ([]sitePages, error) {
	bySite := make(map[string][]string)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".html") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		site := filepath.Base(filepath.Dir(path))
		bySite[site] = append(bySite[site], string(b))
		return nil
	})
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(bySite))
	for name := range bySite {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]sitePages, 0, len(names))
	for _, name := range names {
		out = append(out, sitePages{name: name, pages: bySite[name]})
	}
	return out, nil
}

// servedSites asks the daemon which sites it can serve, and on which
// shard each lives (a sharded fleet stamps SiteStatus.Shard; a single
// server reports 0 for everything).
func servedSites(client *http.Client, addr string) (map[string]int, error) {
	resp, err := client.Get(addr + "/v1/sites")
	if err != nil {
		return nil, fmt.Errorf("fetching /v1/sites: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/v1/sites: status %d", resp.StatusCode)
	}
	var sites []serve.SiteStatus
	if err := json.NewDecoder(resp.Body).Decode(&sites); err != nil {
		return nil, fmt.Errorf("decoding /v1/sites: %w", err)
	}
	out := make(map[string]int, len(sites))
	for _, s := range sites {
		if s.ActiveVersion > 0 {
			out[s.Site] = s.Shard
		}
	}
	return out, nil
}

// peerAddrs asks /healthz whether the target is a forwarding front and,
// when it is, maps each shard to the peer process serving it. Best
// effort: a single server or in-process fleet reports no peers, and any
// probe failure just leaves the per-shard rows unlabeled.
func peerAddrs(client *http.Client, addr string) map[int]string {
	resp, err := client.Get(addr + "/healthz")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	var h serve.HealthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil || len(h.Peers) == 0 {
		return nil
	}
	out := make(map[int]string, len(h.Peers))
	for _, p := range h.Peers {
		out[p.Shard] = p.Addr
	}
	return out
}

// shardCounts is one serving shard's slice of the run.
type shardCounts struct {
	Sent, OK, Rejected, Failed int
}

// Report aggregates a run.
type Report struct {
	Sent, OK, Rejected, Failed int
	Pages, Records             int
	// Repair-job submissions of the mixed scenario: accepted = 202,
	// refused = the job queue's own 429/503 backpressure.
	RepairsSent, RepairsAccepted, RepairsRefused int
	TargetQPS, AchievedQPS                       float64
	Wall                                         time.Duration
	// perShard breaks the counters down by the serving shard each site
	// lives on; the breakdown only prints when the fleet has >1 shard.
	perShard map[int]*shardCounts
	// peerAddr maps shard -> peer process address when the target is a
	// forwarding front (empty otherwise); it labels the per-shard rows.
	peerAddr  map[int]string
	latencies []time.Duration // of successful requests, sorted post-run
	failures  []string        // first few failure descriptions
}

// shard returns the counter slot for one shard, allocating on first use.
func (r *Report) shard(k int) *shardCounts {
	if r.perShard == nil {
		r.perShard = make(map[int]*shardCounts)
	}
	sc := r.perShard[k]
	if sc == nil {
		sc = &shardCounts{}
		r.perShard[k] = sc
	}
	return sc
}

func (r *Report) quantile(q float64) time.Duration {
	if len(r.latencies) == 0 {
		return 0
	}
	i := int(q * float64(len(r.latencies)))
	if i >= len(r.latencies) {
		i = len(r.latencies) - 1
	}
	return r.latencies[i]
}

func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "loadgen: %d requests in %.1fs (target %.1f req/s, achieved %.1f, %+.1f%%)\n",
		r.Sent, r.Wall.Seconds(), r.TargetQPS, r.AchievedQPS,
		(r.AchievedQPS-r.TargetQPS)*100/r.TargetQPS)
	fmt.Fprintf(&sb, "  ok=%d rejected=%d failed=%d pages=%d records=%d\n",
		r.OK, r.Rejected, r.Failed, r.Pages, r.Records)
	if r.RepairsSent > 0 {
		fmt.Fprintf(&sb, "  repairs: sent=%d accepted=%d refused=%d\n",
			r.RepairsSent, r.RepairsAccepted, r.RepairsRefused)
	}
	if len(r.latencies) > 0 {
		var sum time.Duration
		for _, d := range r.latencies {
			sum += d
		}
		ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
		// Client-side latency of OK requests, merged across all shards:
		// one sorted population, so these are true fleet quantiles.
		fmt.Fprintf(&sb, "  latency ms (merged, client-side, n=%d):\n", len(r.latencies))
		fmt.Fprintf(&sb, "    p50=%.2f p75=%.2f p90=%.2f p95=%.2f p99=%.2f p99.9=%.2f max=%.2f mean=%.2f\n",
			ms(r.quantile(0.50)), ms(r.quantile(0.75)), ms(r.quantile(0.90)),
			ms(r.quantile(0.95)), ms(r.quantile(0.99)), ms(r.quantile(0.999)),
			ms(r.latencies[len(r.latencies)-1]), ms(sum/time.Duration(len(r.latencies))))
	}
	if len(r.perShard) > 1 && r.Wall > 0 {
		shards := make([]int, 0, len(r.perShard))
		for k := range r.perShard {
			shards = append(shards, k)
		}
		sort.Ints(shards)
		fmt.Fprintf(&sb, "  per shard (achieved req/s from wall %.1fs):\n", r.Wall.Seconds())
		for _, k := range shards {
			sc := r.perShard[k]
			label := fmt.Sprintf("shard %d", k)
			if addr := r.peerAddr[k]; addr != "" {
				label = fmt.Sprintf("shard %d (%s)", k, addr)
			}
			fmt.Fprintf(&sb, "    %s: sent=%d ok=%d rejected=%d failed=%d achieved=%.1f req/s\n",
				label, sc.Sent, sc.OK, sc.Rejected, sc.Failed,
				float64(sc.Sent)/r.Wall.Seconds())
		}
	}
	for _, f := range r.failures {
		fmt.Fprintf(&sb, "  FAILED: %s\n", f)
	}
	return sb.String()
}

func run(addr, corpusDir string, qps float64, duration time.Duration,
	conc, batch int, timeout time.Duration, seed int64, respect bool,
	onlySite string, repairEvery time.Duration, repairPages int) (*Report, error) {
	if qps <= 0 || batch < 1 || conc < 1 {
		return nil, fmt.Errorf("need -qps > 0, -batch >= 1, -concurrency >= 1")
	}
	corpus, err := loadCorpus(corpusDir)
	if err != nil {
		return nil, err
	}
	client := &http.Client{Timeout: timeout}
	served, err := servedSites(client, addr)
	if err != nil {
		return nil, err
	}
	peers := peerAddrs(client, addr)
	var replay []sitePages
	for _, sp := range corpus {
		if onlySite != "" && sp.name != onlySite {
			continue
		}
		if shard, ok := served[sp.name]; ok {
			sp.shard = shard
			replay = append(replay, sp)
		}
	}
	if len(replay) == 0 {
		return nil, fmt.Errorf("no overlap between corpus sites (%d) and served sites (%d)",
			len(corpus), len(served))
	}
	fmt.Fprintf(os.Stderr, "loadgen: replaying %d site(s) at %.1f req/s for %v (batch %d)\n",
		len(replay), qps, duration, batch)

	rep := &Report{TargetQPS: qps, peerAddr: peers}
	var mu sync.Mutex
	var wg sync.WaitGroup
	sem := make(chan struct{}, conc)
	rng := rand.New(rand.NewSource(seed))
	interval := time.Duration(float64(time.Second) / qps)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	stop := time.After(duration)
	start := time.Now()

	// The mixed scenario submits async repair jobs alongside the extract
	// stream, on its own goroutine with its own seeded RNG so the extract
	// traffic draw stays byte-identical with or without it.
	var repairWG sync.WaitGroup
	repairStop := make(chan struct{})
	if repairEvery > 0 {
		repairWG.Add(1)
		go func() {
			defer repairWG.Done()
			rrng := rand.New(rand.NewSource(seed + 1))
			rt := time.NewTicker(repairEvery)
			defer rt.Stop()
			for {
				select {
				case <-repairStop:
					return
				case <-rt.C:
					sp := replay[rrng.Intn(len(replay))]
					n := repairPages
					if n < 2 {
						n = 2
					}
					if n > len(sp.pages) {
						n = len(sp.pages)
					}
					pages := make([]string, n)
					for i := range pages {
						pages[i] = sp.pages[rrng.Intn(len(sp.pages))]
					}
					oneRepair(client, addr, sp.name, pages, rep, &mu)
				}
			}
		}()
	}

loop:
	for {
		select {
		case <-stop:
			break loop
		case <-ticker.C:
			// Pre-draw the traffic choice on the generator goroutine so the
			// RNG stays deterministic.
			sp := replay[rng.Intn(len(replay))]
			pageIdx := make([]int, batch)
			for i := range pageIdx {
				pageIdx[i] = rng.Intn(len(sp.pages))
			}
			sem <- struct{}{} // own backpressure beyond -concurrency
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				oneRequest(client, addr, sp, pageIdx, respect, rep, &mu)
			}()
		}
	}
	close(repairStop)
	repairWG.Wait()
	wg.Wait()
	rep.Wall = time.Since(start)
	if rep.Wall > 0 {
		rep.AchievedQPS = float64(rep.Sent) / rep.Wall.Seconds()
	}
	sort.Slice(rep.latencies, func(i, j int) bool { return rep.latencies[i] < rep.latencies[j] })
	return rep, nil
}

func oneRequest(client *http.Client, addr string, sp sitePages, pageIdx []int,
	respect bool, rep *Report, mu *sync.Mutex) {
	req := serve.ExtractRequest{Site: sp.name}
	for _, pi := range pageIdx {
		req.Pages = append(req.Pages, serve.PageInput{
			ID: fmt.Sprintf("%s/p%d", sp.name, pi), HTML: sp.pages[pi],
		})
	}
	body, err := json.Marshal(req)
	if err != nil {
		record(rep, mu, func(r *Report) { sent(r, sp.shard); failShard(r, sp.shard, err.Error()) })
		return
	}
	t0 := time.Now()
	resp, err := client.Post(addr+"/v1/extract", "application/json", bytes.NewReader(body))
	lat := time.Since(t0)
	if err != nil {
		record(rep, mu, func(r *Report) { sent(r, sp.shard); failShard(r, sp.shard, err.Error()) })
		return
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK:
		var out serve.ExtractResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			record(rep, mu, func(r *Report) { sent(r, sp.shard); failShard(r, sp.shard, "bad response body: "+err.Error()) })
			return
		}
		records, pageFails := 0, 0
		for _, pr := range out.Results {
			if pr.Error != "" {
				pageFails++
			}
			records += len(pr.Records)
		}
		record(rep, mu, func(r *Report) {
			sent(r, sp.shard)
			if pageFails > 0 {
				failShard(r, sp.shard, fmt.Sprintf("%s: %d page(s) failed inside a 200", sp.name, pageFails))
				return
			}
			r.OK++
			r.shard(sp.shard).OK++
			r.Pages += len(out.Results)
			r.Records += records
			r.latencies = append(r.latencies, lat)
		})
	case resp.StatusCode == http.StatusTooManyRequests:
		io.Copy(io.Discard, resp.Body)
		record(rep, mu, func(r *Report) {
			sent(r, sp.shard)
			r.Rejected++
			r.shard(sp.shard).Rejected++
		})
		if respect {
			if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s > 0 {
				time.Sleep(time.Duration(s) * time.Second)
			}
		}
	default:
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		record(rep, mu, func(r *Report) {
			sent(r, sp.shard)
			failShard(r, sp.shard, fmt.Sprintf("%s: status %d: %s", sp.name, resp.StatusCode, bytes.TrimSpace(b)))
		})
	}
}

// sent bumps both the run-wide and per-shard sent counters.
func sent(r *Report, shard int) {
	r.Sent++
	r.shard(shard).Sent++
}

// failShard records a failure against the run and the owning shard.
func failShard(r *Report, shard int, msg string) {
	fail(r, msg)
	r.shard(shard).Failed++
}

// oneRepair submits one async repair job. 202 means the maintenance
// plane accepted it; 429/503 mean its bounded queue pushed back (fine);
// anything else is a failure.
func oneRepair(client *http.Client, addr, site string, pages []string,
	rep *Report, mu *sync.Mutex) {
	body, err := json.Marshal(serve.RepairRequest{Site: site, Pages: pages})
	if err != nil {
		record(rep, mu, func(r *Report) { r.RepairsSent++; fail(r, err.Error()) })
		return
	}
	resp, err := client.Post(addr+"/v1/repair", "application/json", bytes.NewReader(body))
	if err != nil {
		record(rep, mu, func(r *Report) { r.RepairsSent++; fail(r, "repair: "+err.Error()) })
		return
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	record(rep, mu, func(r *Report) {
		r.RepairsSent++
		switch resp.StatusCode {
		case http.StatusAccepted:
			r.RepairsAccepted++
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			r.RepairsRefused++
		default:
			fail(r, fmt.Sprintf("repair %s: status %d", site, resp.StatusCode))
		}
	})
}

func record(rep *Report, mu *sync.Mutex, fn func(*Report)) {
	mu.Lock()
	defer mu.Unlock()
	fn(rep)
}

func fail(r *Report, msg string) {
	r.Failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, msg)
	}
}
