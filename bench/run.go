package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"autowrap/internal/serve"
	"autowrap/internal/store"
)

// workload is one traffic mix against one deployment shape.
type workload struct {
	name string
	why  string
	mix  siteMix
	// fleet boots a forwarding front and two shard processes instead of
	// one server; heal boots the durable backend, the audit ledger and a
	// learn worker, and runs the open loop beside the maintenance client.
	fleet, heal bool
}

const (
	clients  = 2   // connections, and goroutines, of the generator
	openRate = 400 // requests per second of the open loop
	warmup   = 2 * time.Second
)

var workloads = []workload{
	{
		name: "extract_small",
		why:  "one small page per request on one server: per-request costs (HTTP hop, route, decode, gate, encode, dispatch) are most of the time and parse/eval little",
		mix:  siteMix{xpath: 64, shape: small, pagesPerReq: 1, perSite: 32},
	},
	{
		name: "extract_bulk",
		why:  "16 large pages per request over XPATH and LR sites: parsing, rule evaluation, the extract pool and byte-proportional decode are nearly all the time",
		mix:  siteMix{xpath: 8, lr: 8, shape: large, pagesPerReq: 16, perSite: 32},
	},
	{
		name:  "fleet_forward",
		why:   "extract_small's traffic through a forwarding front and two shard processes: the difference from extract_small is the forward hop and ring check",
		mix:   siteMix{xpath: 64, shape: small, pagesPerReq: 1, perSite: 32},
		fleet: true,
	},
	{
		name: "heal_under_load",
		why:  "an open loop of small extracts at 400 req/s beside a client that keeps repairing 8 drifting sites: learner, jobs, durable store and audit work against serving latency",
		mix:  siteMix{xpath: 16, shape: small, pagesPerReq: 1, perSite: 32},
		heal: true,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// harness holds what one run needs besides its inputs.
type harness struct {
	bin     string // the built wrapserved
	tmp     string // scratch directory of this run, removed at exit
	nproc   int
	breakBy string // "" or "wrong-store"
	mu      sync.Mutex
	live    []*fleet
}

func (h *harness) track(f *fleet) {
	h.mu.Lock()
	h.live = append(h.live, f)
	h.mu.Unlock()
}

// shutdown stops every process still running and removes the scratch
// directory; it is safe to call more than once and from a signal handler.
func (h *harness) shutdown() {
	h.mu.Lock()
	live := h.live
	h.live = nil
	h.mu.Unlock()
	for _, f := range live {
		f.stop()
	}
	if h.tmp != "" {
		os.RemoveAll(h.tmp)
	}
}

// wrongStore returns a store in which every stable site serves the rule
// learned for the next one: what a mixed-up deployment would serve.
func wrongStore(st *store.Store, in *inputs) (*store.Store, error) {
	out := st.Clone()
	for i, s := range in.sites {
		e, ok := st.Active(in.sites[(i+1)%len(in.sites)].name)
		if !ok {
			return nil, fmt.Errorf("no active version for %s", s.name)
		}
		p, err := e.Compile()
		if err != nil {
			return nil, err
		}
		if _, err := out.Put(s.name, p, store.Meta{Profile: e.Profile}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// setUp is what a deployment pays before it can serve: learn every site on
// its train pages, persist the registry, boot the processes, wait until they
// are healthy and answer one request per site (the dispatcher compiles a
// site's runtime on its first request).
func (h *harness) setUp(w *workload, in *inputs) (*fleet, error) {
	// A directory of its own every time: a log-backed store left by an
	// earlier deployment would be replayed, versions and all.
	dir, err := os.MkdirTemp(h.tmp, w.name+"-")
	if err != nil {
		return nil, err
	}
	st, _, err := in.learnStore(h.nproc)
	if err != nil {
		return nil, err
	}
	if h.breakBy == "wrong-store" {
		if st, err = wrongStore(st, in); err != nil {
			return nil, err
		}
	}
	dict := filepath.Join(dir, "dict.txt")
	if err := os.WriteFile(dict, []byte(strings.Join(in.dict, "\n")+"\n"), 0o644); err != nil {
		return nil, err
	}
	f := &fleet{}
	h.track(f)
	start := func(name string, args ...string) (*proc, error) {
		p, err := spawn(h.bin, dir, name, args...)
		if err != nil {
			return nil, err
		}
		f.procs = append(f.procs, p)
		return p, p.awaitHealthy(10 * time.Second)
	}
	switch {
	case w.fleet:
		var peers []string
		for k := 0; k < 2; k++ {
			path := filepath.Join(dir, fmt.Sprintf("shard%d.json", k))
			if err := st.Save(path); err != nil {
				return nil, err
			}
			p, err := start(fmt.Sprintf("shard%d", k), "-role", "shard", "-shard-index", fmt.Sprint(k),
				"-shards", "2", "-store", path, "-dict", dict)
			if err != nil {
				return nil, err
			}
			peers = append(peers, p.addr)
		}
		p, err := start("front", "-role", "front", "-peers", strings.Join(peers, ","))
		if err != nil {
			return nil, err
		}
		f.front = p.addr
	default:
		path := filepath.Join(dir, "wrappers.json")
		if err := st.Save(path); err != nil {
			return nil, err
		}
		args := []string{"-store", path, "-dict", dict}
		if w.heal {
			args = append(args, "-store-backend", "log", "-audit-log", filepath.Join(dir, "audit.jsonl"), "-learn-workers", "1")
		}
		p, err := start("server", args...)
		if err != nil {
			return nil, err
		}
		f.front = p.addr
	}
	c, err := dial(f.front)
	if err != nil {
		return nil, err
	}
	defer c.close()
	seen := map[string]bool{}
	for _, r := range in.reqs {
		if seen[r.site] {
			continue
		}
		seen[r.site] = true
		status, body, err := c.roundTrip(r.wire, requestTimeout)
		if err != nil {
			return nil, fmt.Errorf("warming %s: %w", r.site, err)
		}
		if h.breakBy == "" && (status != 200 || !r.check(body)) {
			return nil, fmt.Errorf("warming %s: status %d, body %.300q", r.site, status, body)
		}
	}
	return f, nil
}

// pass is one timed stretch of traffic: warm-up, then the measured interval.
type pass struct {
	recs       []*recorder // one per client
	seconds    float64     // length of the measured interval
	cpuAt      []float64   // CPU seconds of the server processes at each window boundary
	rssAt      []float64   // their resident set, in MB, at each window boundary
	loadgenCPU float64     // CPU seconds of this process over it
}

func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// runPass drives the workload's traffic for warm-up plus seconds, over
// `clients` connections, and samples the server processes at every window
// boundary of the measured interval.
func runPass(w *workload, in *inputs, f *fleet, heal *healer, seconds int, seed int64, traced bool) (*pass, error) {
	ck := clock{base: time.Now()}
	windows := windowsFor(seconds)
	iv := interval{startNS: int64(warmup), windowNS: int64(seconds) * int64(time.Second) / int64(windows), windows: windows}
	p := &pass{seconds: float64(iv.endNS()-iv.startNS) / 1e9}
	conns := make([]*conn, clients)
	defer func() { // a loop may have replaced its connection after an error
		for _, c := range conns {
			c.close()
		}
	}()
	for i := range conns {
		c, err := dial(f.front)
		if err != nil {
			return nil, err
		}
		conns[i] = c
		var spans *spanLog
		if traced {
			spans = &spanLog{}
		}
		p.recs = append(p.recs, newRecorder(iv, spans))
	}
	errs := make([]error, clients+1)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*31 + int64(i)))
			order := rng.Perm(len(in.reqs))
			switch {
			case !w.heal:
				errs[i] = closedLoop(&conns[i], ck, in.reqs, order, p.recs[i], i*10_000_000)
			case i == 0:
				errs[i] = openLoop(&conns[i], ck, in.reqs, order, p.recs[i], openRate, rng, 0)
			default:
				errs[i] = heal.healLoop(conns[i], ck, p.recs[i])
			}
		}()
	}
	// The sampler wakes at each window boundary to read the processes' CPU
	// clocks; it costs a few file reads per window.
	wg.Add(1)
	go func() {
		defer wg.Done()
		l0 := 0.0
		for w := 0; w <= iv.windows; w++ {
			time.Sleep(time.Duration(iv.startNS + int64(w)*iv.windowNS - ck.now()))
			cpu, err := f.cpu()
			if err != nil {
				errs[clients] = err
				return
			}
			rss, err := f.memMB("VmRSS")
			if err != nil {
				errs[clients] = err
				return
			}
			p.cpuAt, p.rssAt = append(p.cpuAt, cpu), append(p.rssAt, rss)
			if w == 0 {
				l0 = selfCPU()
			}
		}
		p.loadgenCPU = selfCPU() - l0
	}()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return p, nil
}

// probeRounds is how often the heal probe heals each churn site.
const probeRounds = 3

// probeHeals heals each churn site probeRounds times, to and fro, on the
// otherwise idle deployment: the extract workloads' heal_ms.
func probeHeals(f *fleet, heal *healer) (*recorder, error) {
	c, err := dial(f.front)
	if err != nil {
		return nil, err
	}
	defer c.close()
	ck := clock{base: time.Now()}
	rec := newRecorder(interval{windowNS: int64(time.Hour), windows: 1}, nil)
	for i := 0; i < probeRounds*len(heal.sites); i++ {
		if err := heal.healOnce(c, ck, rec); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload.
type result struct {
	Workload  string            `json:"workload"`
	Trace     bool              `json:"trace"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Correct   bool              `json:"correct"`
	Valid     bool              `json:"valid"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	FirstErr  string            `json:"first_error,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// Info holds what is printed beside the metrics but not judged: sample
	// counts, the quantile each window supported, input generation time.
	Info map[string]float64 `json:"info"`
}

func (r *result) set(name string, v float64) {
	d, ok := metricDefs[name]
	if !ok {
		panic("metric not in the table: " + name)
	}
	r.Metrics[name] = metric{Value: v, Unit: d.unit}
}

// merged is the clients' ledgers of one pass added up.
type merged struct {
	latMS                      [][]float64 // per window
	attempted, failed          int
	served, gold, hit          int
	lateMS                     []float64
	heals                      []healRecord
	firstErr                   error
	p50, p99, p99Q             float64
	latN, p99Windows           int
	throughput, cpuUSPerPage   float64
	loadgenShare, achievedRate float64
}

func (p *pass) merge(openLoop bool) *merged {
	m := &merged{}
	windows := p.recs[0].iv.windows
	m.latMS = make([][]float64, windows)
	pages := make([]int, windows)
	total := 0
	for _, r := range p.recs {
		for w := 0; w < windows; w++ {
			m.latMS[w] = append(m.latMS[w], r.latMS[w]...)
			pages[w] += r.pages[w]
			total += r.pages[w]
		}
		m.attempted += r.attempted
		m.failed += r.failed
		m.served += r.served
		m.gold += r.gold
		m.hit += r.hit
		m.lateMS = append(m.lateMS, r.lateMS...)
		m.heals = append(m.heals, r.heals...)
		if m.firstErr == nil {
			m.firstErr = r.firstErr
		}
	}
	// A closed loop's throughput and the CPU a page costs are taken from
	// the best window, like the latencies (see bestWindowQuantile). An open
	// loop's rate is the schedule's: pages answered over the whole interval.
	winS := p.seconds / float64(windows)
	m.cpuUSPerPage = math.Inf(1)
	for w, n := range pages {
		m.throughput = max(m.throughput, float64(n)/winS)
		if n > 0 {
			m.cpuUSPerPage = min(m.cpuUSPerPage, (p.cpuAt[w+1]-p.cpuAt[w])*1e6/float64(n))
		}
	}
	m.achievedRate = 1
	if openLoop {
		m.throughput = float64(total) / p.seconds
		m.achievedRate = m.throughput / openRate
	}
	if total == 0 {
		m.cpuUSPerPage = 0
	}
	m.p50, _, _, m.latN = bestWindowQuantile(m.latMS, 0.5)
	m.p99, m.p99Q, m.p99Windows, _ = bestWindowQuantile(m.latMS, 0.99)
	if cpu := p.cpuAt[windows] - p.cpuAt[0] + p.loadgenCPU; cpu > 0 {
		m.loadgenShare = p.loadgenCPU / cpu
	}
	return m
}

func f1(served, gold, hit int) float64 {
	if served == 0 || gold == 0 || hit == 0 {
		return 0
	}
	prec, rec := float64(hit)/float64(served), float64(hit)/float64(gold)
	return 2 * prec * rec / (prec + rec)
}

// runWorkload is one run: generate, set up, drive, check, tear down.
func (h *harness) runWorkload(w *workload, seed int64, seconds int, trace bool, outDir string) (*result, error) {
	res := &result{Workload: w.name, Trace: trace, Seed: seed, Seconds: seconds,
		Metrics: map[string]metric{}, Info: map[string]float64{}}
	t0 := time.Now()
	in, err := generate(seed, w.mix, h.nproc)
	if err != nil {
		return nil, err
	}
	heal, err := newHealer(in.churn)
	if err != nil {
		return nil, err
	}
	res.Info["generate_s"] = time.Since(t0).Seconds()
	runtime.GC()

	// Set-up is timed several times and the median reported; the last
	// deployment is the one the traffic runs against.
	reps := setupReps
	if trace {
		reps = 1
	}
	var setups []float64
	var f *fleet
	for rep := 0; rep < reps; rep++ {
		if f != nil {
			f.stop()
		}
		t0 := time.Now()
		if f, err = h.setUp(w, in); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer f.stop()

	if trace {
		if err := h.tracedRun(w, in, f, heal, seed, seconds, res, outDir); err != nil {
			return nil, err
		}
	} else {
		p, err := runPass(w, in, f, heal, seconds, seed, false)
		if err != nil {
			return nil, err
		}
		m := p.merge(w.heal)
		heals := m.heals
		if !w.heal {
			rec, err := probeHeals(f, heal)
			if err != nil {
				return nil, err
			}
			heals = rec.heals
			m.attempted += rec.attempted
			m.failed += rec.failed
			if m.firstErr == nil {
				m.firstErr = rec.firstErr
			}
		}
		peak, err := f.memMB("VmHWM")
		if err != nil {
			return nil, err
		}
		res.Info["server_rss_peak_mb"] = peak
		res.set("setup_s", median(setups))
		res.set("pages_per_s", m.throughput)
		res.set("latency_p50_ms", m.p50)
		res.set("latency_p99_ms", m.p99)
		res.set("server_cpu_us_per_page", m.cpuUSPerPage)
		res.set("server_rss_mb", median(p.rssAt))
		res.set("heal_ms", healTime(heals))
		res.Info["latency_n"] = float64(m.latN)
		res.Info["latency_p99_q"] = m.p99Q
		res.Info["latency_p99_windows"] = float64(m.p99Windows)
		res.Info["heal_n"] = float64(len(heals))
		res.Info["record_f1"] = f1(m.served, m.gold, m.hit)
		res.Info["loadgen.cpu_share"] = m.loadgenShare
		if len(m.lateMS) > 0 {
			res.Info["loadgen.late_p99_ms"], _ = quantile(m.lateMS, 0.99)
		}
		res.finish(m)
	}
	return res, nil
}

// setupReps is how many times a run sets the deployment up; setup_s is the
// median.
const setupReps = 7

// finish books the correctness ledger and the validity of the run. A run is
// invalid when the generator, not the program, set its numbers.
func (r *result) finish(m *merged) {
	r.Attempted, r.Failed = m.attempted, m.failed
	if m.firstErr != nil {
		r.FirstErr = m.firstErr.Error()
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
	r.Valid = validRun(m.loadgenShare, m.achievedRate)
}

// validRun says whether the program, not the generator, set a run's numbers:
// the generator used less CPU than the servers did, and an open loop kept
// its schedule (a closed loop has none; pass 1). The generator's lateness is
// reported beside the latencies rather than gated: with a learner on one
// core and a server on the other, the kernel wakes any third process 2-3 ms
// late at the 99th percentile, whatever that process does.
func validRun(loadgenShare, achievedRateShare float64) bool {
	return loadgenShare <= 0.5 && achievedRateShare >= 0.95
}

// scrape reads GET /metrics of one server process.
func scrape(addr string) (*serve.MetricsResponse, error) {
	c, err := dial(addr)
	if err != nil {
		return nil, err
	}
	defer c.close()
	status, body, err := c.roundTrip(encodeRequest("GET", "/metrics", nil), requestTimeout)
	if err != nil {
		return nil, err
	}
	if status != 200 {
		return nil, fmt.Errorf("/metrics of %s: status %d", addr, status)
	}
	var m serve.MetricsResponse
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, err
	}
	return &m, nil
}
