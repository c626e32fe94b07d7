package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// These tests cover the benchmark's pure rules. None boots a process.

func TestSupportedQuantileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n     int
		q     float64
		want  float64
		exact bool
	}{
		{1000, 0.99, 0.99, true}, // exactly ten beyond
		{999, 0.99, 1 - 10.0/999, false},
		{312, 0.99, 1 - 10.0/312, false},
		{100, 0.90, 0.90, true},
		{99, 0.90, 1 - 10.0/99, false},
		{20, 0.99, 0.5, false}, // too small for any tail: the median
		{3, 0.5, 0.5, true},    // the median is always reported
	} {
		got, exact := supportedQ(tc.n, tc.q)
		if math.Abs(got-tc.want) > 1e-12 || exact != tc.exact {
			t.Errorf("supportedQ(%d, %v) = %v, %v; want %v, %v", tc.n, tc.q, got, exact, tc.want, tc.exact)
		}
	}
}

func seq(n int, from float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = from + float64(i)
	}
	return out
}

func TestBestWindowQuantileTakesQuickestWindow(t *testing.T) {
	// Three windows of 1000 samples; two are disturbed. The quickest window
	// is the value.
	windows := [][]float64{seq(1000, 40), seq(1000, 5000), seq(1000, 10)}
	v, q, used, n := bestWindowQuantile(windows, 0.99)
	if v != 999 || q != 0.99 || used != 3 || n != 3000 {
		t.Errorf("got value %v q %v windows %d n %d; want 999, 0.99, 3, 3000", v, q, used, n)
	}
	// The p50 of a window is its 500th sample.
	if v, _, _, _ := bestWindowQuantile(windows, 0.5); v != 509 {
		t.Errorf("p50 = %v, want 509", v)
	}
	// An empty window is no window.
	if v, _, _, _ := bestWindowQuantile([][]float64{nil, seq(3, 7)}, 0.5); v != 8 {
		t.Errorf("p50 with an empty window = %v, want 8", v)
	}
}

func TestBestWindowQuantileMergesSmallWindows(t *testing.T) {
	// Six windows of 300: p99 needs 1000 per window, so they merge until
	// they have it (3 windows of 600 and 2 of 900 do not, 1 of 1800 does).
	var windows [][]float64
	for i := 0; i < 6; i++ {
		windows = append(windows, seq(300, float64(300*i)))
	}
	v, q, used, n := bestWindowQuantile(windows, 0.99)
	if used != 1 || q != 0.99 || n != 1800 || v != 1781 {
		t.Errorf("got value %v q %v windows %d n %d; want 1781, 0.99, 1, 1800", v, q, used, n)
	}
	// p90 needs 100 per window: every window has it, the first is quickest.
	if v, q, used, _ := bestWindowQuantile(windows, 0.9); used != 6 || q != 0.9 || v != 269 {
		t.Errorf("p90 = %v from %d windows at q %v; want 269 from 6 at 0.9", v, used, q)
	}
	// Too few samples even in one window: the highest supported quantile.
	if _, q, used, _ := bestWindowQuantile(windows[:2], 0.99); used != 1 || math.Abs(q-(1-10.0/600)) > 1e-12 {
		t.Errorf("600 samples: used %d windows at q %v; want 1 at %v", used, q, 1-10.0/600)
	}
}

func TestHealTimeIsMedianOverSitesOfQuickestHeal(t *testing.T) {
	heals := []healRecord{{0, 70}, {1, 120}, {2, 90}, {0, 65}, {1, 300}, {2, 95}}
	if got := healTime(heals); got != 90 {
		t.Errorf("healTime = %v, want 90 (quickest per site 65, 120, 90)", got)
	}
	if got := healTime(nil); got != 0 {
		t.Errorf("healTime(nil) = %v, want 0", got)
	}
}

func TestValidRun(t *testing.T) {
	for _, tc := range []struct {
		share, achieved float64
		want            bool
	}{
		{0.3, 1, true},
		{0.6, 1, false},    // the generator outweighs the servers
		{0.1, 0.99, true},  // an open loop that kept its schedule
		{0.1, 0.80, false}, // and one that did not
	} {
		if got := validRun(tc.share, tc.achieved); got != tc.want {
			t.Errorf("validRun(%v, %v) = %v, want %v", tc.share, tc.achieved, got, tc.want)
		}
	}
}

func TestWindowOf(t *testing.T) {
	const win = 3_000_000_000
	for _, tc := range []struct {
		offset int64
		want   int
	}{{-1, -1}, {0, 0}, {win - 1, 0}, {win, 1}, {6*win - 1, 5}, {6 * win, -1}} {
		if got := windowOf(tc.offset, win, 6); got != tc.want {
			t.Errorf("windowOf(%d) = %d, want %d", tc.offset, got, tc.want)
		}
	}
	if windowsFor(20) != 10 || windowsFor(5) != 2 || windowsFor(3) != 1 {
		t.Errorf("windowsFor: 20→%d 5→%d 3→%d; want 10, 2, 1", windowsFor(20), windowsFor(5), windowsFor(3))
	}
}

func TestOpenLoopLatencyCountsFromDueTime(t *testing.T) {
	// A request due at 10 ms that could only be sent at 14 ms, because the
	// server was still answering the previous one until then, and was
	// answered at 15 ms, waited 5 ms as far as its user is concerned.
	const msNS = 1_000_000
	if got := openLoopLatency(10*msNS, 15*msNS); got != 5*msNS {
		t.Errorf("latency = %d ns, want 5 ms", got)
	}
	// None of that wait is the generator's: it sent the moment the
	// connection was free.
	if got := generatorLateness(10*msNS, 14*msNS, 14*msNS); got != 0 {
		t.Errorf("lateness behind a busy connection = %d, want 0", got)
	}
	// A free connection and a send 0.3 ms after the due time: that is the
	// generator's.
	if got := generatorLateness(10*msNS, 8*msNS, 10*msNS+300_000); got != 300_000 {
		t.Errorf("lateness = %d, want 300000", got)
	}
	// Never negative.
	if got := generatorLateness(10*msNS, 0, 9*msNS); got != 0 {
		t.Errorf("early send lateness = %d, want 0", got)
	}
}

func TestSpanSelfTimeSubtractsCoveredPart(t *testing.T) {
	parent := span{Name: "p", StartNS: 100, EndNS: 200}
	for _, tc := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []span{{StartNS: 120, EndNS: 150}}, 70},
		{"two disjoint", []span{{StartNS: 110, EndNS: 120}, {StartNS: 150, EndNS: 190}}, 50},
		{"overlapping children count once", []span{{StartNS: 110, EndNS: 160}, {StartNS: 140, EndNS: 180}}, 30},
		{"child sticking out is clipped", []span{{StartNS: 50, EndNS: 130}, {StartNS: 190, EndNS: 400}}, 60},
		{"child outside", []span{{StartNS: 300, EndNS: 400}}, 100},
		{"nested duplicates", []span{{StartNS: 100, EndNS: 200}, {StartNS: 120, EndNS: 130}}, 0},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestSpanLogSelfTimesByRequest(t *testing.T) {
	l := &spanLog{}
	l.add(1, "client.send", "client.request", 0, 10)
	l.add(1, "client.wait", "client.request", 10, 90)
	l.add(1, "client.request", "", 0, 100)
	l.add(2, "client.wait", "client.request", 205, 250)
	l.add(2, "client.request", "", 200, 260)
	got := l.selfTimes("client.request")
	if len(got) != 2 || got[0] != 10 || got[1] != 15 {
		t.Errorf("self times %v, want [10 15]", got)
	}
	if d := l.durations("client.wait"); len(d) != 2 || d[0] != 80 || d[1] != 45 {
		t.Errorf("durations %v, want [80 45]", d)
	}
}

func TestJudgeVerdicts(t *testing.T) {
	lowerBetter := e2e("ms", false, 0.10)
	higherBetter := e2e("1/s", true, 0.10)
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 100, 75, 125, 90, 110, 55, 145, 100}
	for _, tc := range []struct {
		name      string
		base, cur []float64
		def       metricDef
		want      string
	}{
		{"same", steady, steady, lowerBetter, verdictOK},
		{"slower within bound", steady, shift(steady, 1.08), lowerBetter, verdictOK},
		{"slower beyond bound", steady, shift(steady, 1.15), lowerBetter, verdictWorse},
		{"faster is never worse", steady, shift(steady, 0.5), lowerBetter, verdictOK},
		{"throughput down beyond bound", steady, shift(steady, 0.85), higherBetter, verdictWorse},
		{"throughput up", steady, shift(steady, 1.5), higherBetter, verdictOK},
		{"spread wider than bound", noisy, shift(noisy, 1.3), lowerBetter, verdictUnresolved},
		{"one noisy side is enough", steady, noisy, lowerBetter, verdictUnresolved},
	} {
		if _, _, _, _, got := judge(tc.base, tc.cur, tc.def); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
	_, _, worse, _, _ := judge(steady, shift(steady, 0.85), higherBetter)
	if math.Abs(worse-0.15) > 1e-9 {
		t.Errorf("throughput down 15%%: worsening %v, want 0.15", worse)
	}
}

func TestIQRShareMatchesPythonExclusiveQuartiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	if got, want := iqrShare(seq(10, 1)), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
}

func TestParseStatCPU(t *testing.T) {
	// A command name with spaces and parentheses must not shift the fields.
	line := []byte("1234 (wrap served) (x)) S 1 1234 1234 0 -1 4194560 500 0 0 0 250 50 0 0 20 0 9 0 100 1000000 300 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0")
	got, err := parseStatCPU(line)
	if err != nil || got != 3.0 {
		t.Errorf("parseStatCPU = %v, %v; want 3.0 s (250+50 ticks)", got, err)
	}
	if _, err := parseStatCPU([]byte("garbage")); err == nil {
		t.Error("malformed line accepted")
	}
}

func TestRequestCheck(t *testing.T) {
	pages := []page{{html: "<p>a</p>", ref: []string{"Ann & Co", "Bo"}, gold: []string{"Ann & Co", "Bo"}}}
	r, err := newExtractRequest("site-001", 1, pages)
	if err != nil {
		t.Fatal(err)
	}
	good := `{"site":"site-001","version":1,"results":[{"id":"page-0","records":["Ann \u0026 Co","Bo"],"elapsed_us":12345}]}` + "\n"
	if !r.check([]byte(good)) {
		t.Error("exact response rejected")
	}
	if at := len(r.expect[0]); string(good[:at]) != string(r.expect[0]) {
		t.Errorf("the exact response does not take the byte path: expect %q", r.expect[0])
	}
	// The same content in another byte form still passes, decoded.
	if !r.check([]byte(`{"version":1, "site":"site-001", "results":[{"records":["Ann & Co","Bo"],"elapsed_us":1,"id":"page-0"}]}`)) {
		t.Error("equivalent response rejected")
	}
	for name, bad := range map[string]string{
		"wrong record":  `{"site":"site-001","version":1,"results":[{"id":"page-0","records":["Ann","Bo"],"elapsed_us":1}]}`,
		"wrong version": `{"site":"site-001","version":2,"results":[{"id":"page-0","records":["Ann & Co","Bo"],"elapsed_us":1}]}`,
		"page error":    `{"site":"site-001","version":1,"results":[{"id":"page-0","records":["Ann & Co","Bo"],"error":"x","elapsed_us":1}]}`,
		"missing page":  `{"site":"site-001","version":1,"results":[]}`,
		"not json":      `oops`,
	} {
		if r.check([]byte(bad + "\n")) {
			t.Errorf("%s accepted", name)
		}
	}
	if r.served != 2 || r.gold != 2 || r.hit != 2 || f1(r.served, r.gold, r.hit) != 1 {
		t.Errorf("record counts %d %d %d", r.served, r.gold, r.hit)
	}
	if got := f1(4, 2, 2); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("f1(4 served, 2 gold, 2 hit) = %v, want 2/3", got)
	}
}

// TestBenchmarkJSONMatchesTable keeps BENCHMARK.json, which the driver
// reads, the same as the tables this program judges and prints by.
func TestBenchmarkJSONMatchesTable(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	type jm struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []jm `json:"end_to_end"`
		PerLayer  []jm `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %q/%q differs from the program's %q/%q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, got []jm, want []string, endToEnd bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			d := metricDefs[want[i]]
			better := "lower"
			if d.higher {
				better = "higher"
			}
			if m.Name != want[i] || m.Unit != d.unit || m.Better != better || d.endToEnd != endToEnd {
				t.Errorf("%s %d: %+v differs from the program's %s %+v", kind, i, m, want[i], d)
			}
			if endToEnd && (m.Bound == nil || *m.Bound != d.bound) {
				t.Errorf("%s %s: bound differs from the program's %v", kind, m.Name, d.bound)
			}
			if !endToEnd && m.Bound != nil {
				t.Errorf("%s %s: a per-layer metric has no bound", kind, m.Name)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEndOrder, true)
	check("per_layer", doc.PerLayer, perLayerOrder, false)
	if len(metricDefs) != len(endToEndOrder)+len(perLayerOrder) {
		t.Errorf("metricDefs has %d entries, the two orders %d", len(metricDefs), len(endToEndOrder)+len(perLayerOrder))
	}
}
