package drift_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"autowrap/internal/drift"
	"autowrap/internal/extract"
	"autowrap/internal/store"
	"autowrap/internal/xpinduct"
)

func profile(mean float64) *store.Profile {
	return &store.Profile{Pages: 8, MeanRecords: mean}
}

// feed pushes n healthy pages with the given record count.
func feed(h *drift.SiteHealth, n, records int) {
	for i := 0; i < n; i++ {
		h.Record(records, false)
	}
}

func TestTripOnEmptyCollapse(t *testing.T) {
	m := drift.NewMonitor(drift.Policy{Window: 16, MinPages: 8})
	h := m.Register("shop", profile(5))
	feed(h, 20, 5)
	if h.Tripped() {
		t.Fatalf("healthy traffic tripped: %s", h.Stats())
	}
	// The site's template changes: every page now extracts nothing. The
	// window must trip once empties dominate, and the trip must latch.
	feed(h, 16, 0)
	if !h.Tripped() {
		t.Fatalf("empty collapse did not trip: %s", h.Stats())
	}
	s := h.Stats()
	if s.Trips != 1 || !s.Tripped {
		t.Fatalf("stats = %s", s)
	}
	feed(h, 50, 0)
	if got := h.Stats().Trips; got != 1 {
		t.Fatalf("trip did not latch: %d trips", got)
	}
	if got := m.Tripped(); len(got) != 1 || got[0] != "shop" {
		t.Fatalf("monitor tripped list = %v", got)
	}
}

func TestTripOnRecordCountCollapse(t *testing.T) {
	m := drift.NewMonitor(drift.Policy{Window: 16, MinPages: 8, CollapseFrac: 0.5})
	h := m.Register("shop", profile(6))
	// Pages still extract, but only a sliver of what the wrapper used to
	// find — the partial-breakage signal empties alone would miss.
	feed(h, 16, 2)
	if !h.Tripped() {
		t.Fatalf("record collapse (2 vs profile 6) did not trip: %s", h.Stats())
	}
	// Without a profile the collapse check is disarmed.
	h2 := m.Register("no-profile", nil)
	feed(h2, 32, 1)
	if h2.Tripped() {
		t.Fatalf("profile-less site tripped on low counts: %s", h2.Stats())
	}
}

func TestTripOnFailures(t *testing.T) {
	m := drift.NewMonitor(drift.Policy{Window: 8, MinPages: 4})
	h := m.Register("shop", profile(4))
	for i := 0; i < 8; i++ {
		h.Record(0, true)
	}
	if !h.Tripped() {
		t.Fatalf("failure storm did not trip: %s", h.Stats())
	}
}

func TestMinPagesAndCooldown(t *testing.T) {
	m := drift.NewMonitor(drift.Policy{Window: 16, MinPages: 8, Cooldown: 10})
	h := m.Register("shop", profile(5))
	// Below MinPages nothing trips, however bad the pages.
	feed(h, 7, 0)
	if h.Tripped() {
		t.Fatal("tripped below MinPages")
	}
	feed(h, 2, 0)
	if !h.Tripped() {
		t.Fatal("did not trip at MinPages")
	}
	// Reset re-arms with a cooldown: the next Cooldown observations are
	// grace, then checks resume against the new profile.
	h.Reset(profile(5))
	if h.Tripped() {
		t.Fatal("reset did not clear the trip")
	}
	feed(h, 10, 0) // eaten by cooldown
	if h.Tripped() {
		t.Fatal("tripped during cooldown")
	}
	feed(h, 16, 0)
	if !h.Tripped() {
		t.Fatalf("did not re-trip after cooldown: %s", h.Stats())
	}
}

func TestOnTripFiresOnce(t *testing.T) {
	var fired []string
	m := drift.NewMonitor(drift.Policy{Window: 8, MinPages: 4})
	m.SetOnTrip(func(site string, s drift.Stats) {
		fired = append(fired, fmt.Sprintf("%s@%d", site, s.Pages))
	})
	h := m.Register("shop", profile(5))
	feed(h, 12, 0)
	if len(fired) != 1 || !strings.HasPrefix(fired[0], "shop@") {
		t.Fatalf("trip hook calls = %v, want exactly one for shop", fired)
	}
}

// TestWindowSlides checks eviction: a bad burst that has rolled out of the
// window no longer counts against the site.
func TestWindowSlides(t *testing.T) {
	m := drift.NewMonitor(drift.Policy{Window: 8, MinPages: 8, MaxEmptyFrac: 0.6})
	h := m.Register("shop", profile(0)) // no collapse check (mean 0)
	feed(h, 4, 0)
	feed(h, 20, 5)
	s := h.Stats()
	if s.EmptyFrac != 0 || s.MeanRecords != 5 {
		t.Fatalf("window did not slide: %s", s)
	}
	if s.Pages != 24 || s.WindowPages != 8 {
		t.Fatalf("counters wrong: %s", s)
	}
	if h.Tripped() {
		t.Fatal("slid-out burst tripped the site")
	}
}

// TestObserveIsAllocationFree pins the hot-path contract: one observation
// performs zero heap allocations.
func TestObserveIsAllocationFree(t *testing.T) {
	m := drift.NewMonitor(drift.Policy{})
	h := m.Register("shop", profile(5))
	res := &extract.Result{Texts: []string{"a", "b", "c"}}
	if allocs := testing.AllocsPerRun(1000, func() { h.Observe(res) }); allocs != 0 {
		t.Fatalf("Observe allocates %.1f per call", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() { h.Record(0, false) }); allocs != 0 {
		t.Fatalf("Record allocates %.1f per call", allocs)
	}
}

// TestMonitorWiredIntoRuntime runs the real serving path: an extraction
// runtime with the site's health observer as its OnResult tap, fed pages
// the wrapper cannot extract from, must trip the monitor.
func TestMonitorWiredIntoRuntime(t *testing.T) {
	p, err := xpinduct.CompileRule(`//td[@class='v']/text()`)
	if err != nil {
		t.Fatal(err)
	}
	m := drift.NewMonitor(drift.Policy{Window: 8, MinPages: 4})
	h := m.Register("shop", profile(3))
	rt := extract.New(p, extract.Options{Workers: 4, OnResult: h.Observe})

	good := make([]extract.Page, 8)
	for i := range good {
		good[i] = extract.Page{ID: fmt.Sprintf("g%d", i), HTML: `<html><body><table>` +
			`<tr><td class="v">a</td></tr><tr><td class="v">b</td></tr><tr><td class="v">c</td></tr>` +
			`</table></body></html>`}
	}
	if _, err := rt.Run(context.Background(), good); err != nil {
		t.Fatal(err)
	}
	if h.Tripped() {
		t.Fatalf("healthy serving tripped: %s", h.Stats())
	}
	// Template change: the class is gone, every extraction comes up empty.
	bad := make([]extract.Page, 8)
	for i := range bad {
		bad[i] = extract.Page{ID: fmt.Sprintf("b%d", i), HTML: `<html><body><table>` +
			`<tr><td class="w">a</td></tr></table></body></html>`}
	}
	if _, err := rt.Run(context.Background(), bad); err != nil {
		t.Fatal(err)
	}
	if !h.Tripped() {
		t.Fatalf("runtime-fed monitor did not trip: %s", h.Stats())
	}
	if hc := rt.Health(); hc.Empty < 8 {
		t.Fatalf("runtime health missed the empties: %+v", hc)
	}
}

func TestRegisterIsIdempotent(t *testing.T) {
	m := drift.NewMonitor(drift.Policy{})
	a := m.Register("s", profile(5))
	b := m.Register("s", profile(9))
	if a != b {
		t.Fatal("Register returned a second health for the same site")
	}
	if _, ok := m.Site("s"); !ok {
		t.Fatal("Site lookup failed")
	}
	if _, ok := m.Site("missing"); ok {
		t.Fatal("Site invented a registration")
	}
	if snap := m.Snapshot(); len(snap) != 1 || snap["s"].Site != "s" {
		t.Fatalf("snapshot = %+v", snap)
	}
}
