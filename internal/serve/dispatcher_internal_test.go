package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"autowrap/internal/extract"
	"autowrap/internal/lr"
	"autowrap/internal/store"
)

// TestUnknownSitesDoNotLeakSlots pins the admission-side memory bound: a
// stream of requests for junk site names must not grow the per-site slot
// map — only sites the store knows get serving state.
func TestUnknownSitesDoNotLeakSlots(t *testing.T) {
	st := store.New()
	if _, err := st.Put("real", &lr.Compiled{Left: "<b>", Right: "</b>"}, store.Meta{}); err != nil {
		t.Fatal(err)
	}
	d := NewDispatcher(st, Options{})
	ctx := context.Background()
	pages := []extract.Page{{ID: "p", HTML: "<html><b>x</b></html>"}}
	if _, err := d.Extract(ctx, "real", pages); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := d.Extract(ctx, fmt.Sprintf("junk-%d", i), pages); err == nil {
			t.Fatalf("junk site %d served", i)
		}
	}
	slots := 0
	d.sites.Range(func(_, _ any) bool { slots++; return true })
	if slots != 1 {
		t.Fatalf("slot map holds %d entries after junk traffic, want 1", slots)
	}
}

// TestRecentPagesOutliveTheBody pins who copies a served page. The handler
// serves pages as views of its pooled request body, so the recent-page ring
// — and a repair job's payload taken from it, as Maintainer.submit takes
// one — must hold copies that survive the body being scribbled over and
// the scratch serving the next request.
func TestRecentPagesOutliveTheBody(t *testing.T) {
	st := store.New()
	if _, err := st.Put("shop", &lr.Compiled{Left: "<b>", Right: "</b>"}, store.Meta{}); err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(ServerConfig{Dispatcher: NewDispatcher(st, Options{RecentPages: 4})})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// serve runs one request through sc as handleExtract does, short of
	// acquiring and releasing the scratch.
	serve := func(sc *extractScratch, pages ...string) {
		t.Helper()
		req := ExtractRequest{Site: "shop"}
		for _, html := range pages {
			req.Pages = append(req.Pages, PageInput{HTML: html})
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		sc.body = append(sc.body[:0], body...)
		if err := decodeExtractRequest(sc); err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		s.finishExtract(rec, httptest.NewRequest(http.MethodPost, "/v1/extract", nil), sc)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	first := []string{"<p><b>one</b></p>", "<p><b>two</b></p>"}
	second := []string{"<i><b>3</b></i>", "<i><b>4</b></i>"}

	sc := acquireScratch()
	defer releaseScratch(sc)
	serve(sc, first...)
	job := s.cfg.Dispatcher.RecentPages("shop")
	buf := sc.body[:cap(sc.body)]
	for i := range buf {
		buf[i] = 'Z'
	}
	serve(sc, second...)
	if &sc.body[0] != &buf[0] {
		t.Fatal("the second request did not reuse the body buffer")
	}

	if !slices.Equal(job, first) {
		t.Fatalf("repair payload = %q, want %q", job, first)
	}
	if got, want := s.cfg.Dispatcher.RecentPages("shop"), append(first, second...); !slices.Equal(got, want) {
		t.Fatalf("ring = %q, want %q", got, want)
	}
}
