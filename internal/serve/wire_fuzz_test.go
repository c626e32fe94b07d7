package serve

import (
	"testing"

	"autowrap/internal/chaos"
)

// FuzzDecodeExtractRequest throws the chaos corpus — and everything the
// fuzzer grows from it — at the pooled wire decoder and holds it to three
// promises: it errors exactly when encoding/json errors, it never
// panics, and nothing it returns aliases the pooled body buffer. The
// fixed seeds are the shapes that historically break hand-rolled
// decoders (truncation at structural boundaries, type confusion, raw
// NULs, invalid UTF-8, scanner state abuse); chaos.NewBodies extends
// them with seeded mutations of a valid request.
func FuzzDecodeExtractRequest(f *testing.F) {
	f.Add([]byte(`{"site":"shop","page":{"id":"p1","html":"<html><body>x</body></html>"}}`))
	f.Add([]byte(`{"site":"shop","pages":[{"id":"a","html":"<p>1</p>"},{"html":"<p>2</p>"}]}`))
	f.Add([]byte(`{"site":"s","timeout_ms":250}`))
	f.Add([]byte(`{"site":"esc","page":{"html":"Aé☃ 😀 q\\\"r"}}`))
	for _, seed := range chaos.Seeds() {
		f.Add(seed)
	}
	bodies := chaos.NewBodies(1)
	for i := 0; i < 64; i++ {
		f.Add(bodies.Malformed())
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		ref, refErr := decodeRef(body)

		// Decode through the real pool so reuse bugs (a scratch not fully
		// reset between requests) are reachable, not just fresh-struct ones.
		sc := acquireScratch()
		defer releaseScratch(sc)
		sc.body = append(sc.body[:0], body...)
		fastErr := decodeExtractRequest(sc)

		if (refErr == nil) != (fastErr == nil) {
			t.Fatalf("%q: error mismatch: encoding/json=%v fast=%v", body, refErr, fastErr)
		}
		if refErr != nil {
			return
		}

		// Capture every retained string, then scribble over the body buffer
		// the way the pool's next user would: the strings must not move.
		site, timeoutMS := sc.site, sc.timeoutMS
		hasSingle, single := sc.hasSingle, sc.single
		pages := append([]pageIn(nil), sc.pages...)
		for i := range sc.body {
			sc.body[i] = 'Z'
		}

		if site != ref.Site {
			t.Fatalf("%q: site = %q, want %q", body, site, ref.Site)
		}
		if timeoutMS != ref.TimeoutMS {
			t.Fatalf("%q: timeout_ms = %d, want %d", body, timeoutMS, ref.TimeoutMS)
		}
		if hasSingle != (ref.Page != nil) {
			t.Fatalf("%q: hasSingle = %v, want %v", body, hasSingle, ref.Page != nil)
		}
		if ref.Page != nil && (single.id != ref.Page.ID || single.html != ref.Page.HTML) {
			t.Fatalf("%q: page = %+v, want %+v", body, single, *ref.Page)
		}
		if len(pages) != len(ref.Pages) {
			t.Fatalf("%q: %d pages, want %d", body, len(pages), len(ref.Pages))
		}
		for i := range pages {
			if pages[i].id != ref.Pages[i].ID || pages[i].html != ref.Pages[i].HTML {
				t.Fatalf("%q: pages[%d] = %+v, want %+v", body, i, pages[i], ref.Pages[i])
			}
		}
	})
}

// FuzzDecodeMaintenanceRequest holds the cursor decode of /v1/repair and
// /v1/learn bodies to the json.Decoder + More() decode those routes had
// before: the same bodies refused (and the same ones as trailing data), the
// same fields out of the rest, nothing aliasing the pooled buffer.
func FuzzDecodeMaintenanceRequest(f *testing.F) {
	for _, body := range maintenanceBodies {
		f.Add([]byte(body), true)
		f.Add([]byte(body), false)
	}
	for _, seed := range chaos.Seeds() {
		f.Add(seed, true)
	}
	bodies := chaos.NewBodies(2)
	for i := 0; i < 64; i++ {
		f.Add(bodies.Malformed(), i%2 == 0)
	}
	f.Fuzz(func(t *testing.T, body []byte, learn bool) {
		checkMaintenanceDecode(t, body, learn)
	})
}

// FuzzPeekRoute holds the routing peek of a forwarding front to the
// decoders it stands in for (checkPeek: same site and timeout_ms wherever a
// decoder accepts, no byte changed), and the front built on it to the front
// that decoded every body before forwarding it (peekFleet.check: same
// status, relayed headers and body bytes on each of the three routes).
func FuzzPeekRoute(f *testing.F) {
	for _, seed := range chaos.Seeds() {
		f.Add(seed, uint8(0))
	}
	for i, body := range maintenanceBodies {
		f.Add([]byte(body), uint8(1+i%2))
	}
	for i, body := range peekBodies {
		f.Add([]byte(body), uint8(i))
	}
	bodies := chaos.NewBodies(5)
	for i := 0; i < 64; i++ {
		f.Add(bodies.Malformed(), uint8(i))
	}
	fleet := newPeekFleet(f)
	f.Fuzz(func(t *testing.T, body []byte, route uint8) {
		checkPeek(t, body)
		fleet.check(t, peekRoutes[int(route)%len(peekRoutes)], body)
	})
}
