package serve

import (
	"testing"

	"autowrap/internal/chaos"
)

// FuzzDecodeExtractRequest throws the chaos corpus — and everything the
// fuzzer grows from it — at the pooled wire decoder and holds it to three
// promises: it errors exactly when encoding/json errors, it never
// panics, and nothing that outlives the request aliases the pooled body
// buffer — the site, the page IDs, a recent-page ring filled from the
// request (checkExtractDecode) and the strings a maintenance decode of the
// same bytes returns (checkMaintenanceDecode). The fixed seeds are the
// shapes that historically break hand-rolled decoders (truncation at
// structural boundaries, type confusion, raw NULs, invalid UTF-8, scanner
// state abuse, repeated keys); chaos.NewBodies extends them with seeded
// mutations of a valid request.
func FuzzDecodeExtractRequest(f *testing.F) {
	for _, body := range extractBodies {
		f.Add([]byte(body))
	}
	for _, seed := range chaos.Seeds() {
		f.Add(seed)
	}
	bodies := chaos.NewBodies(1)
	for i := 0; i < 64; i++ {
		f.Add(bodies.Malformed())
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		checkExtractDecode(t, body)
		checkMaintenanceDecode(t, body, false)
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
