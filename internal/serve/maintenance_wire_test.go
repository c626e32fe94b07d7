package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"autowrap/internal/chaos"
	"autowrap/internal/drift"
	"autowrap/internal/jobs"
	"autowrap/internal/store"
)

// decodeMaintenanceRef is the decode /v1/repair and /v1/learn did before
// they moved to the wire cursor: json.Decoder into the request struct, then
// Decoder.More as the trailing-data check.
func decodeMaintenanceRef(body []byte, learn bool) (LearnRequest, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	var req LearnRequest
	var err error
	if learn {
		err = dec.Decode(&req)
	} else {
		var rep RepairRequest
		err = dec.Decode(&rep)
		req = LearnRequest{Site: rep.Site, Pages: rep.Pages, TimeoutMS: rep.TimeoutMS}
	}
	if err != nil {
		return req, err
	}
	if dec.More() {
		return req, errTrailing
	}
	return req, nil
}

// checkMaintenanceDecode holds the cursor decoder to the reference on one
// body: an error exactly when the reference errors, "trailing data" exactly
// when the reference says so (it is a different response body), the same
// fields otherwise — the pages views of the body buffer, which the job
// keeps, and the other strings not aliasing it.
func checkMaintenanceDecode(t *testing.T, body []byte, learn bool) {
	t.Helper()
	ref, refErr := decodeMaintenanceRef(body, learn)
	buf := append([]byte(nil), body...)
	var got LearnRequest
	fastErr := decodeMaintenanceRequest(buf, &got, learn)
	if (refErr == nil) != (fastErr == nil) || (refErr == errTrailing) != (fastErr == errTrailing) {
		t.Fatalf("%q (learn=%v): error mismatch: encoding/json=%v cursor=%v", body, learn, refErr, fastErr)
	}
	if refErr != nil {
		return
	}
	if !slices.Equal(got.Pages, ref.Pages) || (got.Pages == nil) != (ref.Pages == nil) {
		t.Fatalf("%q (learn=%v): pages\n cursor %q\n  json  %q", body, learn, got.Pages, ref.Pages)
	}
	for i := range buf {
		buf[i] = 'Z' // what a scratch's next user would do, were the body pooled
	}
	if got.Site != ref.Site || got.CorpusDir != ref.CorpusDir || got.TimeoutMS != ref.TimeoutMS {
		t.Fatalf("%q (learn=%v):\n cursor %+v\n  json  %+v", body, learn, got, ref)
	}
}

// maintenanceBodies are the shapes the decode contract names: unknown and
// duplicated keys, case-folded (and Unicode-folded) key matches, null at
// every level, trailing data, type confusion and truncation.
var maintenanceBodies = []string{
	`{"site":"shop","pages":["<p>a</p>","<p>b</p>"]}`,
	`{"site":"shop","pages":["<p>a</p>","<p>b</p>"],"timeout_ms":250}`,
	`{"site":"new","corpus_dir":"sub/dir","timeout_ms":-3}`,
	`{"site":"both","pages":["a","b"],"corpus_dir":"d"}`,
	`{"site":"esc","pages":["<p>\u0041\u00e9\u2603 \ud83d\ude00 q\\\"r<\/p>","\ud800 lone","line1\nline2\r\t\u0001"]}`,
	"  {\n\t\"site\" : \"ws\" , \"pages\" : [ \"a\" , \"b\" ] }  \n",
	`{}`,
	`null`,
	` null `,
	`{"site":null,"pages":null,"timeout_ms":null,"corpus_dir":null}`,
	`{"pages":[]}`,
	`{"pages":[null]}`,
	`{"pages":["a",null,"c"]}`,
	// duplicated keys: last wins; a duplicated array overwrites in place,
	// so a null element keeps what the slot held before
	`{"site":"first","site":"last"}`,
	`{"timeout_ms":1,"timeout_ms":2}`,
	`{"pages":["a","b","c"],"pages":["x"]}`,
	`{"pages":["a","b"],"pages":[null]}`,
	`{"pages":["a","b","c"],"pages":["x"],"pages":[null,null]}`,
	`{"pages":["a","b","c"],"pages":["x"],"pages":[null,null,null,null,null]}`,
	`{"pages":["a","b"],"pages":[],"pages":[null]}`,
	`{"pages":["a","b"],"pages":null,"pages":[null]}`,
	`{"pages":["a"],"site":"s","pages":[null,"b"]}`,
	// key matching
	`{"SITE":"upper","Pages":["A","B"],"TimeOut_MS":7,"CORPUS_DIR":"D"}`,
	"{\"\u017fite\":\"long s\",\"page\u017f\":[\"a\",\"b\"],\"timeout_m\u017f\":3,\"corpu\u017f_dir\":\"d\"}",
	"{\"\u212aey\":1,\"site\":\"kelvin\"}",
	`{"s\u0069te":"escaped key"}`,
	`{"site ":"not a field","sitex":"nor this","sit":"nor this"}`,
	`{"unknown":{"deep":[1,2,{"x":null}],"s":"v"},"site":"extra","more":[true,false,null,-0,1.25e+3]}`,
	`{"page":{"html":"an extract body"},"site":"s"}`,
	// trailing data: Decoder.More let a stray closer through
	`{"site":"x","pages":["a","b"]}}`,
	`{"site":"x","pages":["a","b"]}]`,
	`{"site":"x"} ] trailing after a closer`,
	`null}`,
	`{"site":"x"} trailing`,
	`{"site":"x"}{}`,
	`{"site":"x"}"`,
	`{"site":"x"},`,
	`{"site":"x"}0`,
	// invalid: both decoders must reject
	``,
	`   `,
	`nul`,
	`nullx`,
	`{"site":"x"`,
	`{"site":"x","pages":["a"`,
	`{"site":"x","pages":["a",]}`,
	`{"site":"x","pages":[,"a"]}`,
	`["not an object"]`,
	`"string"`,
	`42`,
	`true`,
	`{"site":42}`,
	`{"site":["x"]}`,
	`{"corpus_dir":7,"site":"x"}`,
	`{"pages":"one"}`,
	`{"pages":{"0":"a"}}`,
	`{"pages":[1,2]}`,
	`{"pages":[["a"]]}`,
	`{"pages":[{"html":"extract-style"}]}`,
	`{"timeout_ms":"fast"}`,
	`{"timeout_ms":1.5}`,
	`{"timeout_ms":1e3}`,
	`{"timeout_ms":00}`,
	`{"timeout_ms":-}`,
	`{"timeout_ms":99999999999999999999}`,
	`{"timeout_ms":12abc}`,
	`{"site":"bad\escape"}`,
	`{"site":"x",}`,
	`{"site" "x"}`,
	`{site:"x"}`,
	`{"num":01,"site":"x"}`,
	`{"site":"ctl` + "\x01" + `"}`,
}

// TestDecodeMaintenanceRequestMatchesEncodingJSON runs the table through
// both request kinds; corpus_dir is a field of one and an unknown key of the
// other, so `{"corpus_dir":7}` is an error for learn and fine for repair.
func TestDecodeMaintenanceRequestMatchesEncodingJSON(t *testing.T) {
	for _, body := range maintenanceBodies {
		checkMaintenanceDecode(t, []byte(body), true)
		checkMaintenanceDecode(t, []byte(body), false)
	}
	invalidUTF8 := []byte(`{"site":"a` + "\xff\xfe" + `b","pages":["x` + "\xc3" + `","ok"],"k` + "\xff" + `":1}`)
	checkMaintenanceDecode(t, invalidUTF8, true)
}

// TestDecodeNestingLimit: unknown values nest as deep as encoding/json
// allows, less the three levels a request's own structure can put around
// them — so up to maxSkipDepth both decoders accept wherever in the request
// the value hangs, and three levels on both refuse. A hostile body gets an
// error, not a stack as deep as the body is long.
func TestDecodeNestingLimit(t *testing.T) {
	nested := func(prefix string, depth int, suffix string) []byte {
		return []byte(prefix + strings.Repeat("[", depth) + strings.Repeat("]", depth) + suffix)
	}
	for _, depth := range []int{maxSkipDepth - 1, maxSkipDepth, maxSkipDepth + 3, 4 * maxSkipDepth} {
		checkMaintenanceDecode(t, nested(`{"x":`, depth, `}`), false)
		for _, body := range [][]byte{
			nested(`{"x":`, depth, `}`),
			nested(`{"page":{"x":`, depth, `}}`),
			nested(`{"pages":[{"x":`, depth, `}]}`),
			nested(`{"pages":[{}],"x":`, depth, `}`),
		} {
			_, refErr := decodeRef(body)
			_, fastErr := decodeFast(t, body)
			if (refErr == nil) != (fastErr == nil) || (fastErr == nil) != (depth <= maxSkipDepth) {
				t.Fatalf("extract body nested %d deep (%.20q…): encoding/json=%v cursor=%v", depth, body, refErr, fastErr)
			}
		}
	}
	unclosed := []byte(`{"x":` + strings.Repeat("[", 1<<20))
	var req LearnRequest
	if err := decodeMaintenanceRequest(unclosed, &req, false); err == nil {
		t.Fatal("a megabyte of '[' decoded")
	}
}

// TestMaintenanceHandlersAnswerAsBefore posts every body of the table and of
// the chaos corpus to /v1/repair and /v1/learn and to the handlers those
// routes had before — json.Decoder through readJSONLimited, then the same finish
// step — on a twin server. Status and body must agree: byte for byte for
// everything the server words itself, up to the decoder's own wording after
// "bad JSON: ", and up to the job id of a 202.
//
// The byte cap is the one deliberate difference. json.Decoder stopped
// reading at the end of the first value, so the old cap was on the bytes up
// to there; the cap is now on the body, as it is for /v1/extract. A body
// over the cap is a 413 whatever it holds — the same 413 as before whenever
// the old path answered one.
func TestMaintenanceHandlersAnswerAsBefore(t *testing.T) {
	newServer := func(maxBody int64) *Server {
		jm := jobs.New(jobs.Options{QueueDepth: 4096})
		t.Cleanup(func() { jm.Drain(context.Background()) })
		srv, err := NewServer(ServerConfig{
			Dispatcher:   NewDispatcher(store.New(), Options{}),
			Repairer:     &drift.Repairer{}, // jobs fail on it; submission is the test
			Jobs:         jm,
			MaxBodyBytes: maxBody,
		})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	before := func(s *Server, path string) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if path == "/v1/repair" {
				var req RepairRequest
				if readJSONLimited(w, r, &req, s.cfg.MaxBodyBytes) {
					s.finishRepair(w, req)
				}
				return
			}
			var req LearnRequest
			if readJSONLimited(w, r, &req, s.cfg.MaxBodyBytes) {
				s.finishLearn(w, req)
			}
		}
	}
	post := func(h http.Handler, path string, body []byte, chunked bool) (int, string) {
		var rd io.Reader = bytes.NewReader(body)
		if chunked {
			rd = struct{ io.Reader }{rd} // hides the length: ContentLength -1
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, rd))
		return rec.Code, rec.Body.String()
	}
	comparable := func(code int, body string) string {
		switch {
		case code == http.StatusAccepted:
			var acc JobAccepted
			if err := json.Unmarshal([]byte(body), &acc); err != nil {
				t.Fatalf("202 body %q: %v", body, err)
			}
			return string(acc.Kind) + " " + acc.Site + " " + string(acc.State)
		case strings.HasPrefix(body, `{"error":"bad JSON: `):
			return "bad JSON"
		}
		return body
	}

	bodies := chaos.Seeds()
	for _, b := range maintenanceBodies {
		bodies = append(bodies, []byte(b))
	}
	mutated := chaos.NewBodies(3)
	for i := 0; i < 64; i++ {
		bodies = append(bodies, mutated.Malformed())
	}
	for _, maxBody := range []int64{0, 48} { // the default cap, and one most bodies exceed
		now, old := newServer(maxBody), newServer(maxBody)
		for _, path := range []string{"/v1/repair", "/v1/learn"} {
			for _, body := range bodies {
				for _, chunked := range []bool{false, true} {
					gotCode, gotBody := post(now.Handler(), path, body, chunked)
					wantCode, wantBody := post(before(old, path), path, body, chunked)
					if maxBody > 0 && int64(len(body)) > maxBody && wantCode != http.StatusRequestEntityTooLarge {
						wantCode, wantBody = http.StatusRequestEntityTooLarge, `{"error":"body exceeds 48 bytes"}`+"\n"
					}
					if gotCode != wantCode || comparable(gotCode, gotBody) != comparable(wantCode, wantBody) {
						t.Fatalf("%s cap=%d chunked=%v %q:\n now    %d %s before %d %s",
							path, maxBody, chunked, body, gotCode, gotBody, wantCode, wantBody)
					}
				}
			}
		}
	}
}

// TestMaintenanceBodyLeavesTheScratch: a repair's or learn's pages are
// views of its body, which the job keeps, so the scratch the request read
// into goes back to its pool without the body — a pooled scratch must not
// keep a repair-sized buffer, and must never hand out one a job reads.
func TestMaintenanceBodyLeavesTheScratch(t *testing.T) {
	jm := jobs.New(jobs.Options{QueueDepth: 16})
	t.Cleanup(func() { jm.Drain(context.Background()) })
	srv, err := NewServer(ServerConfig{
		Dispatcher: NewDispatcher(store.New(), Options{}),
		Repairer:   &drift.Repairer{}, // jobs fail on it; the submission is the test
		Jobs:       jm,
	})
	if err != nil {
		t.Fatal(err)
	}
	page := "<p>" + strings.Repeat("x", 150_000) + "</p>"
	body, err := json.Marshal(LearnRequest{Site: "shop", Pages: []string{page, page}})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/v1/repair", "/v1/learn"} {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != http.StatusAccepted {
			t.Fatalf("%s: %d %s", path, rec.Code, rec.Body)
		}
		sc := acquireScratch()
		if cap(sc.body) >= len(body) {
			t.Fatalf("%s: a pooled scratch keeps a %d-byte buffer after a %d-byte body", path, cap(sc.body), len(body))
		}
		releaseScratch(sc)
	}
}
