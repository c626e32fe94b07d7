package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"autowrap/internal/lr"
	"autowrap/internal/serve"
	"autowrap/internal/shard"
	"autowrap/internal/store"
	"autowrap/internal/testutil/leakcheck"
)

var dealerNames = []string{"Acme Motors", "Bay Autos", "City Cars", "Delta Drive", "Elm Garage", "Ford Town",
	"Grand Wheels", "Hill Motors", "Ivy Autos", "Jade Cars", "Kings Drive", "Lake Garage"}

// testPage is a page the stored wrappers extract three names from and the
// xpath learner, given the dictionary of those names, can re-learn.
func testPage(i int) string {
	var sb strings.Builder
	sb.WriteString("<html><body><table>")
	for r := 0; r < 3; r++ {
		fmt.Fprintf(&sb, "<tr><td><u>%s</u></td><td>%d miles</td></tr>", dealerNames[(3*i+r)%len(dealerNames)], 10*i+r)
	}
	sb.WriteString("</table></body></html>")
	return sb.String()
}

// fixture is a two-site registry on disk, one site for each shard of a
// two-shard ring, and the dictionary that enables the maintenance plane.
type fixture struct {
	store, dict string
	sites       [2]string // sites[k] belongs to shard k of ring
	ring        *shard.Ring
}

func newFixture(t *testing.T) fixture {
	t.Helper()
	dir := t.TempDir()
	f := fixture{
		store: filepath.Join(dir, "wrappers.json"),
		dict:  filepath.Join(dir, "names.txt"),
		ring:  shard.NewRing(2, shard.DefaultVNodes),
	}
	for i := 0; f.sites[0] == "" || f.sites[1] == ""; i++ {
		name := fmt.Sprintf("dealer-%d", i)
		f.sites[f.ring.Owner(name)] = name
	}
	st := store.New()
	for _, site := range f.sites {
		if _, err := st.Put(site, &lr.Compiled{Left: "<u>", Right: "</u>"}, store.Meta{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Save(f.store); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(f.dict, []byte(strings.Join(dealerNames, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return f
}

// bootArgs parses a command line the way main does and boots it.
func bootArgs(t *testing.T, args ...string) (plane, func(), error) {
	t.Helper()
	fs := flag.NewFlagSet("wrapserved", flag.ContinueOnError)
	o := defineFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return boot(*o, log.New(io.Discard, "", 0))
}

// mustBoot boots a command line that must come up; the plane is drained
// and its stores closed when the test ends, unless the test already did.
func mustBoot(t *testing.T, args ...string) plane {
	t.Helper()
	p, closeStores, err := bootArgs(t, args...)
	if err != nil {
		t.Fatalf("boot %v: %v", args, err)
	}
	t.Cleanup(func() {
		drain(t, p, 10*time.Second)
		closeStores()
	})
	return p
}

// drain is run's shutdown sequence less the listener.
func drain(t *testing.T, p plane, budget time.Duration) error {
	t.Helper()
	p.SetDraining(true)
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	return p.Drain(ctx)
}

// call serves one request in-process and returns status and body.
func call(p plane, method, path, body string, header ...string) (int, []byte) {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	rec := httptest.NewRecorder()
	p.Handler().ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

func extractBody(site string) string {
	b, _ := json.Marshal(serve.ExtractRequest{Site: site, Page: &serve.PageInput{HTML: testPage(0)}})
	return string(b)
}

func repairBody(site string) string {
	req := serve.RepairRequest{Site: site}
	for i := 0; i < 6; i++ {
		req.Pages = append(req.Pages, testPage(i))
	}
	b, _ := json.Marshal(req)
	return string(b)
}

// wantExtract checks that site serves its three records through p.
func wantExtract(t *testing.T, p plane, site string) {
	t.Helper()
	code, body := call(p, "POST", "/v1/extract", extractBody(site))
	var resp serve.ExtractResponse
	if err := json.Unmarshal(body, &resp); err != nil || code != 200 || len(resp.Results) != 1 || len(resp.Results[0].Records) != 3 {
		t.Errorf("extract %s: %d %s", site, code, body)
	}
}

// wantRepairID submits a repair for site and checks the id of the job it
// was accepted as.
func wantRepairID(t *testing.T, p plane, site, id string) {
	t.Helper()
	code, body := call(p, "POST", "/v1/repair", repairBody(site))
	var acc serve.JobAccepted
	if err := json.Unmarshal(body, &acc); err != nil || code != http.StatusAccepted || acc.JobID != id {
		t.Errorf("repair %s: %d %s, want 202 and job %s", site, code, body, id)
	}
}

func decodeInto(t *testing.T, body []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("%v in %s", err, body)
	}
}

// backends are the -store-backend values every role is booted over.
var backends = []string{"file", "log"}

func TestBootStandalone(t *testing.T) {
	for _, be := range backends {
		t.Run(be, func(t *testing.T) {
			leakcheck.Check(t)
			f := newFixture(t)
			p := mustBoot(t, "-store", f.store, "-store-backend", be, "-dict", f.dict)
			code, body := call(p, "GET", "/healthz", "")
			var h serve.HealthzResponse
			decodeInto(t, body, &h)
			if code != 200 || h.Status != "ok" || h.Sites != 2 || strings.Contains(string(body), `"ring"`) || strings.Contains(string(body), `"shards"`) {
				t.Errorf("/healthz: %d %s, want a standalone HealthzResponse over 2 sites", code, body)
			}
			for _, site := range f.sites {
				wantExtract(t, p, site)
			}
			wantRepairID(t, p, f.sites[0], "job-000001")
			if code, body := call(p, "POST", "/v1/drain", ""); code != 404 {
				t.Errorf("/v1/drain on a standalone server: %d %s, want 404", code, body)
			}
		})
	}
}

func TestBootFleet(t *testing.T) {
	for _, be := range backends {
		t.Run(be, func(t *testing.T) {
			leakcheck.Check(t)
			f := newFixture(t)
			p := mustBoot(t, "-store", f.store, "-store-backend", be, "-dict", f.dict, "-shards", "2")
			code, body := call(p, "GET", "/healthz", "")
			var h serve.FleetHealthzResponse
			decodeInto(t, body, &h)
			if code != 200 || h.Shards != 2 || h.Sites != 2 || h.Ring != nil {
				t.Errorf("/healthz: %d %s, want an in-process FleetHealthzResponse of 2 shards, 2 sites", code, body)
			}
			for k, site := range f.sites {
				wantExtract(t, p, site)
				wantRepairID(t, p, site, fmt.Sprintf("s%d-job-000001", k))
			}
			// An in-process node does not enforce the ring: the router owns it.
			if code, body := call(p, "POST", "/v1/extract", extractBody(f.sites[0]), serve.RingHashHeader, "bogus"); code != 200 {
				t.Errorf("extract through the router with a stray ring header: %d %s", code, body)
			}
		})
	}
}

func TestBootShard(t *testing.T) {
	for _, be := range backends {
		t.Run(be, func(t *testing.T) {
			leakcheck.Check(t)
			f := newFixture(t)
			p := mustBoot(t, "-store", f.store, "-store-backend", be, "-dict", f.dict, "-role", "shard", "-shards", "2", "-shard-index", "1")
			code, body := call(p, "GET", "/healthz", "")
			var h serve.HealthzResponse
			decodeInto(t, body, &h)
			if code != 200 || h.Sites != 1 || h.Ring == nil || h.Ring.Shard != 1 || h.Ring.Shards != 2 || h.Ring.Hash != f.ring.Fingerprint() {
				t.Errorf("/healthz: %d %s, want partition 1 of ring %s with 1 site", code, body, f.ring.Fingerprint())
			}
			wantExtract(t, p, f.sites[1])
			wantRepairID(t, p, f.sites[1], "s1-job-000001")
			if code, body := call(p, "POST", "/v1/extract", extractBody(f.sites[0])); code != http.StatusMisdirectedRequest {
				t.Errorf("extract of a site shard 0 owns: %d %s, want 421", code, body)
			}
			if code, body := call(p, "POST", "/v1/extract", extractBody(f.sites[1]), serve.RingHashHeader, "bogus"); code != http.StatusServiceUnavailable {
				t.Errorf("extract pinned to another ring: %d %s, want 503", code, body)
			}
			code, body = call(p, "POST", "/v1/drain", "")
			var d serve.DrainResponse
			decodeInto(t, body, &d)
			if code != 200 || !d.JobsQuiesced {
				t.Errorf("/v1/drain: %d %s", code, body)
			}
		})
	}
}

func TestBootFront(t *testing.T) {
	for _, be := range backends {
		t.Run(be, func(t *testing.T) {
			leakcheck.Check(t)
			f := newFixture(t)
			var peers []string
			for k := 0; k < 2; k++ {
				// Each shard process has its own store directory.
				own := newFixture(t)
				sp := mustBoot(t, "-store", own.store, "-store-backend", be, "-dict", own.dict,
					"-role", "shard", "-shards", "2", "-shard-index", fmt.Sprint(k))
				hs := httptest.NewServer(sp.Handler())
				t.Cleanup(hs.Close)
				peers = append(peers, strings.TrimPrefix(hs.URL, "http://"))
			}
			p := mustBoot(t, "-role", "front", "-peers", strings.Join(peers, ","))
			code, body := call(p, "GET", "/healthz", "")
			var h serve.FleetHealthzResponse
			decodeInto(t, body, &h)
			if code != 200 || h.Shards != 2 || h.Sites != 2 || len(h.Peers) != 2 || !h.Peers[0].OK || !h.Peers[1].OK {
				t.Errorf("/healthz: %d %s, want 2 live peers with a site each", code, body)
			}
			for k, site := range f.sites {
				wantExtract(t, p, site)
				wantRepairID(t, p, site, fmt.Sprintf("s%d-job-000001", k))
			}
			if err := drain(t, p, 10*time.Second); err != nil {
				t.Errorf("front drain: %v", err)
			}

			_, _, err := bootArgs(t, "-role", "front", "-peers", strings.Join(peers, ","), "-vnodes", fmt.Sprint(shard.DefaultVNodes+1))
			if err == nil || !strings.Contains(err.Error(), "ring agreement mismatch") || !strings.Contains(err.Error(), "peer 0 ("+peers[0]+")") {
				t.Errorf("a front with -vnodes off by one booted with error %v, want a ring mismatch naming peer 0 (%s)", err, peers[0])
			}
		})
	}
}

// TestBootErrors pins the words of every refusal to boot.
func TestBootErrors(t *testing.T) {
	leakcheck.Check(t)
	f := newFixture(t)
	missing := filepath.Join(t.TempDir(), "nope.json")
	type refusal struct {
		args []string
		want string
	}
	cases := []refusal{
		{[]string{"-role", "bogus"}, `-role "bogus": want shard, front or empty`},
		{[]string{"-role", "front"}, `-role front needs -peers host:port,...`},
		{[]string{"-role", "front", "-peers", "a:1,b:2,", "-shards", "3"}, `-shards 3 disagrees with 2 peer(s); the front sizes the ring from -peers`},
		{[]string{"-role", "shard", "-shards", "2", "-shard-index", "2"}, `-shard-index 2 out of range [0, 2)`},
		{[]string{"-role", "shard", "-shards", "2", "-shard-index", "-1"}, `-shard-index -1 out of range [0, 2)`},
		{[]string{"-role", "shard", "-shards", "0"}, `-role shard needs -shards >= 1 (the ring size)`},
		{[]string{"-store", missing}, "store " + missing + ": stat " + missing + ": no such file or directory"},
		{[]string{"-store", f.store, "-store-backend", "nope"}, `-store-backend "nope": want file or log`},
		{[]string{"-store", f.store, "-dict", missing}, "open " + missing + ": no such file or directory"},
		{[]string{"-store", f.store, "-dict", f.dict, "-kind", "nope"}, `experiments: unknown inductor kind "nope"`},
	}
	// The auto-repair preconditions hold for every role that owns a node.
	for _, role := range [][]string{nil, {"-shards", "2"}, {"-role", "shard", "-shards", "2"}} {
		for _, c := range []refusal{
			{[]string{"-auto-repair"}, `-auto-repair needs -dict (no annotator to re-learn with)`},
			{[]string{"-auto-repair", "-dict", f.dict, "-window", "0"}, `-auto-repair needs drift monitoring (-window > 0)`},
			{[]string{"-auto-repair", "-dict", f.dict, "-recent-pages", "0"}, `-auto-repair needs -recent-pages > 0 (no cached pages to re-learn from)`},
		} {
			cases = append(cases, refusal{append(append([]string{"-store", f.store}, role...), c.args...), c.want})
		}
	}
	for _, c := range cases {
		p, _, err := bootArgs(t, c.args...)
		if err == nil || err.Error() != c.want {
			t.Errorf("boot %v: error %v, want %s", c.args, err, c.want)
		}
		if p != nil {
			t.Errorf("boot %v: a plane came back beside the error", c.args)
		}
	}
}

// jobStates lists the state of every job the plane retains.
func jobStates(t *testing.T, p plane) (states []string) {
	t.Helper()
	_, body := call(p, "GET", "/v1/jobs", "")
	var list []serve.JobSnapshot
	decodeInto(t, body, &list)
	for _, j := range list {
		states = append(states, string(j.State))
	}
	return states
}

// TestDrainFinishesAcceptedJobs: a job that was answered 202 is not dropped
// by the shutdown that follows, standalone included — the queued one runs
// too — unless -drain-timeout runs out first, and then the drain still
// returns with nothing left running.
func TestDrainFinishesAcceptedJobs(t *testing.T) {
	for name, role := range map[string][]string{
		"standalone": nil,
		"fleet":      {"-shards", "2"},
		"shard":      {"-role", "shard", "-shards", "2", "-shard-index", "0"},
	} {
		t.Run(name, func(t *testing.T) {
			leakcheck.Check(t)
			f := newFixture(t)
			args := append([]string{"-store", f.store, "-dict", f.dict, "-learn-workers", "1"}, role...)

			p := mustBoot(t, args...)
			call(p, "POST", "/v1/repair", repairBody(f.sites[0]))
			call(p, "POST", "/v1/repair", repairBody(f.sites[0]))
			if err := drain(t, p, 30*time.Second); err != nil {
				t.Errorf("drain with a generous budget: %v", err)
			}
			if got := jobStates(t, p); len(got) != 2 || got[0] != "done" || got[1] != "done" {
				t.Errorf("after a drain with a generous budget the jobs are %v, want both done", got)
			}

			p = mustBoot(t, args...)
			call(p, "POST", "/v1/repair", repairBody(f.sites[0]))
			call(p, "POST", "/v1/repair", repairBody(f.sites[0]))
			drain(t, p, time.Millisecond) // the error says the budget ran out; the states below are the check
			for _, state := range jobStates(t, p) {
				if state == "queued" || state == "running" {
					t.Errorf("after a drain with a 1 ms budget a job is still %s", state)
				}
			}
		})
	}
}

// TestAutoRepairNodeBoots: with -auto-repair every node starts a
// maintainer, and draining stops them all (leakcheck would see a scanner).
func TestAutoRepairNodeBoots(t *testing.T) {
	leakcheck.Check(t)
	f := newFixture(t)
	mustBoot(t, "-store", f.store, "-dict", f.dict, "-auto-repair", "-shards", "2")
}
