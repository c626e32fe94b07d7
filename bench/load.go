package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"autowrap/internal/serve"
)

const requestTimeout = 20 * time.Second

// clock is the run's time base: nanoseconds since the harness started the
// pass, on the monotonic clock.
type clock struct{ base time.Time }

func (c clock) now() int64 { return int64(time.Since(c.base)) }

// interval is the measured part of a pass, cut into windows.
type interval struct {
	startNS, windowNS int64
	windows           int
}

func (iv interval) endNS() int64 { return iv.startNS + iv.windowNS*int64(iv.windows) }
func (iv interval) windowOf(ns int64) int {
	return windowOf(ns-iv.startNS, iv.windowNS, iv.windows)
}

// recorder is one client's ledger. Each client owns one, so the hot loop
// takes no lock; they are merged when the pass ends.
type recorder struct {
	iv        interval
	latMS     [][]float64 // per window: request latency
	pages     []int       // per window: pages answered correctly
	attempted int
	failed    int
	// Records served, in the gold, and in both: record_f1.
	served, gold, hit int
	lateMS            []float64    // open loop: the generator's own lateness
	heals             []healRecord // maintenance client: completed heals
	spans             *spanLog     // nil unless the pass is traced
	firstErr          error
}

func newRecorder(iv interval, spans *spanLog) *recorder {
	return &recorder{iv: iv, latMS: make([][]float64, iv.windows), pages: make([]int, iv.windows), spans: spans}
}

func (r *recorder) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// extractOnce sends one extract request and books the outcome under the
// window its completion falls in; outside the measured interval nothing is
// booked. dueNS is where latency is counted from: the send time on a closed
// loop, the scheduled time on an open one.
func (r *recorder) extractOnce(c **conn, ck clock, req *request, dueNS int64, reqID int) (doneNS int64, err error) {
	sendNS := ck.now()
	status, body, err := (*c).roundTripTimed(req.wire, requestTimeout, ck, r.spans, reqID)
	doneNS = ck.now()
	ok := err == nil && status == 200 && req.check(body)
	if r.spans != nil {
		verifiedNS := ck.now()
		r.spans.add(reqID, "client.verify", "client.request", doneNS, verifiedNS)
		r.spans.add(reqID, "client.request", "", sendNS, verifiedNS)
	}
	if w := r.iv.windowOf(doneNS); w >= 0 {
		r.attempted++
		if ok {
			r.latMS[w] = append(r.latMS[w], float64(openLoopLatency(dueNS, doneNS))/1e6)
			r.pages[w] += len(req.pages)
			r.served += req.served
			r.gold += req.gold
			r.hit += req.hit
		} else if err != nil {
			r.fail(fmt.Errorf("extract %s: %w", req.site, err))
		} else {
			r.fail(fmt.Errorf("extract %s: status %d, body %.200q", req.site, status, body))
		}
	}
	if err != nil {
		// The connection is in an unknown state; start a fresh one.
		(*c).close()
		nc, derr := dial((*c).addr)
		if derr != nil {
			return doneNS, derr
		}
		*c = nc
	}
	return doneNS, nil
}

// roundTripTimed is roundTrip with the send and the wait recorded as spans
// when the pass is traced.
func (c *conn) roundTripTimed(wire []byte, timeout time.Duration, ck clock, spans *spanLog, reqID int) (int, []byte, error) {
	if spans == nil {
		return c.roundTrip(wire, timeout)
	}
	t0 := ck.now()
	if err := c.send(wire, timeout); err != nil {
		return 0, nil, err
	}
	t1 := ck.now()
	status, body, err := c.recv()
	spans.add(reqID, "client.send", "client.request", t0, t1)
	spans.add(reqID, "client.wait", "client.request", t1, ck.now())
	return status, body, err
}

// closedLoop sends the next request as soon as the previous one is answered
// and checked, until the measured interval ends.
func closedLoop(c **conn, ck clock, reqs []*request, order []int, rec *recorder, idBase int) error {
	for i := 0; ck.now() < rec.iv.endNS(); i++ {
		req := reqs[order[i%len(order)]]
		if _, err := rec.extractOnce(c, ck, req, ck.now(), idBase+i); err != nil {
			return err
		}
	}
	return nil
}

// openLoop sends on a schedule of exponential gaps whatever the server does.
// Latency counts from the scheduled time; the generator's own lateness is
// kept apart so a run in which the harness could not keep its schedule can
// be told from one in which the server could not.
func openLoop(c **conn, ck clock, reqs []*request, order []int, rec *recorder, rate float64, rng *rand.Rand, idBase int) error {
	due := ck.now()
	connFree := due
	for i := 0; due < rec.iv.endNS(); i++ {
		if d := due - ck.now(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		sent := ck.now()
		if rec.iv.windowOf(sent) >= 0 {
			rec.lateMS = append(rec.lateMS, float64(generatorLateness(due, connFree, sent))/1e6)
		}
		var err error
		if connFree, err = rec.extractOnce(c, ck, reqs[order[i%len(order)]], due, idBase+i); err != nil {
			return err
		}
		due += int64(rng.ExpFloat64() / rate * 1e9)
	}
	return nil
}

// healer is the maintenance client: it heals the churn sites in turn, each
// from the template it serves to its other one.
type healer struct {
	sites  []*churn
	repair [][2][]byte     // per site and template: the encoded /v1/repair request
	verify [][2][]*request // per site and template: extracts of the kept-back pages
	healed []int           // per site: heals done so far
	next   int
}

func newHealer(sites []*churn) (*healer, error) {
	h := &healer{sites: sites, healed: make([]int, len(sites))}
	for _, s := range sites {
		var rep [2][]byte
		var ver [2][]*request
		for k := 0; k < 2; k++ {
			body, err := json.Marshal(serve.RepairRequest{Site: s.name, Pages: s.tmpl[k].repair})
			if err != nil {
				return nil, err
			}
			rep[k] = encodeRequest("POST", "/v1/repair", body)
			for i := range s.tmpl[k].verify {
				r, err := newExtractRequest(s.name, 0, s.tmpl[k].verify[i:i+1])
				if err != nil {
					return nil, err
				}
				ver[k] = append(ver[k], r)
			}
		}
		h.repair = append(h.repair, rep)
		h.verify = append(h.verify, ver)
	}
	return h, nil
}

// jobView is what the harness reads of GET /v1/jobs/{id}.
type jobView struct {
	State  string                `json:"state"`
	Error  string                `json:"error"`
	Result *serve.RepairResponse `json:"result"`
}

const pollEvery = 2 * time.Millisecond

// healOnce runs one heal: submit the repair, poll the job until it ends,
// then extract a kept-back page of the new template and check that the
// promoted version answers with the reference. The heal time runs from the
// submit to that verified answer.
func (h *healer) healOnce(c *conn, ck clock, rec *recorder) error {
	i := h.next % len(h.sites)
	h.next++
	k := h.healed[i] % 2
	wantVersion := h.healed[i] + 2 // v1 was learned in set-up
	start := ck.now()

	// A heal that goes wrong counts as its two operations failed, when it
	// ends inside the measured interval.
	fail := func(err error) {
		if rec.iv.windowOf(ck.now()) >= 0 {
			rec.attempted += 2
			rec.failed += 2
			if rec.firstErr == nil {
				rec.firstErr = err
			}
		}
	}
	status, body, err := c.roundTrip(h.repair[i][k], requestTimeout)
	if err != nil {
		return fmt.Errorf("repair %s: %w", h.sites[i].name, err)
	}
	var acc serve.JobAccepted
	if status != 202 || json.Unmarshal(body, &acc) != nil || acc.JobID == "" {
		fail(fmt.Errorf("repair %s: status %d, body %.200q", h.sites[i].name, status, body))
		return nil
	}
	poll := encodeRequest("GET", "/v1/jobs/"+acc.JobID, nil)
	var job jobView
	for {
		time.Sleep(pollEvery)
		status, body, err = c.roundTrip(poll, requestTimeout)
		if err != nil {
			return fmt.Errorf("job %s: %w", acc.JobID, err)
		}
		job = jobView{}
		if status != 200 || json.Unmarshal(body, &job) != nil {
			fail(fmt.Errorf("job %s: status %d, body %.200q", acc.JobID, status, body))
			return nil
		}
		if job.State != "queued" && job.State != "running" {
			break
		}
		if ck.now()-start > int64(requestTimeout) {
			fail(fmt.Errorf("job %s still %s after %v", acc.JobID, job.State, requestTimeout))
			return nil
		}
	}
	// The site has moved on whether or not this heal counts as correct;
	// a job that did not promote leaves it where it was.
	if job.State != "done" || job.Result == nil || !job.Result.Promoted || job.Result.ServingVersion != wantVersion {
		fail(fmt.Errorf("job %s: state %s error %q result %+v, want v%d promoted", acc.JobID, job.State, job.Error, job.Result, wantVersion))
		return nil
	}
	h.healed[i]++
	ver := h.verify[i][k]
	req := ver[(h.healed[i]/2)%len(ver)]
	status, body, err = c.roundTrip(req.wire, requestTimeout)
	if err != nil {
		return fmt.Errorf("verify %s: %w", req.site, err)
	}
	done := ck.now()
	if rec.iv.windowOf(done) < 0 {
		return nil
	}
	rec.attempted += 2
	if status != 200 || !req.checkDecoded(body, wantVersion) {
		rec.fail(fmt.Errorf("verify %s v%d: status %d, body %.200q", req.site, wantVersion, status, body))
		return nil
	}
	rec.heals = append(rec.heals, healRecord{site: i, ms: float64(done-start) / 1e6})
	return nil
}

// healRecord is one completed, verified heal.
type healRecord struct {
	site int
	ms   float64
}

// healTime is the benchmark's heal time: for each churn site its quickest
// heal, then the median over the sites. Sites differ in how long they take
// to learn, so every site counts once; the quickest of a site's heals is the
// one the rest of the machine disturbed least (see bestWindowQuantile).
func healTime(heals []healRecord) float64 {
	best := map[int]float64{}
	for _, h := range heals {
		if b, ok := best[h.site]; !ok || h.ms < b {
			best[h.site] = h.ms
		}
	}
	var per []float64
	for _, b := range best {
		per = append(per, b)
	}
	return median(per)
}

func healTimes(heals []healRecord) []float64 {
	out := make([]float64, len(heals))
	for i, h := range heals {
		out[i] = h.ms
	}
	return out
}

// healLoop heals until the measured interval ends.
func (h *healer) healLoop(c *conn, ck clock, rec *recorder) error {
	for ck.now() < rec.iv.endNS() {
		if err := h.healOnce(c, ck, rec); err != nil {
			return err
		}
	}
	return nil
}
