package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
)

// span is one timed call at a layer boundary. Spans of one request share
// Req; Parent names the span that caused this one ("" at the top).
type span struct {
	Span    int    `json:"span"`
	Parent  string `json:"parent"`
	Req     int    `json:"req"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the benchmark ends. One goroutine
// owns each log.
type spanLog struct{ spans []span }

func (l *spanLog) add(req int, name, parent string, startNS, endNS int64) {
	l.spans = append(l.spans, span{Span: len(l.spans), Parent: parent, Req: req, Name: name, StartNS: startNS, EndNS: endNS})
}

// writeSpans writes the ladder's log whole, then of each client log the
// spans of its first maxReqs requests, as JSON lines: the client logs of an
// end-to-end pass hold every request, far more than anyone reads.
func writeSpans(path string, ladder *spanLog, maxReqs int, clients ...*spanLog) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close() // a second Close after the checked one below is harmless
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range ladder.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	for _, l := range clients {
		for _, s := range l.spans {
			if s.Req-l.spans[0].Req >= maxReqs {
				break
			}
			if err := enc.Encode(s); err != nil {
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// selfTime is a span's duration minus the part of it its children cover.
// Children may overlap each other (parallel parts) and may stick out of the
// parent; only the covered part of the parent's own interval is subtracted.
func selfTime(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.StartNS, parent.StartNS), min(c.EndNS, parent.EndNS)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, end := int64(0), parent.StartNS
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		covered += v.b - max(v.a, end)
		end = v.b
	}
	return parent.EndNS - parent.StartNS - covered
}

// selfTimes computes, for every span named name in the log, its self time
// against the spans of the same request that name it as parent.
func (l *spanLog) selfTimes(name string) []float64 {
	children := map[int][]span{}
	for _, s := range l.spans {
		if s.Parent == name {
			children[s.Req] = append(children[s.Req], s)
		}
	}
	var out []float64
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, float64(selfTime(s, children[s.Req])))
		}
	}
	return out
}

// durations lists the durations, in nanoseconds, of every span named name.
func (l *spanLog) durations(name string) []float64 {
	var out []float64
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNS-s.StartNS))
		}
	}
	return out
}
