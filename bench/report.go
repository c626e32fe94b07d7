package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// env describes the machine and the code a record was made on.
type env struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	Commit     string  `json:"commit"`
	LoadAvg1   float64 `json:"load_average_1m"`
}

// record is result.json: every run of one invocation.
type record struct {
	Env     env       `json:"env"`
	Seed    int64     `json:"seed"`
	Seconds int       `json:"seconds"`
	BuildS  float64   `json:"build_s"`
	Runs    []*result `json:"runs"`
}

func environment(root string) env {
	e := env{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			e.LoadAvg1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	// A driver's checkout is not a git repository; the commit is then unknown.
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	return e
}

func (r *record) write(dir string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "result.json"), append(b, '\n'), 0o644)
}

func readRecord(path string) (*record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r record
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// metricNames lists a result's metrics in table order.
func (r *result) metricNames() []string {
	var names []string
	for _, n := range append(append([]string(nil), endToEndOrder...), perLayerOrder...) {
		if _, ok := r.Metrics[n]; ok {
			names = append(names, n)
		}
	}
	return names
}

// print writes every metric of a run by name, with its unit.
func (r *result) print(w io.Writer) {
	kind := "end to end"
	if r.Trace {
		kind = "per layer (traced)"
	}
	fmt.Fprintf(w, "== %s, %s, seed %d, %d s: attempted %d failed %d correct %v valid %v\n",
		r.Workload, kind, r.Seed, r.Seconds, r.Attempted, r.Failed, r.Correct, r.Valid)
	if r.FirstErr != "" {
		fmt.Fprintf(w, "   first failure: %s\n", r.FirstErr)
	}
	for _, n := range r.metricNames() {
		m := r.Metrics[n]
		fmt.Fprintf(w, "   %-28s %14.4f %s\n", n, m.Value, m.Unit)
	}
	var info []string
	for k := range r.Info {
		info = append(info, k)
	}
	sort.Strings(info)
	for _, k := range info {
		fmt.Fprintf(w, "   (%s = %.4g)\n", k, r.Info[k])
	}
}

// printBaseline renders the README's baseline table from a result.json: one
// row per metric, one column per workload, medians over the untraced runs
// and the traced run's value for per-layer metrics.
func printBaseline(path string, w io.Writer) int {
	rec, err := readRecord(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(w, "Recorded on %d cores (%s), %s, commit %.12s, seed %d, %d s per run.\n\n",
		rec.Env.NProc, rec.Env.CPUModel, rec.Env.GoVersion, rec.Env.Commit, rec.Seed, rec.Seconds)
	for _, traced := range []bool{false, true} {
		vals := map[string]map[string][]float64{} // metric -> workload -> values
		for _, r := range rec.Runs {
			if r.Trace != traced {
				continue
			}
			for n, m := range r.Metrics {
				if vals[n] == nil {
					vals[n] = map[string][]float64{}
				}
				vals[n][r.Workload] = append(vals[n][r.Workload], m.Value)
			}
		}
		if len(vals) == 0 {
			continue
		}
		fmt.Fprint(w, "| metric | unit |")
		for _, wl := range workloads {
			fmt.Fprintf(w, " %s |", wl.name)
		}
		fmt.Fprint(w, "\n|---|---|")
		for range workloads {
			fmt.Fprint(w, "---:|")
		}
		fmt.Fprintln(w)
		order := endToEndOrder
		if traced {
			order = perLayerOrder
		}
		for _, n := range order {
			if vals[n] == nil {
				continue
			}
			fmt.Fprintf(w, "| `%s` | %s |", n, metricDefs[n].unit)
			for _, wl := range workloads {
				fmt.Fprintf(w, " %s |", tableNumber(median(vals[n][wl.name])))
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
	}
	return 0
}

// tableNumber prints four significant digits, and whole numbers from a
// thousand up.
func tableNumber(v float64) string {
	if v >= 1000 || v <= -1000 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.4g", v)
}

// runSeconds is the run length BENCHMARK.json asks the driver for.
const runSeconds = 20

// printBenchmarkJSON renders BENCHMARK.json from the workload and metric
// tables, so the file the driver reads cannot drift from the program.
func printBenchmarkJSON(w io.Writer) int {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type jm struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []jm     `json:"end_to_end"`
		PerLayer   []jm     `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, x := range workloads {
		doc.Workloads = append(doc.Workloads, wl{x.name, x.why})
	}
	row := func(n string) jm {
		d := metricDefs[n]
		m := jm{Name: n, Unit: d.unit, Better: "lower"}
		if d.higher {
			m.Better = "higher"
		}
		if d.endToEnd {
			m.Bound = &d.bound
		}
		return m
	}
	for _, n := range endToEndOrder {
		doc.EndToEnd = append(doc.EndToEnd, row(n))
	}
	for _, n := range perLayerOrder {
		doc.PerLayer = append(doc.PerLayer, row(n))
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", b)
	return 0
}
