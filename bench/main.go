// Command bench is the repository's benchmark: it builds cmd/wrapserved,
// generates its inputs from a seed, learns the initial store in this
// process, boots real wrapserved processes in the shape each workload needs,
// drives them over two connections with pre-encoded requests, checks every
// response against an in-process reference, and reports end-to-end metrics
// (untraced) or per-layer metrics (traced). See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		root     = flag.String("root", "..", "root of the repository checkout (holds go.mod and cmd/wrapserved)")
		name     = flag.String("workload", "", "run one workload and print one JSON result line (the driver's contract); empty runs all four")
		seed     = flag.Int64("seed", 1, "seed every input is generated from")
		seconds  = flag.Int("seconds", 20, "length of the measured interval of each run")
		trace    = flag.Int("trace", 0, "with -workload: 1 runs the traced passes and reports per-layer metrics instead of end-to-end ones")
		repeat   = flag.Int("repeat", 1, "with no -workload: sets of untraced runs to record (2 gives the two-set agreement check)")
		breakBy  = flag.String("break", "", "self-test of the correctness gate: wrong-store serves rules learned on other sites and must end non-zero")
		compare  = flag.Bool("compare", false, "compare two result.json files given as arguments and print a verdict per workload and metric")
		baseline = flag.String("baseline", "", "print the README's baseline table from this result.json and exit")
		describe = flag.Bool("describe", false, "print BENCHMARK.json from the program's own tables and exit")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two result.json files")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout)
	}
	if *baseline != "" {
		return printBaseline(*baseline, os.Stdout)
	}
	if *describe {
		return printBenchmarkJSON(os.Stdout)
	}
	if *breakBy != "" && *breakBy != "wrong-store" {
		fmt.Fprintf(os.Stderr, "bench: -break %q: want wrong-store\n", *breakBy)
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1")
		return 2
	}

	abs, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	h := &harness{nproc: runtime.NumCPU(), breakBy: *breakBy}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigc
		h.shutdown()
		os.Exit(130)
	}()
	defer h.shutdown()

	buildStart := time.Now()
	if err := h.build(abs); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	buildS := time.Since(buildStart).Seconds()
	outDir := filepath.Join(abs, "bench", "runs", time.Now().UTC().Format("20060102T150405.000000000Z"))
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	rec := &record{Env: environment(abs), Seed: *seed, Seconds: *seconds, BuildS: buildS}

	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		res, err := h.runWorkload(w, *seed, *seconds, *trace == 1, outDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		rec.Runs = append(rec.Runs, res)
		if err := rec.write(outDir); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		res.print(os.Stderr)
		if *breakBy != "" {
			return breakVerdict(res)
		}
		// The driver's line: the last line of standard output.
		line, err := json.Marshal(struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{res.Correct, res.Attempted, res.Failed, res.Metrics})
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Println(string(line))
		return 0
	}
	return h.runAll(rec, *repeat, outDir)
}

// breakVerdict turns the self-test around: -break proves the gate by ending
// non-zero, so a broken deployment that passed ends 0.
func breakVerdict(res *result) int {
	share := float64(res.Failed) / float64(max(res.Attempted, 1))
	if res.Failed == 0 {
		fmt.Fprintf(os.Stderr, "bench: -break: the gate let a broken deployment pass (fail_share %.4f)\n", share)
		return 0
	}
	fmt.Fprintf(os.Stderr, "bench: -break: gate tripped as it must, fail_share %.4f (%d of %d): %s\n",
		share, res.Failed, res.Attempted, res.FirstErr)
	return 3
}

// runAll is the full recorded benchmark: `repeat` sets of untraced runs of
// every workload, then the traced runs, never mixed. The -break self-test
// needs only the untraced runs.
func (h *harness) runAll(rec *record, repeat int, outDir string) int {
	if la := rec.Env.LoadAvg1; la > float64(h.nproc) {
		fmt.Fprintf(os.Stderr, "bench: invalid: load average %.2f exceeds %d cores before the first run\n", la, h.nproc)
		return 1
	}
	ok := true
	one := func(w *workload, trace bool) bool {
		res, err := h.runWorkload(w, rec.Seed, rec.Seconds, trace, outDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return false
		}
		rec.Runs = append(rec.Runs, res)
		res.print(os.Stdout)
		if err := rec.write(outDir); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return false
		}
		return res.Correct && res.Valid
	}
	for set := 0; set < repeat; set++ {
		for i := range workloads {
			ok = one(&workloads[i], false) && ok
		}
	}
	if h.breakBy == "" {
		for i := range workloads {
			ok = one(&workloads[i], true) && ok
		}
	}
	if repeat > 1 {
		if !agreement(rec, os.Stdout) {
			ok = false
		}
	}
	fmt.Printf("recorded in %s\n", filepath.Join(outDir, "result.json"))
	if h.breakBy != "" {
		if ok {
			fmt.Fprintln(os.Stderr, "bench: -break: the gate let a broken deployment pass")
			return 0
		}
		return 3
	}
	if !ok {
		return 1
	}
	return 0
}

// build compiles cmd/wrapserved into .bench_build/bin under root and makes
// this run's scratch directory beside it.
func (h *harness) build(root string) error {
	if _, err := os.Stat(filepath.Join(root, "cmd", "wrapserved")); err != nil {
		return fmt.Errorf("%s is not the repository root: %w", root, err)
	}
	build := filepath.Join(root, ".bench_build")
	h.bin = filepath.Join(build, "bin", "wrapserved")
	if err := os.MkdirAll(filepath.Join(build, "tmp"), 0o755); err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", h.bin, "./cmd/wrapserved")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building wrapserved: %v\n%s", err, out)
	}
	tmp, err := os.MkdirTemp(filepath.Join(build, "tmp"), "run-")
	if err != nil {
		return err
	}
	h.tmp = tmp
	return nil
}
