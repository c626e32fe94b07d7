// Command wrapinduce is the offline wrapper CLI — the end-user workflow of
// the paper without a daemon: point it at the pages of one script-generated
// website and a cheap noisy dictionary, get back the extraction rule and the
// extracted values; keep the rule in a versioned store; apply a stored rule
// to pages the learner never saw.
//
// Usage:
//
//	wrapinduce -dict names.txt page1.html page2.html ...
//	wrapinduce -dict names.txt -inductor lr 'out/*.html'
//	wrapinduce -dict names.txt -store w.json -site shop 'out/*.html'
//	wrapinduce -apply -store w.json -site shop fresh1.html fresh2.html ...
//	wrapinduce -rollback -store w.json -site shop
//
// The dictionary file holds one entry per line. With -naive the baseline
// (no noise tolerance) runs instead, for comparison. With -store and -site
// the learned wrapper is compiled and appended as the site's new serving
// version (the store file is created if needed), together with its
// learn-time profile — the registry cmd/wrapserved boots from. -apply
// reloads the store and runs the site's promoted version over the given
// pages, printing one tab-separated "page<TAB>record" line per record;
// -rollback reverts the site to the version promoted before.
//
// Exit codes: 0 success, 1 runtime error, 2 usage error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"autowrap"
	"autowrap/internal/annotate"
	"autowrap/internal/engine"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wrapinduce", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dictPath = fs.String("dict", "", "dictionary file (one entry per line); required to learn")
		inductor = fs.String("inductor", "xpath", "wrapper language: xpath | lr")
		naive    = fs.Bool("naive", false, "run the NAIVE baseline instead of NTW")
		topK     = fs.Int("top", 3, "show the top-K ranked wrappers")
		storeP   = fs.String("store", "", "wrapper store path: learn appends the winner to it, -apply and -rollback read it")
		site     = fs.String("site", "", "site name in the store (required with -store)")
		apply    = fs.Bool("apply", false, "extract from the pages with the site's stored serving version instead of learning")
		rollback = fs.Bool("rollback", false, "revert -site to its previously promoted version")
		workers  = fs.Int("workers", 0, "extraction workers for -apply (0 = GOMAXPROCS)")
	)
	fs.Usage = func() {
		fmt.Fprintln(stderr, `usage: wrapinduce -dict entries.txt [-store w.json -site NAME] page1.html [page2.html ...]
       wrapinduce -apply -store w.json -site NAME page1.html ...
       wrapinduce -rollback -store w.json -site NAME`)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	learn := !*apply && !*rollback
	switch {
	case *storeP != "" && *site == "",
		!learn && *storeP == "",
		learn && *dictPath == "",
		!*rollback && fs.NArg() == 0:
		fs.Usage()
		return 2
	}
	var err error
	switch {
	case *rollback:
		err = runRollback(stdout, *storeP, *site)
	case *apply:
		err = runApply(stdout, stderr, *storeP, *site, *workers, fs.Args())
	default:
		err = runLearn(stdout, *dictPath, *inductor, *naive, *topK, *storeP, *site, fs.Args())
	}
	if err != nil {
		fmt.Fprintln(stderr, "wrapinduce:", err)
		return 1
	}
	return 0
}

// runLearn learns one site through the one recipe (dictionary annotator,
// inductor by kind, generic models) on the batch engine, prints the ranked
// wrapper space, and — with a store — appends the winner as the site's new
// serving version.
func runLearn(out io.Writer, dictPath, kind string, naive bool, topK int, storePath, site string, pageArgs []string) error {
	dict, err := annotate.ReadDictionary(dictPath)
	if err != nil {
		return err
	}
	recipe, err := engine.Recipe(dict, kind)
	if err != nil {
		return err
	}
	paths, err := expand(pageArgs)
	if err != nil {
		return err
	}
	c, err := autowrap.ParseFiles(paths)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "parsed %d pages, %d extractable text nodes\n", len(c.Pages), c.NumTexts())

	spec, err := recipe(site, c)
	if err != nil {
		return err
	}
	spec.Labels = dict.Annotate(c)
	fmt.Fprintf(out, "dictionary (%d entries) labeled %d nodes\n\n", dict.Size(), spec.Labels.Count())
	if spec.Labels.Count() == 0 {
		return fmt.Errorf("no dictionary entry matched any page text; cannot learn")
	}

	if naive {
		ind, err := spec.NewInductor(c)
		if err != nil {
			return err
		}
		w, err := autowrap.NaiveLearn(ind, spec.Labels)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "NAIVE wrapper: %s\n", w.Rule())
		printExtraction(out, c, w)
		return nil
	}

	batch, err := autowrap.LearnBatch(context.Background(), []autowrap.BatchSite{spec}, autowrap.BatchOptions{})
	if err != nil {
		return err
	}
	if err := batch.Sites[0].Err; err != nil {
		return err
	}
	res := batch.Sites[0].Result
	if res == nil || res.Best == nil {
		return fmt.Errorf("no wrapper learned")
	}
	fmt.Fprintf(out, "learned wrapper: %s\n", res.Best.Wrapper.Rule())
	fmt.Fprintf(out, "score: logP(L|X)=%.2f logP(X)=%.2f (enumerated %d candidates with %d inductor calls)\n",
		res.Best.Score.LogL, res.Best.Score.LogX, len(res.Candidates), res.EnumCalls)
	printExtraction(out, c, res.Best.Wrapper)

	if topK > 1 && len(res.Candidates) > 1 {
		fmt.Fprintln(out, "\nranked wrapper space:")
		for i, cand := range res.Candidates[:min(topK, len(res.Candidates))] {
			fmt.Fprintf(out, "  %d. score=%9.2f extracts=%-4d %s\n",
				i+1, cand.Score.Total, cand.Wrapper.Extract().Count(), cand.Wrapper.Rule())
		}
	}
	if storePath == "" {
		return nil
	}

	// Append to an existing store rather than clobbering it: each learn of
	// a site is one more version, and the other sites stay.
	st, err := autowrap.LoadWrapperStore(storePath)
	if errors.Is(err, os.ErrNotExist) {
		st, err = autowrap.NewWrapperStore(), nil
	}
	if err != nil {
		return err
	}
	if _, err := autowrap.StoreBatch(st, batch); err != nil {
		return err
	}
	if err := st.Save(storePath); err != nil {
		return err
	}
	entry, _ := st.Active(site)
	fmt.Fprintf(out, "\nstored %s v%d (%s): %s\n", entry.Site, entry.Version, entry.Lang, entry.Rule)
	return nil
}

// runApply serves the given pages with the site's stored wrapper, in a
// process that never saw the learner.
func runApply(out, diag io.Writer, storePath, site string, workers int, pageFiles []string) error {
	st, err := autowrap.LoadWrapperStore(storePath)
	if err != nil {
		return err
	}
	// Serve the promoted (validated) version, not the newest: a staged
	// repair candidate that failed validation must never serve.
	entry, ok := st.Active(site)
	if !ok {
		if _, staged := st.Latest(site); staged {
			return fmt.Errorf("site %q has only unpromoted candidate versions; promote one first", site)
		}
		return fmt.Errorf("site %q not in store (have: %s)", site, strings.Join(st.Sites(), ", "))
	}
	compiled, err := entry.Compile()
	if err != nil {
		return err
	}
	fmt.Fprintf(diag, "serving %s v%d (%s): %s\n", entry.Site, entry.Version, entry.Lang, compiled.Rule())
	pages := make([]autowrap.ExtractPage, len(pageFiles))
	for i, path := range pageFiles {
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		pages[i] = autowrap.ExtractPage{ID: path, HTML: string(b)}
	}
	rt := autowrap.NewExtractor(compiled, autowrap.ExtractOptions{Workers: workers})
	batch, err := rt.Run(context.Background(), pages)
	if err != nil {
		return err
	}
	for _, res := range batch.Results {
		if res.Err != nil {
			fmt.Fprintf(diag, "%s: %v\n", res.ID, res.Err)
			continue
		}
		for _, txt := range res.Texts {
			fmt.Fprintf(out, "%s\t%s\n", res.ID, txt)
		}
	}
	fmt.Fprintln(diag, batch.Stats.String())
	return nil
}

// runRollback reverts the site to its previously promoted version.
func runRollback(out io.Writer, storePath, site string) error {
	st, err := autowrap.LoadWrapperStore(storePath)
	if err != nil {
		return err
	}
	entry, err := st.Rollback(site)
	if err != nil {
		return err
	}
	if err := st.Save(storePath); err != nil {
		return err
	}
	fmt.Fprintf(out, "rolled %s back to v%d (%s): %s\n", entry.Site, entry.Version, entry.Lang, entry.Rule)
	return nil
}

func printExtraction(out io.Writer, c *autowrap.Corpus, w autowrap.Wrapper) {
	fmt.Fprintln(out, "\nextraction:")
	for p, values := range autowrap.Extracted(c, w) {
		fmt.Fprintf(out, "  page %d: %s\n", p, strings.Join(values, " | "))
	}
}

func expand(args []string) ([]string, error) {
	var out []string
	for _, a := range args {
		if strings.ContainsAny(a, "*?[") {
			matches, err := filepath.Glob(a)
			if err != nil {
				return nil, err
			}
			out = append(out, matches...)
			continue
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no input pages")
	}
	return out, nil
}
