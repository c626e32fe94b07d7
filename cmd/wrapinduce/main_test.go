package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"autowrap/internal/annotate"
	"autowrap/internal/core"
	"autowrap/internal/corpus"
	"autowrap/internal/dataset"
	"autowrap/internal/engine"
	"autowrap/internal/lr"
	"autowrap/internal/rank"
	"autowrap/internal/store"
)

const trainPages = 5

// fixture is one generated dealer site on disk: the first trainPages pages
// to learn from, the rest held out, and the site's gold names as a clean
// dictionary file.
type fixture struct {
	dir, dict string
	train     []string
	heldOut   []string
	// gold is the "page<TAB>name" line of every true record on the
	// held-out pages, in document order.
	gold []string
}

func newFixture(t *testing.T) fixture {
	t.Helper()
	ds, err := dataset.Dealers(dataset.DealersOptions{NumSites: 1, NumPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	site := ds.Sites[0]
	f := fixture{dir: t.TempDir()}
	for i, p := range site.Corpus.Pages {
		path := filepath.Join(f.dir, fmt.Sprintf("page-%03d.html", i))
		if err := os.WriteFile(path, []byte(p.HTML), 0o644); err != nil {
			t.Fatal(err)
		}
		if i < trainPages {
			f.train = append(f.train, path)
		} else {
			f.heldOut = append(f.heldOut, path)
		}
	}
	var names strings.Builder
	site.Gold["name"].ForEach(func(ord int) {
		name, page := site.Corpus.TextContent(ord), site.Corpus.PageOf(ord)
		fmt.Fprintln(&names, name)
		if page >= trainPages {
			f.gold = append(f.gold, f.heldOut[page-trainPages]+"\t"+name)
		}
	})
	f.dict = filepath.Join(f.dir, "names.txt")
	if err := os.WriteFile(f.dict, []byte("# gold names\n\n"+names.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return f
}

// direct learns the training pages without the CLI: the same annotator,
// inductor and generic models, straight through core.Learn.
func (f fixture) direct(t *testing.T, kind string) (*core.Result, *corpus.Corpus, int) {
	t.Helper()
	var htmls []string
	for _, p := range f.train {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		htmls = append(htmls, string(b))
	}
	c := corpus.ParseHTML(htmls)
	dict, err := annotate.ReadDictionary(f.dict)
	if err != nil {
		t.Fatal(err)
	}
	ind, err := engine.NewInductor(kind, c)
	if err != nil {
		t.Fatal(err)
	}
	labels := dict.Annotate(c)
	res, err := core.Learn(ind, labels, core.Config{Scorer: rank.GenericScorer()})
	if err != nil || res.Best == nil {
		t.Fatalf("direct learn: %v (best %v)", err, res)
	}
	return res, c, labels.Count()
}

// cli runs the command in-process and returns exit code, stdout, stderr.
func cli(args ...string) (int, string, string) {
	var out, diag bytes.Buffer
	code := run(args, &out, &diag)
	return code, out.String(), diag.String()
}

func mustRun(t *testing.T, args ...string) string {
	t.Helper()
	code, out, diag := cli(args...)
	if code != 0 {
		t.Fatalf("wrapinduce %v: exit %d\n%s", args, code, diag)
	}
	return out
}

var rankedLine = regexp.MustCompile(`(?m)^  \d+\. score=`)

func TestLearnPrintsTheRankedSpace(t *testing.T) {
	f := newFixture(t)
	for _, kind := range []string{"xpath", "lr"} {
		res, _, _ := f.direct(t, kind)
		args := append([]string{"-dict", f.dict, "-inductor", kind, "-top", "3"}, f.train...)
		out := mustRun(t, args...)
		if want := "learned wrapper: " + res.Best.Wrapper.Rule() + "\n"; !strings.Contains(out, want) {
			t.Errorf("%s: output does not name the rule %q:\n%s", kind, want, out)
		}
		if n := len(rankedLine.FindAllString(out, -1)); n != 3 {
			t.Errorf("%s: -top 3 listed %d candidates:\n%s", kind, n, out)
		}
	}
	// A quoted glob is expanded by the command itself.
	if out := mustRun(t, "-dict", f.dict, filepath.Join(f.dir, "page-00[0-4].html")); !strings.Contains(out, fmt.Sprintf("parsed %d pages", trainPages)) {
		t.Errorf("glob argument: %s", out)
	}
	out := mustRun(t, append([]string{"-dict", f.dict, "-naive"}, f.train...)...)
	if !strings.Contains(out, "NAIVE wrapper: ") || strings.Contains(out, "learned wrapper") {
		t.Errorf("-naive: %s", out)
	}
}

// TestStoreLifecycle walks one store file through the offline verbs: two
// learns (v1, then v2 serving), apply on pages the learner never saw,
// rollback to v1, and a second rollback that has nowhere to go.
func TestStoreLifecycle(t *testing.T) {
	f := newFixture(t)
	path := filepath.Join(t.TempDir(), "w.json")
	learn := append([]string{"-dict", f.dict, "-store", path, "-site", "shop"}, f.train...)

	if out := mustRun(t, learn...); !strings.Contains(out, "stored shop v1 (xpath): ") {
		t.Fatalf("first learn: %s", out)
	}
	// A store-learned site carries its learn-time profile, and otherwise
	// holds exactly what learning and compiling directly give.
	res, c, labels := f.direct(t, "xpath")
	compiled, err := store.Compile(res.Best.Wrapper)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := st.Active("shop")
	if !ok || e.Version != 1 {
		t.Fatalf("active after first learn: %+v (%v)", e, ok)
	}
	if e.Profile == nil || e.Profile.Pages != len(c.Pages) || e.Profile.MeanRecords <= 0 {
		t.Errorf("profile = %+v, want %d pages and records on them", e.Profile, len(c.Pages))
	}
	if e.Rule != compiled.Rule() || e.Lang != compiled.Lang() || e.Score != res.Best.Score.Total || e.Labels != labels {
		t.Errorf("stored %q (%s) score %v labels %d, want %q (%s) score %v labels %d",
			e.Rule, e.Lang, e.Score, e.Labels, compiled.Rule(), compiled.Lang(), res.Best.Score.Total, labels)
	}

	// A second learn appends v2 and serves it; v1 stays for rollback.
	if out := mustRun(t, append([]string{"-inductor", "lr"}, learn...)...); !strings.Contains(out, "stored shop v2 (lr): ") {
		t.Fatalf("second learn: %s", out)
	}
	apply := append([]string{"-apply", "-store", path, "-site", "shop", "-workers", "2"}, f.heldOut...)
	serving := func(version int) {
		t.Helper()
		code, out, diag := cli(apply...)
		if code != 0 || !strings.Contains(diag, fmt.Sprintf("serving shop v%d ", version)) {
			t.Fatalf("apply: exit %d, want v%d serving\n%s", code, version, diag)
		}
		// One line per record, and exactly the true records of pages the
		// learner never saw.
		if got := strings.Split(strings.TrimSuffix(out, "\n"), "\n"); !slices.Equal(got, f.gold) {
			t.Errorf("v%d applied to held-out pages:\n%s\nwant:\n%s", version, out, strings.Join(f.gold, "\n"))
		}
	}
	serving(2)

	if out := mustRun(t, "-rollback", "-store", path, "-site", "shop"); !strings.Contains(out, "rolled shop back to v1 (xpath): ") {
		t.Fatalf("rollback: %s", out)
	}
	serving(1)
	if code, _, diag := cli("-rollback", "-store", path, "-site", "shop"); code != 1 || !strings.Contains(diag, "shop") {
		t.Errorf("second rollback: exit %d (%s), want 1: nothing earlier to return to", code, diag)
	}
}

// TestApplyRefusesUnpromotedCandidate: a site whose only versions are
// staged candidates must not serve.
func TestApplyRefusesUnpromotedCandidate(t *testing.T) {
	f := newFixture(t)
	st := store.New()
	if _, err := st.PutCandidate("staged", &lr.Compiled{Left: "<b>", Right: "</b>"}, store.Meta{}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "w.json")
	if err := st.Save(path); err != nil {
		t.Fatal(err)
	}
	code, out, diag := cli("-apply", "-store", path, "-site", "staged", f.heldOut[0])
	if code != 1 || out != "" || !strings.Contains(diag, "unpromoted") {
		t.Errorf("exit %d, stdout %q, stderr %q; want 1 naming the unpromoted candidate", code, out, diag)
	}
	if code, _, diag := cli("-apply", "-store", path, "-site", "nowhere", f.heldOut[0]); code != 1 || !strings.Contains(diag, "not in store") {
		t.Errorf("unknown site: exit %d, stderr %q", code, diag)
	}
}

func TestExitCodes(t *testing.T) {
	f := newFixture(t)
	empty := filepath.Join(f.dir, "empty.txt")
	if err := os.WriteFile(empty, []byte("# nothing\n\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	page := f.train[0]
	for _, c := range []struct {
		name string
		args []string
		code int
		diag string
	}{
		{"no pages", []string{"-dict", f.dict}, 2, "usage: wrapinduce"},
		{"no dict", []string{page}, 2, "usage: wrapinduce"},
		{"store without site", []string{"-dict", f.dict, "-store", "w.json", page}, 2, "usage: wrapinduce"},
		{"apply without store", []string{"-apply", "-site", "s", page}, 2, "usage: wrapinduce"},
		{"apply without pages", []string{"-apply", "-store", "w.json", "-site", "s"}, 2, "usage: wrapinduce"},
		{"rollback without store", []string{"-rollback", "-site", "s"}, 2, "usage: wrapinduce"},
		{"unknown flag", []string{"-demo"}, 2, "flag provided but not defined"},
		{"help", []string{"-h"}, 0, "usage: wrapinduce"},
		{"unreadable page", []string{"-dict", f.dict, filepath.Join(f.dir, "nope.html")}, 1, "nope.html"},
		{"unreadable dictionary", []string{"-dict", filepath.Join(f.dir, "nope.txt"), page}, 1, "nope.txt"},
		{"empty dictionary", []string{"-dict", empty, page}, 1, "is empty"},
		{"unknown inductor", []string{"-dict", f.dict, "-inductor", "hlrt", page}, 1, `unknown inductor kind "hlrt"`},
		{"missing store", []string{"-apply", "-store", filepath.Join(f.dir, "nope.json"), "-site", "s", page}, 1, "nope.json"},
	} {
		code, out, diag := cli(c.args...)
		if code != c.code || !strings.Contains(diag, c.diag) {
			t.Errorf("%s: exit %d, stderr %q; want %d mentioning %q", c.name, code, diag, c.code, c.diag)
		}
		if c.code == 2 && out != "" {
			t.Errorf("%s: a usage error wrote to stdout: %q", c.name, out)
		}
	}
}
