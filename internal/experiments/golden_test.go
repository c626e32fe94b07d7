package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"autowrap/internal/dataset"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/paper_oracle.golden from this build's output")

// TestPaperOracleGolden is the paper oracle as a tier-1 test: the accuracy
// and call-count columns of Fig. 2(b, d, e, h, i), Table 1 and Fig. 3(a)
// at a small scale, byte for byte against a file generated at the commit
// before the learner's hot paths were rewritten (PR 17). A pure
// optimization of parse, feature build, enumeration or ranking must leave
// it untouched; a change that moves a number here changed the learner.
// Timing columns are left out and rows are ordered by site name, so the
// rendering does not depend on the host.
func TestPaperOracleGolden(t *testing.T) {
	var sb strings.Builder
	dealers, err := dataset.Dealers(dataset.DealersOptions{NumSites: 40, NumPages: 8})
	if err != nil {
		t.Fatal(err)
	}

	enumRes, err := EnumExperiment(dealers, KindXPath, EnumConfig{})
	if err != nil {
		t.Fatal(err)
	}
	Separator(&sb, "Figure 2(b): # of wrapper calls for XPATH")
	rows := append([]EnumRow(nil), enumRes.Rows...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].Site < rows[j].Site })
	fmt.Fprintf(&sb, "%d sites (%d skipped)\n", len(rows), enumRes.Skipped)
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-16s |L|=%d k=%d topdown=%d bottomup=%d naive=%.3g ran=%v\n",
			r.Site, r.Labels, r.WrapperSpace, r.TopDownCalls, r.BottomUpCalls, r.NaiveCalls, r.NaiveRan)
	}

	for _, fig := range []struct{ title, kind string }{
		{"Figure 2(d): accuracy of XPATH on DEALERS", KindXPath},
		{"Figure 2(e): accuracy of LR on DEALERS", KindLR},
	} {
		res, err := AccuracyExperiment(dealers, fig.kind, AccuracyConfig{})
		if err != nil {
			t.Fatal(err)
		}
		Separator(&sb, fig.title)
		ReportAccuracy(&sb, res)
	}
	for _, fig := range []struct{ title, kind string }{
		{"Figure 2(h): XPATH ranking variants on DEALERS", KindXPath},
		{"Figure 2(i): LR ranking variants on DEALERS", KindLR},
	} {
		res, err := VariantsExperiment(dealers, fig.kind, AccuracyConfig{})
		if err != nil {
			t.Fatal(err)
		}
		Separator(&sb, fig.title)
		ReportVariants(&sb, res)
	}

	t1ds, err := dataset.Dealers(dataset.DealersOptions{NumSites: 12, NumPages: 12})
	if err != nil {
		t.Fatal(err)
	}
	t1, err := Table1Experiment(t1ds, Table1Config{})
	if err != nil {
		t.Fatal(err)
	}
	Separator(&sb, "Table 1: NTW accuracy vs annotator precision/recall")
	ReportTable1(&sb, t1)

	mt, err := MultiTypeExperiment(dealers, MultiTypeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	Separator(&sb, "Figures 3(a)/3(b): multi-type extraction on DEALERS")
	ReportMultiType(&sb, mt)

	path := filepath.Join("testdata", "paper_oracle.golden")
	got := sb.String()
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("paper oracle moved (rerun with -update-golden only for a deliberate learner change)\n--- got\n%s\n--- want\n%s", got, want)
	}
}
