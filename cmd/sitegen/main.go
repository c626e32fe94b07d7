// Command sitegen materializes the synthetic evaluation datasets as HTML
// files on disk, so the generated "websites" can be inspected in a browser,
// fed to other tools, or replayed as serving traffic. Gold labels are
// written alongside as .gold.txt files (one value per line, per type).
//
// Usage:
//
//	sitegen -dataset dealers -sites 5 -out ./out
//	sitegen -dataset disc -sites 8 -out ./out
//	sitegen -dataset products -out ./out
//	sitegen -dataset dealers -sites 5 -drift 2 -out ./drifted
//
// -sites N sizes every dataset; 0 selects the paper's scale (330 dealers,
// 15 disc, 10 products). When the flag is not given, dealers defaults to 5
// sites and disc/products to their paper scale — the historical behavior.
// The output layout is one directory per site,
// out/DATASET/site-name/page-NNN.html — what wrapinduce learns a site from
// and what scripts/smoke-serve.sh replays as mixed-site traffic against a
// running wrapserved. Pair a -drift 0 run with a -drift N run (dealers
// only) to also exercise the drift-repair path: same record data, mutated
// template.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"autowrap/internal/dataset"
	"autowrap/internal/gen"
)

func main() {
	var (
		kind  = flag.String("dataset", "dealers", "dealers | disc | products")
		sites = flag.Int("sites", 5, "number of sites to write (0 = the dataset's paper scale; when not set, dealers writes 5 and disc/products their paper scale)")
		out   = flag.String("out", "sitegen-out", "output directory")
		seed  = flag.Int64("seed", 0, "seed override (0 = dataset default)")
		drift = flag.Int("drift", 0, "template mutations per site (dealers only): same record data, mutated template — pair a -drift 0 run with a -drift N run to simulate sites changing under a learned wrapper")
	)
	flag.Parse()
	// An unset -sites keeps each dataset's historical default: 5 for
	// dealers (paper scale is a heavy 330), paper scale for disc/products.
	// An explicit -sites sizes any dataset, with 0 meaning paper scale.
	if *kind != "dealers" && !flagWasSet("sites") {
		*sites = 0
	}
	if err := run(*kind, *sites, *out, *seed, *drift); err != nil {
		fmt.Fprintln(os.Stderr, "sitegen:", err)
		os.Exit(1)
	}
}

func flagWasSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

func run(kind string, sites int, out string, seed int64, drift int) error {
	var ds *dataset.Dataset
	var err error
	if drift != 0 && kind != "dealers" {
		return fmt.Errorf("-drift is only supported for -dataset dealers")
	}
	switch kind {
	case "dealers":
		ds, err = dataset.Dealers(dataset.DealersOptions{NumSites: sites, Seed: seed, Drift: drift})
	case "disc":
		ds, err = dataset.Disc(dataset.DiscOptions{NumSites: sites, Seed: seed})
	case "products":
		ds, err = dataset.Products(dataset.ProductsOptions{NumSites: sites, Seed: seed})
	default:
		return fmt.Errorf("unknown dataset %q", kind)
	}
	if err != nil {
		return err
	}
	for _, site := range ds.Sites {
		dir := filepath.Join(out, ds.Name, site.Name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		for pi, page := range site.Corpus.Pages {
			path := filepath.Join(dir, fmt.Sprintf("page-%03d.html", pi))
			if err := os.WriteFile(path, []byte(page.HTML), 0o644); err != nil {
				return err
			}
		}
		if err := writeGold(dir, site); err != nil {
			return err
		}
	}
	fmt.Printf("wrote %d sites of %s under %s\n", len(ds.Sites), ds.Name, out)
	fmt.Printf("dictionary: %d entries (annotator %q)\n", ds.Dict.Size(), ds.Annotator.Name())
	return nil
}

func writeGold(dir string, site *gen.Site) error {
	var types []string
	for typ := range site.Gold {
		types = append(types, typ)
	}
	sort.Strings(types)
	for _, typ := range types {
		var sb strings.Builder
		site.Gold[typ].ForEach(func(ord int) {
			fmt.Fprintf(&sb, "page %03d\t%s\n",
				site.Corpus.PageOf(ord), site.Corpus.TextContent(ord))
		})
		path := filepath.Join(dir, typ+".gold.txt")
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			return err
		}
	}
	return nil
}
