package autowrap_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// archRule is one boundary the code keeps: what it forbids, where it
// looks, how it checks, the change that drew it (its entry in CHANGES.md)
// and why. where is a space-separated list of repository-relative files,
// directories and "dir/..." subtrees ("./..." is everything), and each
// must match a file, so a rename cannot make the rule vacuous; except takes
// the same forms back out. A directory or subtree holds its Go files, its
// _test.go files only when tests is set. check returns one "file:line:
// what" line per violation among the files in scope.
type archRule struct {
	forbids       string
	where, except string
	tests         bool
	check         func(files []srcFile) []string
	change, why   string
}

var archRules = []archRule{
	{"the daemon linking the facade or experiment code", "cmd/wrapserved", "", false, linkSet("autowrap/cmd/wrapserved", `^autowrap(/internal/(experiments|dataset|gen|eval|multitype|single))?$`),
		"one learn recipe, one offline CLI, a daemon that links only what serves", "the daemon links only what serves: no facade, no experiment, dataset or generator code"},
	{"a second serving path", "cmd/... internal/...", "", false, nodes(netHTTPServer),
		"the daemon serves HTTP/1.1 from a connection loop of its own", "every serving role and soak run serve.HTTPServer; only the -debug-addr pprof listener runs net/http's server, and tests keep it as their reference"},
	{"a second route table", "internal/serve/...", "internal/serve/router.go", false, nodes(routeCase),
		"a standalone server is a fleet of one", "every role is a serve.ShardRouter (a standalone server is a fleet of one), and router.go holds its one route table"},
	{"a second /healthz or /metrics shape", "./...", "", true, names(`Fleet(Healthz|Metrics)Response`),
		"a standalone server is a fleet of one", "every role answers /healthz and /metrics in one shape, the router's"},
	{"a second per-shard metrics type", "./...", "", true, names(`^ShardReport$`),
		"the router talks to a partition in one way per job", "the router's seam to a partition returns MetricsResponse"},
	{"goroutines in fleet.go outside gather's one", "internal/serve/fleet.go", "", false, nodes(fanOut),
		"the router talks to a partition in one way per job", "gather is the router's one fan-out"},
	{"an adapter around the node, a second auto-repair builder or maintenance entry point", "./...", "", true, names(`^(localShard|NewMaintainer|hookTrips|finishLearn|finishRepair)$`),
		"a node is its own partition", "*Server is its own ShardClient, NewNode alone builds auto-repair, and Server.maintain takes learn and repair"},
	{"a third load harness", "cmd/... scripts/smoke-serve.sh", "", true, noLoadgen,
		"two load harnesses, not three", "bench/ measures, soak checks invariants, and smoke's load stages are judged by the daemon's own /metrics"},
	{"a tree kept in the corpus", "internal/corpus", "", false, nodes(treeField),
		"a heal builds no tree", "a corpus is indexed from the parser's events into flat arrays; trees are the test-only reference"},
	{"a second way into the corpus indexer", "internal/corpus/...", "", false, names(`^(muted|func (\w+\.)?(New|walk))$`),
		"one way into the learner", "ParseHTML alone builds a corpus; a tree is serialized and parsed like any page"},
	{"a dom.Node method that nothing outside tests calls", "internal/dom", "", false, names(`^func Node\.(SetAttr|Text|Preorder|Depth|Root|Clone|PathString)$`),
		"one way into the learner", "dom.Node keeps only what the parser, serializer and references use"},
	{"the facade linking the serving plane", ".", "", false, linkSet("autowrap", `^autowrap/internal/(serve|shard|jobs|audit|store/filestore|store/logstore)$`),
		"architecture rules run under go test", "the facade is the learner library, as the daemon links no facade: serving code is called directly"},
	{"production code reading a tree", "./...", "bench/... internal/htmlparse internal/testutil/...", false, nodes(treeRead),
		"architecture rules run under go test", "the corpus, serving and repair validation read the parser's token stream; a tree is a test reference, and the facade's ParsePage"},
}

func TestArchitecture(t *testing.T) {
	all := repoFiles(t)
	for _, r := range archRules {
		t.Run(r.forbids, func(t *testing.T) {
			var files []srcFile
			for _, p := range strings.Fields(r.where) {
				n := len(files)
				for _, f := range all {
					if match(f, p, r.tests) && !slices.ContainsFunc(strings.Fields(r.except), func(e string) bool { return match(f, e, true) }) {
						files = append(files, f)
					}
				}
				if len(files) == n {
					t.Fatalf("%q matches no file: the rule would check nothing", p)
				}
			}
			for _, v := range r.check(files) {
				t.Errorf("%s: %s is forbidden since %q: %s", v, r.forbids, r.change, r.why)
			}
		})
	}
}

// srcFile is one file of the repository, parsed when it is Go source.
type srcFile struct {
	path string    // slash-separated, relative to the repository root
	ast  *ast.File // nil for a file that is not Go source
	fset *token.FileSet
}

// repoFiles lists every file of the repository, skipping what the go tool
// skips (dot, underscore and testdata directories), and parses Go source.
func repoFiles(t *testing.T) []srcFile {
	var files []srcFile
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && p != "." && (strings.ContainsAny(d.Name()[:1], "._") || d.Name() == "testdata"):
			return filepath.SkipDir
		case d.IsDir():
			return nil
		}
		f := srcFile{path: filepath.ToSlash(p), fset: fset}
		if strings.HasSuffix(p, ".go") {
			f.ast, err = parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		}
		files = append(files, f)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// match reports whether the where-pattern p takes in f.
func match(f srcFile, p string, tests bool) bool {
	if f.path == p {
		return true
	}
	if f.ast == nil || !tests && strings.HasSuffix(f.path, "_test.go") {
		return false
	}
	tree, isTree := strings.CutSuffix(p, "/...")
	return isTree && (tree == "." || strings.HasPrefix(f.path, tree+"/")) || path.Dir(f.path) == p
}

// nodes reports what(f, decl, n) for every node n of every file where it
// is not "", decl being the top-level declaration that holds n. what is
// also called with a nil n, as ast.Inspect leaves each node.
func nodes(what func(f srcFile, decl ast.Decl, n ast.Node) string) func([]srcFile) []string {
	return func(files []srcFile) []string {
		var out []string
		for _, f := range files {
			for _, d := range f.ast.Decls {
				ast.Inspect(d, func(n ast.Node) bool {
					if v := what(f, d, n); v != "" {
						out = append(out, fmt.Sprintf("%s:%d: %s", f.path, f.fset.Position(n.Pos()).Line, v))
					}
					return true
				})
			}
		}
		return out
	}
}

// names reports every identifier whose name matches pattern (declared or
// used: a type, a field, a method, a label, never a comment or a string),
// and every function declared as "func Name" or "func Recv.Name" that does.
func names(pattern string) func([]srcFile) []string {
	re := regexp.MustCompile(pattern)
	return nodes(func(_ srcFile, _ ast.Decl, n ast.Node) string {
		name := ""
		switch n := n.(type) {
		case *ast.Ident:
			name = n.Name
		case *ast.FuncDecl:
			name = "func " + n.Name.Name
			if n.Recv != nil {
				name = "func " + strings.TrimPrefix(types.ExprString(n.Recv.List[0].Type), "*") + "." + n.Name.Name
			}
		}
		if name != "" && re.MatchString(name) {
			return name
		}
		return ""
	})
}

// linkSet walks the autowrap imports of package pkg as go/build resolves
// them, the set go list -deps prints, and reports every package among them
// that matches forbidden, with a package that imports it.
func linkSet(pkg, forbidden string) func([]srcFile) []string {
	re := regexp.MustCompile(forbidden)
	return func([]srcFile) []string {
		var out []string
		by := map[string]string{pkg: ""}
		for todo := []string{pkg}; len(todo) > 0; todo = todo[1:] {
			if re.MatchString(todo[0]) {
				out = append(out, fmt.Sprintf("%s links %s, imported by %s", pkg, todo[0], by[todo[0]]))
			}
			bp, err := build.ImportDir("."+strings.TrimPrefix(todo[0], "autowrap"), 0)
			if err != nil {
				out = append(out, err.Error())
			}
			for _, imp := range bp.Imports {
				if _, seen := by[imp]; !seen && (imp == "autowrap" || strings.HasPrefix(imp, "autowrap/")) {
					by[imp] = todo[0]
					todo = append(todo, imp)
				}
			}
		}
		return out
	}
}

// netHTTPServer reports net/http's server and its serve functions, named
// http as every file here imports it, apart from the pprof listener.
func netHTTPServer(_ srcFile, _ ast.Decl, n ast.Node) string {
	switch n := n.(type) {
	case *ast.CallExpr:
		if slices.Contains([]string{"http.ListenAndServe", "http.ListenAndServeTLS", "http.Serve", "http.ServeTLS"}, types.ExprString(n.Fun)) &&
			types.ExprString(n) != "http.ListenAndServe(o.debugAddr, nil)" {
			return types.ExprString(n)
		}
	case *ast.SelectorExpr:
		if types.ExprString(n) == "http.Server" {
			return "http.Server"
		}
	}
	return ""
}

func routeCase(_ srcFile, _ ast.Decl, n ast.Node) string {
	c, ok := n.(*ast.CaseClause)
	for i := 0; ok && i < len(c.List); i++ {
		if lit, isLit := c.List[i].(*ast.BasicLit); isLit && lit.Value == `"/v1/extract"` {
			return `case "/v1/extract"`
		}
	}
	return ""
}

// fanOut reports a go statement outside gather, and a gather that does
// not start exactly one goroutine.
func fanOut(_ srcFile, decl ast.Decl, n ast.Node) string {
	fd, _ := decl.(*ast.FuncDecl)
	gather := fd != nil && fd.Name.Name == "gather"
	if _, isGo := n.(*ast.GoStmt); isGo && !gather {
		return "a go statement outside gather"
	}
	if gather && n == fd {
		gos := 0
		ast.Inspect(fd, func(n ast.Node) bool {
			if _, isGo := n.(*ast.GoStmt); isGo {
				gos++
			}
			return true
		})
		if gos != 1 {
			return fmt.Sprintf("gather has %d go statements, want 1", gos)
		}
	}
	return ""
}

// noLoadgen reports cmd/loadgen, and a script in scope that names it.
func noLoadgen(files []srcFile) []string {
	var out []string
	for _, f := range files {
		if strings.HasPrefix(f.path, "cmd/loadgen/") {
			out = append(out, f.path+": cmd/loadgen")
		} else if f.ast == nil {
			if src, err := os.ReadFile(f.path); err != nil {
				out = append(out, err.Error())
			} else if regexp.MustCompile(`\bloadgen\b`).Match(src) {
				out = append(out, f.path+": names loadgen")
			}
		}
	}
	return out
}

// treeField reports a struct with a field whose type holds a *dom.Node.
func treeField(_ srcFile, _ ast.Decl, n ast.Node) string {
	st, ok := n.(*ast.StructType)
	for i := 0; ok && i < len(st.Fields.List); i++ {
		if strings.Contains(types.ExprString(st.Fields.List[i].Type), "*dom.Node") {
			return "a struct with a *dom.Node field"
		}
	}
	return ""
}

// treeRead reports the tree parser (htmlparse.Parse, AcquireTree, and Tree
// for (*Tree).Parse) and any ApplyPage, rule evaluation over a tree.
func treeRead(f srcFile, decl ast.Decl, n ast.Node) string {
	sel, ok := n.(*ast.SelectorExpr)
	if fd, isFunc := decl.(*ast.FuncDecl); !ok || f.path == "autowrap.go" && isFunc && fd.Name.Name == "ParsePage" {
		return ""
	}
	if x := types.ExprString(sel); sel.Sel.Name == "ApplyPage" || slices.Contains([]string{"htmlparse.Parse", "htmlparse.AcquireTree", "htmlparse.Tree"}, x) {
		return x
	}
	return ""
}
