package wrapper

import "autowrap/internal/dom"

// Portable is the compiled, corpus-independent form of a learned wrapper:
// the artifact the learn/serve split revolves around. A Wrapper is bound to
// the corpus it was induced from (Extract returns ordinals of that corpus);
// a Portable carries only the rule itself, so it can be serialized, stored,
// shipped to another process, and applied to pages that did not exist at
// learning time — the paper's "learn once per site, extract from millions
// of pages" economics.
//
// Implementations exist per wrapper language (xpinduct.Compiled evaluates a
// parsed xpath expression, lr.Compiled a delimiter matcher over the page's
// serialized character stream); internal/store owns the stable wire form
// and the Wrapper -> Portable compilation dispatch.
//
// A rule has two evaluations, held equal by a differential fuzz. ApplyPage
// reads a tree, for callers that hold one or share one parse among several
// readers; ApplyHTML reads the page itself, for the one rule that reads one
// page once — serving — and builds no tree.
type Portable interface {
	// Lang names the wrapper language the rule is written in ("xpath",
	// "lr"); codecs key the wire format on it.
	Lang() string
	// Rule renders the compiled rule in its native syntax, matching
	// Wrapper.Rule of the wrapper it was compiled from.
	Rule() string
	// ApplyPage evaluates the rule against an arbitrary parsed page and
	// returns the matching extractable text nodes (corpus.IsExtractableText)
	// in document order. It must be safe for concurrent use: the extraction
	// runtime shares one Portable across its worker pool.
	ApplyPage(root *dom.Node) []*dom.Node
	// ApplyHTML evaluates the rule against a page's source and returns the
	// records' trimmed contents: by contract exactly strings.TrimSpace(n.Data)
	// for each n of ApplyPage(htmlparse.Parse(html)), in that order. Safe for
	// concurrent use, as ApplyPage is.
	ApplyHTML(html string) []string
}
