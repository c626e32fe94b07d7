package gen

import (
	"fmt"
	"sort"
	"strings"

	"autowrap/internal/bitset"
	"autowrap/internal/corpus"
	"autowrap/internal/dom"
)

// Site is one generated website: the parsed corpus plus gold labels per
// type. The corpus is produced by serializing the generated DOM to HTML and
// re-parsing it through the real parser, so extraction code never touches
// generator internals.
type Site struct {
	Name   string
	Corpus *corpus.Corpus
	// Gold maps a type name ("name", "zip", "track", "album", "product")
	// to the set of gold text-node ordinals.
	Gold map[string]*bitset.Set
	// GoldRecords pairs name and zip ordinals per record (multi-type
	// evaluation); empty for datasets without a second type.
	GoldRecords [][2]int
	// PageValues maps a type to the per-page single value (e.g. the album
	// title of each DISC page) for single-entity evaluation.
	PageValues map[string][]string
	// LRHostile marks sites built so that no perfect LR wrapper exists.
	LRHostile bool
	// Layout identifies the rendering script family (diagnostics).
	Layout string
}

// goldSpec records where a gold value was rendered: relocation after
// re-parsing matches on exact trimmed content plus the enclosing tag, which
// disambiguates e.g. a title-track album heading from the track link of the
// same name.
type goldSpec struct {
	value     string
	parentTag string
}

// pageBuild accumulates one page's DOM and gold positions.
type pageBuild struct {
	doc  *dom.Node
	gold map[string][]goldSpec
}

func newPage() *pageBuild {
	return &pageBuild{doc: dom.NewDocument(), gold: make(map[string][]goldSpec)}
}

func (p *pageBuild) markGold(typ, value, parentTag string) {
	p.gold[typ] = append(p.gold[typ], goldSpec{value: strings.TrimSpace(value), parentTag: parentTag})
}

// finishSite serializes, re-parses and relocates gold nodes.
func finishSite(name, layout string, hostile bool, pages []*pageBuild, pageValues map[string][]string) (*Site, error) {
	htmls := make([]string, len(pages))
	for i, p := range pages {
		htmls[i] = dom.Serialize(p.doc)
	}
	c := corpus.ParseHTML(htmls)
	site := &Site{
		Name:       name,
		Corpus:     c,
		Gold:       make(map[string]*bitset.Set),
		PageValues: pageValues,
		LRHostile:  hostile,
		Layout:     layout,
	}
	// Index this corpus's text nodes by page for relocation.
	type key struct {
		page  int
		value string
		tag   string
	}
	byKey := make(map[key][]int)
	for ord := 0; ord < c.NumTexts(); ord++ {
		tag := ""
		if e := c.TextParent(ord); e >= 0 {
			tag = c.Element(e).Tag
		}
		k := key{page: c.PageOf(ord), value: c.TextContent(ord), tag: tag}
		byKey[k] = append(byKey[k], ord)
	}
	for pi, p := range pages {
		for typ, specs := range p.gold {
			set, ok := site.Gold[typ]
			if !ok {
				set = c.EmptySet()
				site.Gold[typ] = set
			}
			for _, spec := range specs {
				ords := byKey[key{page: pi, value: spec.value, tag: spec.parentTag}]
				if len(ords) == 0 {
					return nil, fmt.Errorf("gen: site %s page %d: gold %s value %q (tag %s) not found after reparse",
						name, pi, typ, spec.value, spec.parentTag)
				}
				for _, ord := range ords {
					set.Add(ord)
				}
			}
		}
	}
	if err := site.pairRecords(); err != nil {
		return nil, err
	}
	return site, nil
}

// pairRecords builds (name, zip) gold records by scanning each page in
// document order: every name opens a record, the next zip completes it.
func (s *Site) pairRecords() error {
	names, okN := s.Gold["name"]
	zips, okZ := s.Gold["zip"]
	if !okN || !okZ {
		return nil
	}
	type occ struct {
		ord   int
		isZip bool
	}
	perPage := make(map[int][]occ)
	names.ForEach(func(ord int) {
		p := s.Corpus.PageOf(ord)
		perPage[p] = append(perPage[p], occ{ord: ord})
	})
	zips.ForEach(func(ord int) {
		p := s.Corpus.PageOf(ord)
		perPage[p] = append(perPage[p], occ{ord: ord, isZip: true})
	})
	var pagesIdx []int
	for p := range perPage {
		pagesIdx = append(pagesIdx, p)
	}
	sort.Ints(pagesIdx)
	for _, p := range pagesIdx {
		seq := perPage[p]
		sort.Slice(seq, func(i, j int) bool { return seq[i].ord < seq[j].ord })
		openName := -1
		for _, o := range seq {
			if !o.isZip {
				if openName != -1 {
					return fmt.Errorf("gen: site %s page %d: name %d has no zip", s.Name, p, openName)
				}
				openName = o.ord
				continue
			}
			if openName == -1 {
				return fmt.Errorf("gen: site %s page %d: zip %d precedes any name", s.Name, p, o.ord)
			}
			s.GoldRecords = append(s.GoldRecords, [2]int{openName, o.ord})
			openName = -1
		}
		if openName != -1 {
			return fmt.Errorf("gen: site %s page %d: trailing unpaired name", s.Name, p)
		}
	}
	return nil
}

// el and text are terse DOM construction helpers for the layout scripts.
func el(tag string, kv ...string) *dom.Node { return dom.NewElement(tag, kv...) }

func text(s string) *dom.Node { return dom.NewText(s) }

func elText(tag, content string, kv ...string) *dom.Node {
	n := dom.NewElement(tag, kv...)
	n.Append(dom.NewText(content))
	return n
}
