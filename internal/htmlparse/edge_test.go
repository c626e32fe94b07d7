package htmlparse

import (
	"strings"
	"testing"

	"autowrap/internal/dom"
)

func TestParseStyleRawText(t *testing.T) {
	doc := Parse(`<style>.x > li { color: red; }</style><p>after</p>`)
	style := findFirst(doc, "style")
	if style == nil || !style.Raw {
		t.Fatal("style not parsed as raw")
	}
	if findFirst(doc, "li") != nil {
		t.Fatal("selector inside style leaked into the tree")
	}
	if got := strings.Join(findTexts(findFirst(doc, "p")), ""); got != "after" {
		t.Fatalf("content after style = %q", got)
	}
}

func TestParseScriptCaseInsensitiveClose(t *testing.T) {
	doc := Parse(`<script>var a=1;</SCRIPT><p>x</p>`)
	if findFirst(doc, "p") == nil {
		t.Fatal("uppercase close tag not honored for raw text")
	}
}

func TestParseUnquotedAttrStopsAtSlashGt(t *testing.T) {
	doc := Parse(`<img src=pic.png/><span>t</span>`)
	img := findFirst(doc, "img")
	if v, _ := img.Attr("src"); v != "pic.png" {
		t.Fatalf("src = %q (self-closing slash must not join the value)", v)
	}
}

// TestParseUnquotedAttrEndsAtWhitespace: every byte skipSpace, isSpace and
// the whitespace collapse treat as whitespace ends an unquoted value too —
// form feed included.
func TestParseUnquotedAttrEndsAtWhitespace(t *testing.T) {
	for _, sep := range []string{" ", "\t", "\n", "\r", "\f"} {
		a := findFirst(Parse("<a href=x"+sep+"id=y>t</a>"), "a")
		if href, _ := a.Attr("href"); href != "x" {
			t.Errorf("separator %q: href = %q", sep, href)
		}
		if id, _ := a.Attr("id"); id != "y" {
			t.Errorf("separator %q: id = %q", sep, id)
		}
	}
}

func TestParseValuelessAttribute(t *testing.T) {
	doc := Parse(`<input disabled type=checkbox>`)
	in := findFirst(doc, "input")
	if _, ok := in.Attr("disabled"); !ok {
		t.Fatal("boolean attribute dropped")
	}
	if v, _ := in.Attr("type"); v != "checkbox" {
		t.Fatalf("type = %q", v)
	}
}

func TestParseNumericEntityEdge(t *testing.T) {
	doc := Parse(`<p>&#x48;&#105; &#x110000; &#0;</p>`)
	texts := findTexts(doc)
	if len(texts) != 1 || !strings.HasPrefix(texts[0], "Hi") {
		t.Fatalf("texts = %q", texts)
	}
	// Out-of-range and zero references stay verbatim.
	if !strings.Contains(texts[0], "&#x110000;") || !strings.Contains(texts[0], "&#0;") {
		t.Fatalf("invalid refs should remain literal: %q", texts[0])
	}
}

func TestParseDoctypeVariants(t *testing.T) {
	for _, src := range []string{
		`<!DOCTYPE html><p>x</p>`,
		`<?xml version="1.0"?><p>x</p>`,
		`<!doctype html PUBLIC "-//W3C//DTD XHTML 1.0"><p>x</p>`,
	} {
		doc := Parse(src)
		if got := strings.Join(findTexts(doc), ""); got != "x" {
			t.Fatalf("%q: texts = %q", src, got)
		}
	}
}

func TestSortAttrs(t *testing.T) {
	n := dom.NewElement("div", "z", "1", "a", "2", "m", "3")
	n.SortAttrs()
	if n.Attrs[0].Key != "a" || n.Attrs[1].Key != "m" || n.Attrs[2].Key != "z" {
		t.Fatalf("attrs not sorted: %v", n.Attrs)
	}
}

func TestParseDeepNestingNoStackIssues(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 2000; i++ {
		sb.WriteString("<div>")
	}
	sb.WriteString("deep")
	doc := Parse(sb.String())
	if got := strings.Join(findTexts(doc), ""); got != "deep" {
		t.Fatalf("texts = %q", got)
	}
}
