// Package pincheck tests that pooled scratch keeps no reference into the
// page it worked on: scratch idles in a pool for as long as the process
// lives, and tags, text and attribute values all alias the page source, so
// one stale string keeps a whole request body alive.
package pincheck

import (
	"runtime"
	"testing"
	"time"
	"unsafe"
)

// Freed gives use a copy of page that lives in a buffer of its own, and
// fails t unless that buffer is collected once use has returned — while
// whatever use returned (the scratch, as released to its pool) is still
// reachable.
func Freed(t *testing.T, page string, use func(page string) (scratch any)) {
	t.Helper()
	freed := make(chan struct{})
	scratch := func() any {
		buf := []byte(page)
		runtime.AddCleanup(&buf[0], func(struct{}) { close(freed) }, struct{}{})
		return use(unsafe.String(&buf[0], len(buf)))
	}()
	defer runtime.KeepAlive(scratch)
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("released scratch still references the page it read")
}

// Page is a page with every construct whose bytes a parser or a rule
// aliases: attributes in each quoting, comments, text that collapses and
// text that does not, a lone '<', raw script text, an unclosed tail.
const Page = `<html><body class="page" id=main><!-- c --><ul data-x='1' data-y="2" data-z=3>` +
	`<li class="row"><a href="/x?a=1">plain text</a>  spaced   text <b>5 < 6</b></li>` +
	`<li class="row"><a href="/y">second</a> tail &amp; more</li>` +
	`</ul><script>var a = "<li>";</script><p>tail</p></body></html>`
