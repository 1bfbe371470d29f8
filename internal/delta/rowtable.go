package delta

import "ligra/internal/graph"

// row is one replacement adjacency row: Targets strictly ascending,
// Weights parallel (nil on unweighted graphs). A replacement row's
// Targets are never nil — a row emptied by deletes holds an empty,
// non-nil slice — which is how a page tells "replaced by nothing" from
// "not replaced". It is a graph.Row, so that a pull round can read a
// page's rows in place (overlay.InReplaced).
type row = graph.Row

// pageRows is the row table's page size. 64 row headers are 3 KiB: a
// commit that dirties one row copies that much plus the directory, and a
// batch that dirties most of a page's rows leaves their headers adjacent.
const (
	pageShift = 6
	pageRows  = 1 << pageShift
)

// rowPage is one page of the row table: its rows and, as bits, which of
// them replace a row — a pull round reads the bits to hand the others
// straight from the base's arrays.
type rowPage struct {
	rows     [pageRows]row
	replaced uint64
}

// A page is one word of replaced bits and the rows InReplaced hands out.
var _ [64 - pageRows]struct{}
var _ [pageRows - 64]struct{}

// rowTable is a persistent map from vertex to replacement row, in the
// shape of the copy-on-write snapshot stores of the streaming-graph
// survey (PAPERS.md, arXiv:1912.12740): a page directory indexed by
// v>>pageShift over fixed pages of row headers. A table is immutable once
// built; with returns a new one that shares every page it does not write.
// A lookup is two indexed loads, and a commit costs the directory copy
// (|V|/64 pointers) plus one page copy per page it dirties — not the
// number of rows dirtied since the last compaction. The zero value is an
// empty table.
type rowTable struct {
	pages []*rowPage
	rows  int   // replaced rows
	edges int64 // targets across them
}

// get returns v's replacement row, if it has one.
func (t *rowTable) get(v uint32) (row, bool) {
	if p := t.pageAt(int(v >> pageShift)); p != nil {
		r := p.rows[v&(pageRows-1)]
		return r, r.Targets != nil
	}
	return row{}, false
}

func (t *rowTable) pageAt(pi int) *rowPage {
	if pi < len(t.pages) {
		return t.pages[pi]
	}
	return nil
}

// with returns a table in which rows[i] replaces the row of vs[i]; vs is
// strictly ascending, so all writes to one page are consecutive and each
// dirtied page is cloned once. The receiver is not modified.
func (t rowTable) with(vs []uint32, rows []row) rowTable {
	if len(vs) == 0 {
		return t
	}
	npages := max(len(t.pages), int(vs[len(vs)-1]>>pageShift)+1)
	next := rowTable{pages: make([]*rowPage, npages), rows: t.rows, edges: t.edges}
	copy(next.pages, t.pages)
	var page *rowPage
	cloned := -1
	for i, v := range vs {
		if pi := int(v >> pageShift); pi != cloned {
			page = new(rowPage)
			if old := t.pageAt(pi); old != nil {
				*page = *old
			}
			next.pages[pi], cloned = page, pi
		}
		slot := &page.rows[v&(pageRows-1)]
		if slot.Targets == nil {
			next.rows++
		}
		page.replaced |= 1 << (v & (pageRows - 1))
		next.edges += int64(len(rows[i].Targets) - len(slot.Targets))
		*slot = rows[i]
	}
	return next
}
