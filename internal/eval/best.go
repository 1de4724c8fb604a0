package eval

import (
	"bytes"
	"sort"

	"repro/internal/cq"
	"repro/internal/db"
)

// Best returns the k valid total assignments of q over d extending seed that
// come first in Assignment.Key order, in that order: Eval's order, cut to k.
// k <= 0 keeps them all.
//
// Best runs one join search and builds each row's key in a reused buffer. A
// row whose key sorts after the k-th kept one costs no allocation, and a row
// that pushes one out reuses its Assignment: only the kept rows are copied
// out. Like Eval, Best consults neither the cache nor a maintainer.
func Best(q *cq.Query, d db.Reader, seed Assignment, k int) []Assignment {
	s := selection{k: k}
	search(q, d, seed, func(r *Row) bool {
		s.offer(r)
		return true
	})
	out := make([]Assignment, len(s.kept))
	for i, e := range s.kept {
		out[i] = e.a
	}
	return out
}

// selection is the state of one Best call: the kept rows in key order.
type selection struct {
	k     int
	kept  []keyed
	order []int  // the frame's slots in variable-name order, the order of Key
	key   []byte // the offered row's key
}

// keyed is one kept row: its Assignment.Key and its bindings.
type keyed struct {
	key []byte
	a   Assignment
}

// offer keeps the row if its key is among the k least so far.
func (s *selection) offer(r *Row) {
	if s.order == nil {
		s.order = keyOrder(r.p.names)
	}
	s.key = r.appendKey(s.key[:0], s.order)
	// i counts the kept rows whose key is not greater than this one's.
	i := sort.Search(len(s.kept), func(j int) bool {
		return bytes.Compare(s.key, s.kept[j].key) < 0
	})
	var e keyed
	if s.k > 0 && len(s.kept) == s.k {
		if i == s.k {
			return
		}
		e = s.kept[s.k-1] // pushed out: reuse its key buffer and Assignment
		clear(e.a)
	} else {
		s.kept = append(s.kept, keyed{})
		e.a = make(Assignment, len(r.cells))
	}
	copy(s.kept[i+1:], s.kept[i:])
	e.key = append(e.key[:0], s.key...)
	r.copyTo(e.a)
	s.kept[i] = e
}

// keyOrder returns the slots ordered by variable name. The names of a plan
// are distinct.
func keyOrder(names []string) []int {
	order := make([]int, len(names))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return names[order[i]] < names[order[j]] })
	return order
}

// appendKey appends the row's Assignment.Key to b, visiting the slots in
// variable-name order.
func (r *Row) appendKey(b []byte, order []int) []byte {
	first := true
	for _, i := range order {
		c := r.cells[i]
		if !c.ok {
			continue
		}
		if !first {
			b = append(b, '\x1e')
		}
		first = false
		b = append(b, r.p.names[i]...)
		b = append(b, '\x1f')
		b = append(b, c.val...)
	}
	return b
}
