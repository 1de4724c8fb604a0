package db

import "repro/internal/schema"

// Overlay returns a read-only view of base with one edit virtually applied:
// after Overlay(base, Insertion(f)) the fact reads as present, after
// Overlay(base, Deletion(f)) as absent, while base itself is never touched.
// The view engine uses it to reconstruct the pre-edit state of a delta —
// mutating the store instead would bump the edit generation and, on
// journaled backends, append real insert/delete records, so a crash (or a
// journal-replay failover) landing between a toggle and its revert could
// recover a state that never semantically existed.
//
// When the virtual edit is a no-op (inserting a fact base already has,
// deleting one it lacks) base is returned unchanged: its state already is
// the overlaid state, and its real identity keeps caching sound. Otherwise
// the overlay reports a fresh store identity at generation zero, so
// generation-stamped caches never alias it with base.
//
// The overlay reads through to base and follows the usual reader contract:
// it must not be used concurrently with mutations of base. A virtually
// inserted fact reads as e.Fact's own tuple, which, like a stored tuple, the
// caller must never rewrite.
func Overlay(base Reader, e Edit) Reader {
	add := e.Op == Insert
	if add == base.Has(e.Fact) {
		return base
	}
	return &overlayReader{base: base, f: e.Fact, add: add, id: lastDBID.Add(1)}
}

// overlayReader adjusts every read of base by one fact. Invariant (checked
// by Overlay): add implies base lacks f, !add implies base has it.
type overlayReader struct {
	base Reader
	f    Fact
	add  bool // true: f virtually present; false: f virtually absent
	id   uint64
}

func (o *overlayReader) ID() uint64             { return o.id }
func (o *overlayReader) Generation() uint64     { return 0 }
func (o *overlayReader) Schema() *schema.Schema { return o.base.Schema() }

func (o *overlayReader) Rel(name string) Rel {
	r := o.base.Rel(name)
	if r == nil || name != o.f.Rel {
		return r
	}
	return &overlayRel{base: r, t: o.f.Args, add: o.add}
}

func (o *overlayReader) Has(f Fact) bool {
	if f.Equal(o.f) {
		return o.add
	}
	return o.base.Has(f)
}

func (o *overlayReader) Len() int {
	if o.add {
		return o.base.Len() + 1
	}
	return o.base.Len() - 1
}

func (o *overlayReader) Facts() []Fact {
	facts := o.base.Facts()
	out := make([]Fact, 0, len(facts)+1)
	if o.add {
		placed := false
		for _, g := range facts {
			if !placed && o.f.Less(g) {
				out = append(out, o.f)
				placed = true
			}
			out = append(out, g)
		}
		if !placed {
			out = append(out, o.f)
		}
		return out
	}
	for _, g := range facts {
		if g.Equal(o.f) {
			continue
		}
		out = append(out, g)
	}
	return out
}

// overlayRel adjusts the edited relation's read view by one tuple. Same
// invariant as overlayReader: add implies base lacks t, !add implies base
// has it.
type overlayRel struct {
	base Rel
	t    Tuple
	add  bool
}

func (r *overlayRel) Name() string { return r.base.Name() }
func (r *overlayRel) Arity() int   { return r.base.Arity() }

func (r *overlayRel) Len() int {
	if r.add {
		return r.base.Len() + 1
	}
	return r.base.Len() - 1
}

func (r *overlayRel) Has(t Tuple) bool {
	if t.Equal(r.t) {
		return r.add
	}
	return r.base.Has(t)
}

func (r *overlayRel) Tuples() []Tuple {
	ts := r.base.Tuples()
	out := make([]Tuple, 0, len(ts)+1)
	if r.add {
		placed := false
		for _, u := range ts {
			if !placed && r.t.Less(u) {
				out = append(out, r.t)
				placed = true
			}
			out = append(out, u)
		}
		if !placed {
			out = append(out, r.t)
		}
		return out
	}
	for _, u := range ts {
		if u.Equal(r.t) {
			continue
		}
		out = append(out, u)
	}
	return out
}

func (r *overlayRel) Each(fn func(Tuple) bool) {
	if r.add && !fn(r.t) {
		return
	}
	r.base.Each(func(u Tuple) bool {
		if !r.add && u.Equal(r.t) {
			return true
		}
		return fn(u)
	})
}

func (r *overlayRel) Scan(bindings []Binding) []Tuple {
	ts := r.base.Scan(bindings)
	if !tupleMatches(r.t, bindings) {
		return ts
	}
	if r.add {
		return append(ts, r.t)
	}
	for i, u := range ts {
		if u.Equal(r.t) {
			out := make([]Tuple, 0, len(ts)-1)
			out = append(out, ts[:i]...)
			return append(out, ts[i+1:]...)
		}
	}
	return ts
}

func (r *overlayRel) MatchCount(bindings []Binding) int {
	n := r.base.MatchCount(bindings)
	if tupleMatches(r.t, bindings) {
		if r.add {
			n++
		} else {
			n--
		}
	}
	return n
}

// tupleMatches reports whether the tuple satisfies every binding.
func tupleMatches(t Tuple, bindings []Binding) bool {
	for _, b := range bindings {
		if b.Col < 0 || b.Col >= len(t) || t[b.Col] != b.Value {
			return false
		}
	}
	return true
}

var (
	_ Reader = (*overlayReader)(nil)
	_ Rel    = (*overlayRel)(nil)
)
