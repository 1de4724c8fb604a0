// Package db implements in-memory relational database instances: tuples,
// facts, indexed relations, and whole databases with edit application
// (insertions R(ā)+ and deletions R(ā)−, written D ⊕ e in the paper) and the
// symmetric-difference distance |D − D′| used to argue convergence.
//
// Values are uninterpreted constants represented as strings. Relations have
// set semantics: inserting an existing tuple or deleting an absent one is a
// no-op (edits are idempotent, §3.1 of the paper).
package db

import (
	"fmt"
	"strings"
)

// keySep separates tuple components in the internal map key. Constant values
// must not contain this byte; it is the ASCII unit separator, which never
// occurs in realistic data values.
const keySep = "\x1f"

// Tuple is an ordered list of constant values.
type Tuple []string

// Key returns a canonical map key for the tuple.
func (t Tuple) Key() string { return strings.Join(t, keySep) }

// AppendKey appends Key() to b. A map lookup indexed by string(AppendKey(...))
// on a reused buffer does not allocate.
func (t Tuple) AppendKey(b []byte) []byte {
	for i, v := range t {
		if i > 0 {
			b = append(b, keySep...)
		}
		b = append(b, v...)
	}
	return b
}

// Equal reports component-wise equality.
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if t[i] != o[i] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Less imposes a total lexicographic order on tuples, used for deterministic
// output ordering.
func (t Tuple) Less(o Tuple) bool {
	for i := 0; i < len(t) && i < len(o); i++ {
		if t[i] != o[i] {
			return t[i] < o[i]
		}
	}
	return len(t) < len(o)
}

// String renders the tuple as (v1, v2, ...).
func (t Tuple) String() string { return "(" + strings.Join(t, ", ") + ")" }

// Fact is a tuple of a named relation: the paper's R(ā).
type Fact struct {
	Rel  string
	Args Tuple
}

// NewFact builds a fact from a relation name and argument values.
func NewFact(rel string, args ...string) Fact {
	return Fact{Rel: rel, Args: Tuple(args)}
}

// Key returns a canonical map key for the fact.
func (f Fact) Key() string { return f.Rel + keySep + f.Args.Key() }

// AppendKey appends Key() to b.
func (f Fact) AppendKey(b []byte) []byte {
	b = append(b, f.Rel...)
	b = append(b, keySep...)
	return f.Args.AppendKey(b)
}

// Equal reports whether two facts denote the same tuple of the same relation.
func (f Fact) Equal(o Fact) bool { return f.Rel == o.Rel && f.Args.Equal(o.Args) }

// Clone returns an independent copy of the fact.
func (f Fact) Clone() Fact { return Fact{Rel: f.Rel, Args: f.Args.Clone()} }

// Less imposes a total order on facts: by relation name, then by tuple.
func (f Fact) Less(o Fact) bool {
	if f.Rel != o.Rel {
		return f.Rel < o.Rel
	}
	return f.Args.Less(o.Args)
}

// String renders the fact as Rel(v1, v2, ...).
func (f Fact) String() string {
	return fmt.Sprintf("%s%s", f.Rel, f.Args.String())
}

// Op is the kind of an edit: insertion or deletion.
type Op int

// Edit operations.
const (
	Insert Op = iota // R(ā)+
	Delete           // R(ā)−
)

// String renders the operation sign.
func (o Op) String() string {
	if o == Insert {
		return "+"
	}
	return "-"
}

// Edit is a single database update: R(ā)+ inserts fact R(ā), R(ā)− deletes
// it. Updates of existing tuples are modeled as a deletion followed by an
// insertion (§3.1).
type Edit struct {
	Op   Op
	Fact Fact
}

// Insertion builds an insertion edit for the given fact.
func Insertion(f Fact) Edit { return Edit{Op: Insert, Fact: f} }

// Deletion builds a deletion edit for the given fact.
func Deletion(f Fact) Edit { return Edit{Op: Delete, Fact: f} }

// String renders the edit as Rel(v1, ...)+ or Rel(v1, ...)-.
func (e Edit) String() string { return e.Fact.String() + e.Op.String() }
