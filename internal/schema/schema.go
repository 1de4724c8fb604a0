// Package schema defines relational schemas: named relation symbols with a
// fixed arity and named attributes. A Schema is the static description that a
// db.Database instance (and every query over it) is validated against.
package schema

import (
	"fmt"
	"sort"
	"strings"
)

// Relation describes one relation symbol: its name and attribute names.
// The arity of the relation is len(Attrs).
type Relation struct {
	Name  string
	Attrs []string
}

// Arity returns the number of attributes of the relation.
func (r Relation) Arity() int { return len(r.Attrs) }

// AttrIndex returns the position of the named attribute, or -1 if absent.
func (r Relation) AttrIndex(attr string) int {
	for i, a := range r.Attrs {
		if a == attr {
			return i
		}
	}
	return -1
}

// String renders the relation as Name(attr1, ..., attrK).
func (r Relation) String() string {
	return fmt.Sprintf("%s(%s)", r.Name, strings.Join(r.Attrs, ", "))
}

// Validate checks structural well-formedness: non-empty names, positive
// arity, and no duplicate attribute names.
func (r Relation) Validate() error {
	if r.Name == "" {
		return fmt.Errorf("schema: relation with empty name")
	}
	if len(r.Attrs) == 0 {
		return fmt.Errorf("schema: relation %s has no attributes", r.Name)
	}
	seen := make(map[string]bool, len(r.Attrs))
	for _, a := range r.Attrs {
		if a == "" {
			return fmt.Errorf("schema: relation %s has an empty attribute name", r.Name)
		}
		if seen[a] {
			return fmt.Errorf("schema: relation %s has duplicate attribute %q", r.Name, a)
		}
		seen[a] = true
	}
	return nil
}

// Schema is a finite set of relation symbols, keyed by name.
type Schema struct {
	rels  map[string]Relation
	order []string // insertion order, for deterministic iteration
}

// New builds a schema from the given relations. It panics on invalid or
// duplicate relations; schemas are typically package-level constants, so an
// invalid one is a programming error.
func New(rels ...Relation) *Schema {
	s := &Schema{rels: make(map[string]Relation, len(rels))}
	for _, r := range rels {
		if err := s.Add(r); err != nil {
			panic(err)
		}
	}
	return s
}

// Add inserts a relation into the schema.
func (s *Schema) Add(r Relation) error {
	if err := r.Validate(); err != nil {
		return err
	}
	if _, dup := s.rels[r.Name]; dup {
		return fmt.Errorf("schema: duplicate relation %s", r.Name)
	}
	if s.rels == nil {
		s.rels = make(map[string]Relation)
	}
	s.rels[r.Name] = r
	s.order = append(s.order, r.Name)
	return nil
}

// Relation looks up a relation symbol by name.
func (s *Schema) Relation(name string) (Relation, bool) {
	r, ok := s.rels[name]
	return r, ok
}

// Arity returns the arity of the named relation, or -1 if it is not in the
// schema.
func (s *Schema) Arity(name string) int {
	r, ok := s.rels[name]
	if !ok {
		return -1
	}
	return r.Arity()
}

// Names returns the relation names in insertion order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.order))
	copy(out, s.order)
	return out
}

// Len returns the number of relations in the schema.
func (s *Schema) Len() int { return len(s.rels) }

// String renders the schema as a sorted, newline-separated list of relation
// signatures.
func (s *Schema) String() string {
	names := s.Names()
	sort.Strings(names)
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(s.rels[n].String())
	}
	return b.String()
}
