package schema

import (
	"strings"
	"testing"
)

func TestRelationArityAndIndex(t *testing.T) {
	r := Relation{Name: "Games", Attrs: []string{"date", "winner", "loser", "stage", "result"}}
	if got := r.Arity(); got != 5 {
		t.Fatalf("Arity = %d, want 5", got)
	}
	if got := r.AttrIndex("stage"); got != 3 {
		t.Errorf("AttrIndex(stage) = %d, want 3", got)
	}
	if got := r.AttrIndex("nope"); got != -1 {
		t.Errorf("AttrIndex(nope) = %d, want -1", got)
	}
}

func TestRelationString(t *testing.T) {
	r := Relation{Name: "Teams", Attrs: []string{"name", "continent"}}
	if got, want := r.String(), "Teams(name, continent)"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestRelationValidate(t *testing.T) {
	cases := []struct {
		name string
		rel  Relation
		ok   bool
	}{
		{"valid", Relation{Name: "R", Attrs: []string{"a", "b"}}, true},
		{"empty name", Relation{Name: "", Attrs: []string{"a"}}, false},
		{"no attrs", Relation{Name: "R"}, false},
		{"empty attr", Relation{Name: "R", Attrs: []string{"a", ""}}, false},
		{"dup attr", Relation{Name: "R", Attrs: []string{"a", "a"}}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.rel.Validate()
			if c.ok && err != nil {
				t.Errorf("Validate() = %v, want nil", err)
			}
			if !c.ok && err == nil {
				t.Errorf("Validate() = nil, want error")
			}
		})
	}
}

func TestSchemaLookup(t *testing.T) {
	s := New(
		Relation{Name: "Teams", Attrs: []string{"name", "continent"}},
		Relation{Name: "Goals", Attrs: []string{"player", "date"}},
	)
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if got := s.Arity("Goals"); got != 2 {
		t.Errorf("Arity(Goals) = %d, want 2", got)
	}
	if got := s.Arity("Missing"); got != -1 {
		t.Errorf("Arity(Missing) = %d, want -1", got)
	}
	r, ok := s.Relation("Teams")
	if !ok || r.Name != "Teams" {
		t.Errorf("Relation(Teams) = %v, %v", r, ok)
	}
	if _, ok := s.Relation("Players"); ok {
		t.Errorf("Relation(Players) found a relation the schema lacks")
	}
}

func TestSchemaNamesOrderAndCopy(t *testing.T) {
	s := New(
		Relation{Name: "B", Attrs: []string{"x"}},
		Relation{Name: "A", Attrs: []string{"y"}},
	)
	names := s.Names()
	if len(names) != 2 || names[0] != "B" || names[1] != "A" {
		t.Fatalf("Names = %v, want [B A] (insertion order)", names)
	}
	names[0] = "mutated"
	if s.Names()[0] != "B" {
		t.Errorf("Names() exposed internal slice")
	}
}

func TestSchemaAddErrors(t *testing.T) {
	s := New(Relation{Name: "R", Attrs: []string{"a"}})
	if err := s.Add(Relation{Name: "R", Attrs: []string{"b"}}); err == nil {
		t.Errorf("Add duplicate: want error")
	}
	if err := s.Add(Relation{Name: "S"}); err == nil {
		t.Errorf("Add invalid: want error")
	}
}

func TestNewPanicsOnDuplicate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("New with duplicates did not panic")
		}
	}()
	New(
		Relation{Name: "R", Attrs: []string{"a"}},
		Relation{Name: "R", Attrs: []string{"b"}},
	)
}

func TestSchemaString(t *testing.T) {
	s := New(
		Relation{Name: "B", Attrs: []string{"x"}},
		Relation{Name: "A", Attrs: []string{"y", "z"}},
	)
	got := s.String()
	if !strings.HasPrefix(got, "A(y, z)") {
		t.Errorf("String() not sorted: %q", got)
	}
	if !strings.Contains(got, "B(x)") {
		t.Errorf("String() missing B: %q", got)
	}
}
