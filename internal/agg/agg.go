// Package agg extends the query language with aggregates — the first item on
// the paper's future-work list (§9: "we plan to extend QOCO by supporting
// richer view languages, such as queries with aggregates"). An aggregate
// query groups the answers of a CQ≠ body by its head variables and
// aggregates a designated variable per group (COUNT/SUM/MIN/MAX over the
// distinct values, matching the set semantics of the underlying engine).
//
// Cleaning a wrong aggregate value reduces to cleaning the group's member
// set: CleanGroup binds the group constants into the body and runs the
// general cleaner (Algorithm 3) on the member query, exactly the reduction
// the paper hints at ("there are potentially numerous ways to achieve the
// same aggregate"; fixing the members is the one that also repairs the
// database).
package agg

import (
	"context"
	"fmt"
	"sort"
	"strconv"

	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/db"
	"repro/internal/eval"
)

// Kind is the aggregate function.
type Kind int

// Aggregate kinds.
const (
	Count Kind = iota // COUNT(DISTINCT of)
	Sum               // SUM(DISTINCT of), numeric
	Min               // MIN(of), numeric
	Max               // MAX(of), numeric
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case Count:
		return "COUNT"
	case Sum:
		return "SUM"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Query is an aggregate query: the body's head variables are the GROUP BY
// columns; Of is the aggregated variable.
type Query struct {
	Name string
	Body *cq.Query
	Kind Kind
	Of   string
}

// New builds an aggregate query, checking that Of occurs in the body and not
// in the group-by head.
func New(name string, body *cq.Query, kind Kind, of string) (*Query, error) {
	found := false
	for _, v := range body.Vars() {
		if v == of {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("agg: aggregated variable %q does not occur in the body", of)
	}
	for _, h := range body.Head {
		if h.IsVar && h.Name == of {
			return nil, fmt.Errorf("agg: aggregated variable %q cannot be a group-by column", of)
		}
	}
	return &Query{Name: name, Body: body, Kind: kind, Of: of}, nil
}

// String renders the aggregate query.
func (q *Query) String() string {
	return fmt.Sprintf("%s(%s) GROUP BY %v OVER %s", q.Kind, q.Of, q.Body.Head, q.Body)
}

// Group is one aggregate answer: the group key and its aggregate value.
type Group struct {
	Key   db.Tuple
	Value float64
}

// Eval computes the aggregate over the database. Groups are ordered by key.
// SUM/MIN/MAX require numeric values of the aggregated variable; non-numeric
// values are an error.
func Eval(q *Query, d db.Reader) ([]Group, error) {
	values := make(map[string]map[string]bool) // group key -> distinct of-values
	keys := make(map[string]db.Tuple)
	for _, a := range eval.Eval(q.Body, d) {
		g, ok := a.HeadTuple(q.Body)
		if !ok {
			continue
		}
		v, ok := a[q.Of]
		if !ok {
			continue
		}
		k := g.Key()
		if values[k] == nil {
			values[k] = make(map[string]bool)
			keys[k] = g
		}
		values[k][v] = true
	}
	out := make([]Group, 0, len(values))
	for k, vals := range values {
		g := Group{Key: keys[k]}
		switch q.Kind {
		case Count:
			g.Value = float64(len(vals))
		default:
			// Fold in sorted value order: float addition is not associative,
			// so a map-order fold would make SUM depend on iteration order —
			// the metamorphic harness compares aggregate output byte for byte
			// across evaluation legs and needs the fold deterministic.
			sorted := make([]string, 0, len(vals))
			for v := range vals {
				sorted = append(sorted, v)
			}
			sort.Strings(sorted)
			first := true
			for _, v := range sorted {
				n, err := strconv.ParseFloat(v, 64)
				if err != nil {
					return nil, fmt.Errorf("agg: %s over non-numeric value %q", q.Kind, v)
				}
				switch q.Kind {
				case Sum:
					g.Value += n
				case Min:
					if first || n < g.Value {
						g.Value = n
					}
				case Max:
					if first || n > g.Value {
						g.Value = n
					}
				}
				first = false
			}
		}
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key.Less(out[j].Key) })
	return out, nil
}

// GroupValue returns the aggregate for one group (0, false if the group is
// empty/absent).
func GroupValue(q *Query, d db.Reader, group db.Tuple) (float64, bool, error) {
	gs, err := Eval(q, d)
	if err != nil {
		return 0, false, err
	}
	for _, g := range gs {
		if g.Key.Equal(group) {
			return g.Value, true, nil
		}
	}
	return 0, false, nil
}

// Diff compares the aggregate over two databases and returns the group keys
// whose values differ (including groups present in only one side), ordered.
// Experiment harnesses use it with the ground truth to locate wrong groups.
func Diff(q *Query, d, dg db.Reader) ([]db.Tuple, error) {
	a, err := Eval(q, d)
	if err != nil {
		return nil, err
	}
	b, err := Eval(q, dg)
	if err != nil {
		return nil, err
	}
	av := make(map[string]float64, len(a))
	at := make(map[string]db.Tuple, len(a))
	for _, g := range a {
		av[g.Key.Key()] = g.Value
		at[g.Key.Key()] = g.Key
	}
	bv := make(map[string]float64, len(b))
	bt := make(map[string]db.Tuple, len(b))
	for _, g := range b {
		bv[g.Key.Key()] = g.Value
		bt[g.Key.Key()] = g.Key
	}
	seen := make(map[string]bool)
	var out []db.Tuple
	for k, v := range av {
		if w, ok := bv[k]; !ok || w != v {
			seen[k] = true
			out = append(out, at[k])
		}
	}
	for k := range bv {
		if _, ok := av[k]; !ok && !seen[k] {
			out = append(out, bt[k])
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out, nil
}

// MemberQuery builds the member-level CQ≠ for one group: the body with the
// group-by variables bound to the group's constants and the aggregated
// variable as the only head column. Cleaning this query repairs the group's
// member set and hence its aggregate.
func (q *Query) MemberQuery(group db.Tuple) (*cq.Query, error) {
	embedded, err := q.Body.Embed(group)
	if err != nil {
		return nil, err
	}
	// Embed's head is "all remaining variables"; project to the aggregated
	// variable only.
	embedded.Name = q.Name
	embedded.Head = []cq.Term{cq.Var(q.Of)}
	return embedded, nil
}

// CleanGroup repairs the aggregate value of one group by running the general
// cleaner on the group's member query. The cleaner carries the oracle, the
// database and all configuration.
func CleanGroup(ctx context.Context, c *core.Cleaner, q *Query, group db.Tuple) (*core.Report, error) {
	member, err := q.MemberQuery(group)
	if err != nil {
		return nil, err
	}
	return c.Clean(ctx, member)
}
