package metamorph

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/agg"
	"repro/internal/cq"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/view"
)

// Oracles returns the equivalence battery, in the order CheckWorkload runs
// it. Each oracle's scope and guardrails are documented in
// docs/oracles/<Name>.md.
func Oracles() []Oracle {
	return []Oracle{
		{Name: "parse", Doc: "generated SQL parses deterministically; rejections are typed", Check: checkParse},
		{Name: "roundtrip", Doc: "SQL → CQ → Datalog text → CQ is the identity", Check: checkRoundTrip},
		{Name: "cache", Doc: "cache on (cold and warm) vs eval.NoCache", Check: checkCache},
		{Name: "ivm", Doc: "view.Engine-maintained serving vs cold evaluation", Check: checkIVM},
		{Name: "store", Doc: "in-memory store vs disk-backed store", Check: checkStore},
		{Name: "permute-union", Doc: "union disjunct order (CQ-level and SQL-text-level)", Check: checkPermuteUnion},
		{Name: "permute-atoms", Doc: "join/atom order (CQ-level and SQL-text-level)", Check: checkPermuteAtoms},
	}
}

// ---- shared leg machinery --------------------------------------------------

// evalText renders the workload's full result over a reader: aggregate groups
// for KindAggregate, the union result when the workload has one, the plain
// query result otherwise. The rendering is what the oracles compare byte for
// byte — eval output is deterministically sorted, so exact sequence equality
// (order included) is the correct comparison and also catches ordering bugs.
func evalText(w *Workload, d db.Reader, opts ...eval.Option) (string, error) {
	if w.Agg != nil {
		gs, err := agg.Eval(w.Agg, d)
		if err != nil {
			return "", fmt.Errorf("agg.Eval: %w", err)
		}
		var b strings.Builder
		for _, g := range gs {
			fmt.Fprintf(&b, "%q=%s\n", []string(g.Key), strconv.FormatFloat(g.Value, 'g', -1, 64))
		}
		return b.String(), nil
	}
	if w.Ins.Union != nil && len(w.Ins.Union.Disjuncts) > 1 {
		return renderTuples(eval.ResultUnion(w.Ins.Union, d, opts...)), nil
	}
	return renderTuples(eval.Result(w.Ins.Query, d, opts...)), nil
}

func renderTuples(ts []db.Tuple) string {
	var b strings.Builder
	for _, t := range ts {
		fmt.Fprintf(&b, "%q\n", []string(t))
	}
	return b.String()
}

// memLeg replays the workload's edit script on a fresh in-memory clone,
// rendering the output at step 0 and after every edit. onEdit (optional)
// observes each applied edit with its changed flag — the IVM leg forwards
// changed edits to the engine, exactly as the cleaner's incremental mode
// does. setup (optional) runs after cloning and may return a teardown.
func memLeg(w *Workload, setup func(d *db.Database) (func(), error), onEdit func(db.Edit, bool), opts ...eval.Option) ([]string, error) {
	d := w.Ins.D.Clone()
	defer eval.InvalidateDB(d.ID())
	if setup != nil {
		teardown, err := setup(d)
		if err != nil {
			return nil, err
		}
		if teardown != nil {
			defer teardown()
		}
	}
	out := make([]string, 0, len(w.Ins.Edits)+1)
	s, err := evalText(w, d, opts...)
	if err != nil {
		return nil, fmt.Errorf("step 0: %w", err)
	}
	out = append(out, s)
	for i, e := range w.Ins.Edits {
		changed, err := d.Apply(e)
		if err != nil {
			return nil, fmt.Errorf("edit %d (%v): %w", i, e, err)
		}
		if onEdit != nil {
			onEdit(e, changed)
		}
		s, err := evalText(w, d, opts...)
		if err != nil {
			return nil, fmt.Errorf("after edit %d (%v): %w", i, e, err)
		}
		out = append(out, s)
	}
	return out, nil
}

// plainLeg is memLeg with no setup and no edit observer.
func plainLeg(w *Workload, opts ...eval.Option) ([]string, error) {
	return memLeg(w, nil, nil, opts...)
}

// compareLegs asserts two per-step output sequences are byte-identical,
// reporting the first diverging step.
func compareLegs(base, got []string, baseName, gotName string) error {
	if len(base) != len(got) {
		return fmt.Errorf("%s produced %d steps, %s produced %d", baseName, len(base), gotName, len(got))
	}
	for i := range base {
		if base[i] != got[i] {
			return fmt.Errorf("step %d: %s:\n%s%s:\n%s", i, baseName, base[i], gotName, got[i])
		}
	}
	return nil
}

// skipIfRejected is the shared guardrail for evaluation oracles: workloads
// the front end legitimately rejected have nothing to evaluate.
func skipIfRejected(w *Workload) error {
	if w.ParseErr != nil {
		return skipf("statement rejected by front end: %v", w.ParseErr)
	}
	return nil
}

// ---- parse -----------------------------------------------------------------

// checkParse asserts the front-end contract on generated statements: every
// rejection is typed and expected (the generator emits only well-formed SQL,
// so the only legitimate rejections are ErrAlwaysEmpty and the documented
// aggregate-column corner), and rendering + parsing is deterministic — the
// same spec always yields the same SQL text and the same translated query.
func checkParse(w *Workload) error {
	if w.Kind == KindDatalog {
		return skipf("datalog workloads have no SQL text")
	}
	if w.ParseErr != nil {
		if !w.expectedParseErr() {
			return fmt.Errorf("generated statement rejected with unexpected error: %v\nsql: %s", w.ParseErr, w.SQL)
		}
		return nil
	}
	again := w.Clone() // Clone re-renders and re-parses
	if again.SQL != w.SQL {
		return fmt.Errorf("re-rendering changed the SQL text:\n%s\n%s", w.SQL, again.SQL)
	}
	if again.ParseErr != nil {
		return fmt.Errorf("re-parsing the same text failed: %v\nsql: %s", again.ParseErr, w.SQL)
	}
	if !again.Ins.Query.Equal(w.Ins.Query) {
		return fmt.Errorf("re-parsing translated differently:\n%s\n%s\nsql: %s", w.Ins.Query, again.Ins.Query, w.SQL)
	}
	return nil
}

// ---- roundtrip -------------------------------------------------------------

// checkRoundTrip asserts print → parse is the identity on every translated
// query: SQL → CQ → Datalog text → CQ must reproduce the query exactly, for
// each disjunct and for the union as a whole. This is the oracle that pins
// the SQL → CQ translation (alias resolution, constant binding, union column
// alignment): a translation that produces an unprintable or unreparsable
// query diverges here with the SQL text in hand.
func checkRoundTrip(w *Workload) error {
	if err := skipIfRejected(w); err != nil {
		return err
	}
	queries := []*cq.Query{}
	if w.Ins.Union != nil {
		queries = append(queries, w.Ins.Union.Disjuncts...)
	} else if w.Ins.Query != nil {
		queries = append(queries, w.Ins.Query)
	}
	for _, q := range queries {
		text := q.String()
		q2, err := cq.Parse(text)
		if err != nil {
			return fmt.Errorf("cq.Parse(%q): %w (from sql: %s)", text, err, w.SQL)
		}
		if !q2.Equal(q) {
			return fmt.Errorf("round trip changed the query: %q -> %q (from sql: %s)", text, q2, w.SQL)
		}
	}
	if u := w.Ins.Union; u != nil && len(u.Disjuncts) > 1 {
		text := u.String()
		u2, err := cq.ParseUnion(text)
		if err != nil {
			return fmt.Errorf("cq.ParseUnion(%q): %w (from sql: %s)", text, err, w.SQL)
		}
		if !u2.Equal(u) {
			return fmt.Errorf("union round trip changed the union: %q -> %q (from sql: %s)", text, u2, w.SQL)
		}
	}
	return nil
}

// ---- cache -----------------------------------------------------------------

// checkCache compares the default (cached) evaluation against eval.NoCache,
// and a warm second read against the first: the generation-stamped cache must
// be invisible in output at every step of the edit script.
func checkCache(w *Workload) error {
	if err := skipIfRejected(w); err != nil {
		return err
	}
	cold, err := plainLeg(w, eval.NoCache())
	if err != nil {
		return err
	}
	cached, err := plainLeg(w)
	if err != nil {
		return err
	}
	if err := compareLegs(cold, cached, "no-cache", "cached"); err != nil {
		return err
	}
	// Warm leg: within one walk, read twice at each step on the same store
	// generation; the second (cache-hit) read must be byte-identical to the
	// first (cold-fill) read.
	d := w.Ins.D.Clone()
	defer eval.InvalidateDB(d.ID())
	checkWarm := func(step string) error {
		first, err := evalText(w, d)
		if err != nil {
			return fmt.Errorf("%s: %w", step, err)
		}
		second, err := evalText(w, d)
		if err != nil {
			return fmt.Errorf("%s (warm read): %w", step, err)
		}
		if first != second {
			return fmt.Errorf("%s: warm cache read diverged:\ncold fill:\n%s\ncache hit:\n%s", step, first, second)
		}
		return nil
	}
	if err := checkWarm("step 0"); err != nil {
		return err
	}
	for i, e := range w.Ins.Edits {
		if _, err := d.Apply(e); err != nil {
			return fmt.Errorf("edit %d (%v): %w", i, e, err)
		}
		if err := checkWarm(fmt.Sprintf("after edit %d (%v)", i, e)); err != nil {
			return err
		}
	}
	return nil
}

// ---- ivm -------------------------------------------------------------------

// checkIVM registers a view.Engine as the store's maintainer (exactly as the
// cleaner's incremental mode does), forwards every changed edit, and compares
// maintained serving against cold evaluation at every step.
//
// Guardrail: aggregate workloads are outside this oracle's scope —
// agg.Eval enumerates assignments (eval.Eval), which the maintainer does not
// serve, so a maintained leg would silently compare cold against cold and
// assert nothing. The boundary is encoded as a test (TestAggregateIVMBoundary)
// and documented in docs/oracles/ivm.md.
func checkIVM(w *Workload) error {
	if err := skipIfRejected(w); err != nil {
		return err
	}
	if w.Agg != nil {
		return skipf("aggregates are served by assignment enumeration, not the maintainer")
	}
	cold, err := plainLeg(w, eval.NoCache())
	if err != nil {
		return err
	}
	var engine *view.Engine
	maintained, err := memLeg(w, func(d *db.Database) (func(), error) {
		engine = view.NewEngine(d)
		if err := engine.Ensure(w.Ins.Query); err != nil {
			return nil, fmt.Errorf("Ensure(%s): %w", w.Ins.Query, err)
		}
		if w.Ins.Union != nil {
			if err := engine.EnsureUnion(w.Ins.Union); err != nil {
				return nil, fmt.Errorf("EnsureUnion: %w", err)
			}
		}
		eval.SetMaintainer(d.ID(), engine)
		id := d.ID()
		return func() { eval.ClearMaintainer(id, engine) }, nil
	}, func(e db.Edit, changed bool) {
		if changed {
			engine.Apply(e)
		}
	})
	if err != nil {
		return err
	}
	return compareLegs(cold, maintained, "cold", "ivm-maintained")
}

// ---- store -----------------------------------------------------------------

// checkStore replays the workload over the disk-backed store and
// compares output against the in-memory leg at every step.
func checkStore(w *Workload) error {
	if err := skipIfRejected(w); err != nil {
		return err
	}
	mem, err := plainLeg(w)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "metamorph-disk-*")
	if err != nil {
		return fmt.Errorf("disk leg: temp dir: %w", err)
	}
	defer os.RemoveAll(dir)
	ds, err := db.OpenDisk(dir, w.Ins.Schema, 0)
	if err != nil {
		return fmt.Errorf("disk leg: open: %w", err)
	}
	defer ds.Close()
	defer eval.InvalidateDB(ds.ID())
	if _, err := db.Copy(ds, w.Ins.D); err != nil {
		return fmt.Errorf("disk leg: seeding: %w", err)
	}
	disk := make([]string, 0, len(w.Ins.Edits)+1)
	s, err := evalText(w, ds)
	if err != nil {
		return fmt.Errorf("disk leg: step 0: %w", err)
	}
	disk = append(disk, s)
	for i, e := range w.Ins.Edits {
		if _, err := ds.Apply(e); err != nil {
			return fmt.Errorf("disk leg: edit %d (%v): %w", i, e, err)
		}
		s, err := evalText(w, ds)
		if err != nil {
			return fmt.Errorf("disk leg: after edit %d (%v): %w", i, e, err)
		}
		disk = append(disk, s)
	}
	return compareLegs(mem, disk, "mem", "disk")
}

// ---- permute-union ---------------------------------------------------------

// checkPermuteUnion rotates the union's disjunct order — at the CQ level
// always, and at the SQL-text level for KindUnion workloads (re-rendering the
// statement with the arms rotated and re-parsing) — and requires byte-
// identical union results. ResultUnion output is deduplicated and sorted, so
// disjunct order must be invisible.
func checkPermuteUnion(w *Workload) error {
	if err := skipIfRejected(w); err != nil {
		return err
	}
	if w.Ins.Union == nil || len(w.Ins.Union.Disjuncts) < 2 {
		return skipf("fewer than two disjuncts")
	}
	base, err := plainLeg(w)
	if err != nil {
		return err
	}
	// CQ-level rotation.
	rot := w.Clone()
	ds := rot.Ins.Union.Disjuncts
	rot.Ins.Union.Disjuncts = append(ds[1:], ds[0])
	got, err := plainLeg(rot)
	if err != nil {
		return fmt.Errorf("cq-level rotation: %w", err)
	}
	if err := compareLegs(base, got, "original order", "rotated disjuncts"); err != nil {
		return fmt.Errorf("cq-level rotation: %w", err)
	}
	// SQL-text-level rotation: rotate the rendered arms and re-parse.
	if w.Kind == KindUnion && w.Spec != nil && len(w.Spec.arms) > 1 {
		sqlRot := w.Clone()
		arms := sqlRot.Spec.arms
		sqlRot.Spec.arms = append(arms[1:], arms[0])
		sqlRot.reparse()
		if sqlRot.ParseErr != nil {
			return fmt.Errorf("sql-level rotation: rotated statement rejected: %v\nsql: %s", sqlRot.ParseErr, sqlRot.SQL)
		}
		got, err := plainLeg(sqlRot)
		if err != nil {
			return fmt.Errorf("sql-level rotation: %w", err)
		}
		if err := compareLegs(base, got, "original order", "rotated arms"); err != nil {
			return fmt.Errorf("sql-level rotation (sql: %s): %w", sqlRot.SQL, err)
		}
	}
	return nil
}

// ---- permute-atoms ---------------------------------------------------------

// checkPermuteAtoms rotates the join/atom order — at the CQ level for every
// disjunct with at least two atoms, and at the SQL-text level by rotating the
// FROM list (remapping column references) — and requires byte-identical
// results.
//
// Guardrail: SELECT * statements are excluded from the SQL-text-level leg —
// the star's column order follows the FROM order by SQL semantics, so a
// FROM rotation legitimately permutes the output columns. The CQ-level leg
// (which fixes the head) still runs for them.
func checkPermuteAtoms(w *Workload) error {
	if err := skipIfRejected(w); err != nil {
		return err
	}
	base, err := plainLeg(w)
	if err != nil {
		return err
	}
	// CQ-level rotation of every multi-atom disjunct.
	rot := w.Clone()
	rotated := false
	for _, q := range cqQueries(rot) {
		if len(q.Atoms) < 2 {
			continue
		}
		q.Atoms = append(q.Atoms[1:], q.Atoms[0])
		rotated = true
	}
	if !rotated {
		return skipf("no disjunct has two or more atoms")
	}
	got, err := plainLeg(rot)
	if err != nil {
		return fmt.Errorf("cq-level atom rotation: %w", err)
	}
	if err := compareLegs(base, got, "original order", "rotated atoms"); err != nil {
		return fmt.Errorf("cq-level atom rotation: %w", err)
	}
	// SQL-text-level FROM rotation.
	if w.Spec == nil {
		return nil
	}
	sqlRot := w.Clone()
	any := false
	for _, arm := range sqlRot.Spec.arms {
		if len(arm.from) < 2 {
			continue
		}
		if arm.star {
			continue // star head order follows FROM order; see docs/oracles/permute-atoms.md
		}
		rotateArmFrom(arm, sqlRot.Spec.agg)
		any = true
	}
	if !any {
		return nil
	}
	sqlRot.reparse()
	if sqlRot.ParseErr != nil {
		return fmt.Errorf("sql-level FROM rotation: rotated statement rejected: %v\nsql: %s", sqlRot.ParseErr, sqlRot.SQL)
	}
	got, err = plainLeg(sqlRot)
	if err != nil {
		return fmt.Errorf("sql-level FROM rotation: %w", err)
	}
	if err := compareLegs(base, got, "original FROM order", "rotated FROM order"); err != nil {
		return fmt.Errorf("sql-level FROM rotation (sql: %s): %w", sqlRot.SQL, err)
	}
	return nil
}

// cqQueries returns the workload's distinct CQ objects (union disjuncts, or
// the single query).
func cqQueries(w *Workload) []*cq.Query {
	if w.Ins.Union != nil {
		return w.Ins.Union.Disjuncts
	}
	if w.Ins.Query != nil {
		return []*cq.Query{w.Ins.Query}
	}
	return nil
}

// rotateArmFrom rotates one arm's FROM list by one position and remaps every
// column reference's item index (select list, predicates, aggregate column).
func rotateArmFrom(arm *armSpec, ag *aggSpec) {
	n := len(arm.from)
	arm.from = append(arm.from[1:], arm.from[0])
	remap := func(c *colSel) {
		c.item = (c.item - 1 + n) % n
	}
	for i := range arm.cols {
		remap(&arm.cols[i])
	}
	for i := range arm.preds {
		remap(&arm.preds[i].left)
		if arm.preds[i].rightCol != nil {
			remap(arm.preds[i].rightCol)
		}
	}
	if ag != nil {
		remap(&ag.col)
	}
}
