// Command qoco is the interactive QOCO prototype (Figure 5's architecture
// with a human playing the oracle crowd): it loads a database, evaluates a
// query, and cleans the database by asking the user boolean and completion
// questions on stdin.
//
// Usage:
//
//	qoco -dataset figure1                          # paper's Figure 1 sample
//	qoco -dataset figure1 -oracle perfect          # simulated oracle demo
//	qoco -dataset soccer -query 'q(x) :- Teams(x, EU)'
//	qoco -data facts.csv -schemaspec 'R(a,b);S(b,c)' -query '(x) :- R(x,y)'
//
// With -oracle perfect the built-in ground truth answers all questions (only
// available for the built-in datasets); the default human oracle prompts on
// stdin.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/crowd"
	"repro/internal/dataset"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/schema"
	"repro/internal/sqlfe"
	"repro/internal/storecfg"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "qoco:", err)
		os.Exit(1)
	}
}

func run() error {
	ds := flag.String("dataset", "figure1", "built-in dataset: figure1, soccer, dbgroup (ignored with -data)")
	dataFile := flag.String("data", "", "CSV file of facts (rel,v1,...,vk) to clean instead of a built-in dataset")
	schemaSpec := flag.String("schemaspec", "", "schema for -data: 'R(a,b);S(b,c)'")
	queryText := flag.String("query", "", "query to clean, in Datalog-style CQ syntax (defaults per dataset)")
	sqlText := flag.String("sql", "", "query to clean, as a SELECT statement (alternative to -query)")
	oracleKind := flag.String("oracle", "human", "oracle: human (stdin) or perfect (built-in ground truth)")
	transcript := flag.Bool("transcript", false, "log every crowd question and answer to stderr")
	dbinfo := flag.Bool("dbinfo", false, "print the fact store's stats (backend, relations, disk bytes, garbage ratio) as JSON and exit")
	compact := flag.Bool("compact", false, "compact the disk store's log (drop dead records), print the result as JSON, and exit")
	ivm := flag.Bool("ivm", true, "maintained (incremental view maintenance) evaluation during cleaning; output is identical either way (see docs/EVAL.md)")
	scfg := storecfg.Register(flag.CommandLine)
	flag.Parse()

	seed, dg, defQuery, err := loadDatabase(*ds, *dataFile, *schemaSpec)
	if err != nil {
		return err
	}
	d, err := scfg.Materialize(seed)
	if err != nil {
		return err
	}
	defer d.Close()
	if *dbinfo {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(d.Stats())
	}
	if *compact {
		cds, ok := d.(*db.DiskStore)
		if !ok {
			return fmt.Errorf("-compact requires the disk backend (-store disk)")
		}
		res, err := cds.Compact(0)
		if err != nil {
			return fmt.Errorf("compacting store: %w", err)
		}
		if err := cds.Sync(); err != nil {
			return err
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}
	var q *cq.Query
	switch {
	case *queryText != "" && *sqlText != "":
		return fmt.Errorf("pass either -query or -sql, not both")
	case *sqlText != "":
		if q, err = sqlfe.Parse(d.Schema(), *sqlText); err != nil {
			return err
		}
	default:
		qText := *queryText
		if qText == "" {
			qText = defQuery
		}
		if qText == "" {
			return fmt.Errorf("no query given: pass -query or -sql")
		}
		if q, err = cq.Parse(qText); err != nil {
			return err
		}
		if err := q.Validate(d.Schema()); err != nil {
			return err
		}
	}

	var oracle crowd.Oracle
	switch *oracleKind {
	case "human":
		oracle = crowd.NewInteractive(os.Stdin, os.Stdout)
	case "perfect":
		if dg == nil {
			return fmt.Errorf("-oracle perfect requires a built-in dataset with ground truth")
		}
		oracle = crowd.NewPerfect(dg)
	default:
		return fmt.Errorf("unknown oracle %q", *oracleKind)
	}
	if *transcript {
		oracle = crowd.NewTranscript(oracle, os.Stderr)
	}

	fmt.Printf("Query: %s\n", q)
	fmt.Printf("Initial result:\n")
	for _, t := range eval.Result(q, d) {
		fmt.Printf("  %s\n", t)
	}

	cleaner := core.New(d, oracle, core.Config{Incremental: *ivm})
	report, err := cleaner.Clean(context.Background(), q)
	if err != nil {
		return err
	}

	fmt.Printf("\nClean result:\n")
	for _, t := range eval.Result(q, d) {
		fmt.Printf("  %s\n", t)
	}
	fmt.Printf("\nWrong answers removed:  %d\n", report.WrongAnswers)
	fmt.Printf("Missing answers added:  %d\n", report.MissingAnswers)
	fmt.Printf("Database edits:\n")
	for _, e := range report.Edits {
		fmt.Printf("  %s\n", e)
	}
	s := report.Crowd
	fmt.Printf("Crowd work: %d closed answers, %d variables filled (total %d)\n",
		s.Closed(), s.VariablesFilled, s.Total())
	return d.Sync()
}

// loadDatabase resolves the dataset flags into a dirty database, an optional
// ground truth, and a default query.
func loadDatabase(ds, dataFile, schemaSpec string) (d, dg *db.Database, defQuery string, err error) {
	if dataFile != "" {
		if schemaSpec == "" {
			return nil, nil, "", fmt.Errorf("-data requires -schemaspec")
		}
		s, err := parseSchemaSpec(schemaSpec)
		if err != nil {
			return nil, nil, "", err
		}
		d := db.New(s)
		f, err := os.Open(dataFile)
		if err != nil {
			return nil, nil, "", err
		}
		defer f.Close()
		if err := db.LoadCSV(d, f); err != nil {
			return nil, nil, "", err
		}
		return d, nil, "", nil
	}
	switch ds {
	case "figure1":
		d, dg := dataset.Figure1()
		return d, dg, dataset.IntroQ1().String(), nil
	case "soccer":
		dg := dataset.Soccer(dataset.SoccerOpts{})
		return dg.Clone(), dg, dataset.SoccerQ1().String(), nil
	case "dbgroup":
		dg := dataset.DBGroup()
		return dg.Clone(), dg, dataset.DBGroupQ2().String(), nil
	default:
		return nil, nil, "", fmt.Errorf("unknown dataset %q", ds)
	}
}

// parseSchemaSpec parses "R(a,b);S(b,c)" into a schema.
func parseSchemaSpec(spec string) (*schema.Schema, error) {
	s := &schema.Schema{}
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		open := strings.IndexByte(part, '(')
		if open <= 0 || !strings.HasSuffix(part, ")") {
			return nil, fmt.Errorf("bad relation spec %q (want R(a,b))", part)
		}
		rel := schema.Relation{Name: strings.TrimSpace(part[:open])}
		for _, attr := range strings.Split(part[open+1:len(part)-1], ",") {
			rel.Attrs = append(rel.Attrs, strings.TrimSpace(attr))
		}
		if err := s.Add(rel); err != nil {
			return nil, err
		}
	}
	if s.Len() == 0 {
		return nil, fmt.Errorf("empty schema spec")
	}
	return s, nil
}
