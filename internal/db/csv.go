package db

import (
	"encoding/csv"
	"fmt"
	"io"
)

// LoadCSV reads CSV records (rel,v1,...,vk) into the store, validating each
// record against the schema. Records are appended to existing contents.
func LoadCSV(s Store, r io.Reader) error {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // arity varies by relation
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("db: reading csv: %w", err)
		}
		if len(rec) < 2 {
			return fmt.Errorf("db: csv record too short: %v", rec)
		}
		if _, err := s.InsertFact(NewFact(rec[0], rec[1:]...)); err != nil {
			return err
		}
	}
}
