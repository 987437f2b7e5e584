package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// Doc is a schema-versioned rsnsec.* document: a run report, bench
// record, attack report or delta report. Validate checks its schema
// identifier and structural invariants.
type Doc interface{ Validate() error }

// WriteDoc validates d and writes it as indented JSON with a trailing
// newline, so no tool emits a document its readers would refuse.
func WriteDoc(w io.Writer, d Doc) error {
	if err := d.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// ReadDoc decodes one document from r and validates it. Unknown fields
// are accepted, so a reader keeps reading documents a newer writer
// extended compatibly; the schema identifier guards incompatible ones.
func ReadDoc[T any, P interface {
	*T
	Doc
}](r io.Reader) (P, error) {
	d := P(new(T))
	if err := json.NewDecoder(r).Decode(d); err != nil {
		return nil, fmt.Errorf("parse %T: %w", d, err)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}
