package study

import (
	"bytes"
	"fmt"
	"io"

	"napawine/internal/experiment"
	"napawine/internal/strictjson"
)

// This file is the result codec. EncodeResult writes a Result as the study
// itself plus one cell record per grid point; its bytes are what the benchmark's
// study-grid and fleet-grid workloads digest (pinned by
// TestResultEncodingIsPinned). Nothing reads a
// result file back. A per-cell experiment.Summary has a standalone codec,
// strict in the decoding direction (unknown fields are loud errors) and
// bit-exact both ways: encoding/json writes float64s in shortest-round-trip
// form, so a summary that crosses it aggregates into byte-identical tables.

// EncodeSummary writes one per-run summary as indented JSON.
func EncodeSummary(w io.Writer, s *experiment.Summary) error {
	if s == nil {
		return fmt.Errorf("study: encode nil summary")
	}
	if err := strictjson.Write(w, s); err != nil {
		return fmt.Errorf("study: encode summary: %w", err)
	}
	return nil
}

// DecodeSummary parses one per-run summary, strictly: unknown fields and
// trailing data are errors.
func DecodeSummary(r io.Reader) (*experiment.Summary, error) {
	var s experiment.Summary
	if err := strictjson.Decode(r, &s); err != nil {
		return nil, fmt.Errorf("study: decode summary: %w", err)
	}
	return &s, nil
}

// DecodeSummaryBytes is DecodeSummary over an in-memory summary.
func DecodeSummaryBytes(b []byte) (*experiment.Summary, error) {
	return DecodeSummary(bytes.NewReader(b))
}

// resultJSON is the file form of a Result: the study it answers (in the
// study codec's own schema) plus the executed cells in grid order. Full
// per-cell experiment Results have no file form — they hold live
// configuration (profiles, callbacks) — so EncodeResult rejects a Result
// carrying them rather than silently shedding data.
type resultJSON struct {
	Study *Study  `json:"study"`
	Seeds []int64 `json:"seeds"`
	Cells []Cell  `json:"cells"`
}

// EncodeResult writes a study result as indented JSON: the study plus one
// record per grid cell. The study part inherits the study codec's
// restrictions (a programmatic variant Mutate cannot be encoded), and a
// Result retaining full experiment results (WithFullResults) is rejected —
// both would otherwise write a file that holds less than the Result.
func EncodeResult(w io.Writer, r *Result) error {
	if r == nil {
		return fmt.Errorf("study: encode nil result")
	}
	if r.Study == nil {
		return fmt.Errorf("study: encode result without its study")
	}
	for _, f := range r.Full {
		if f != nil {
			return fmt.Errorf("study: encode %s result: full experiment results have no file form (drop WithFullResults)",
				r.Study.Name)
		}
	}
	// Reuse the study codec's Mutate rejection (and any future rule) rather
	// than duplicating it here.
	if err := Encode(io.Discard, r.Study); err != nil {
		return err
	}
	if err := strictjson.Write(w, resultJSON{Study: r.Study, Seeds: r.Seeds, Cells: r.Cells}); err != nil {
		return fmt.Errorf("study: encode %s result: %w", r.Study.Name, err)
	}
	return nil
}
