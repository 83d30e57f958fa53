package study

import (
	"bytes"
	"fmt"
	"io"

	"napawine/internal/experiment"
	"napawine/internal/strictjson"
)

// This file is the result codec: the persistence contract for what a study
// computes, mirroring the strictness of the study and scenario codecs for
// what a study *is*. A Result travels as the study itself plus one cell
// record per grid point; a per-cell experiment.Summary travels standalone
// for the fleet's checkpoint spool and wire protocol. Both directions are
// strict — unknown fields are loud errors, a decoded Result must match its
// own study's grid cell-for-cell — and both round-trip bit-for-bit
// (Encode(Decode(x)) == x, pinned by test). Numbers survive exactly:
// encoding/json writes float64s in shortest-round-trip form, so a summary
// that crosses the codec aggregates into byte-identical tables.

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
// per-cell experiment Results never travel — they hold live configuration
// (profiles, callbacks) that has no file form — so EncodeResult rejects a
// Result carrying them rather than silently shedding data.
type resultJSON struct {
	Study *Study  `json:"study"`
	Seeds []int64 `json:"seeds"`
	Cells []Cell  `json:"cells"`
}

// EncodeResult writes a study result as indented JSON: the study plus one
// record per grid cell. The study part inherits the study codec's
// restrictions (a programmatic variant Mutate cannot be encoded), and a
// Result retaining full experiment results (WithFullResults) is rejected —
// both would otherwise write a file that decodes into less than what was
// encoded.
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

// DecodeResult parses one result file, strictly. Beyond field strictness,
// the decoded cells must be the study's own grid: same count, same
// coordinates at every index, seeds equal to the study's seed list. A
// result file can therefore never replay against a different (or edited)
// study without failing loudly.
func DecodeResult(rd io.Reader) (*Result, error) {
	var rj resultJSON
	if err := strictjson.Decode(rd, &rj); err != nil {
		return nil, fmt.Errorf("study: decode result: %w", err)
	}
	if rj.Study == nil {
		return nil, fmt.Errorf("study: decode result: missing study")
	}
	g, err := rj.Study.Resolve()
	if err != nil {
		return nil, err
	}
	if len(rj.Cells) != len(g.cells) {
		return nil, fmt.Errorf("study: decode %s result: %d cells over a %d-cell grid",
			rj.Study.Name, len(rj.Cells), len(g.cells))
	}
	for i, c := range rj.Cells {
		if c.Point != g.cells[i].Point {
			return nil, fmt.Errorf("study: decode %s result: cell %d does not match the study's grid (got %+v, want %+v)",
				rj.Study.Name, i, c.Point, g.cells[i].Point)
		}
	}
	seeds := rj.Study.SeedList()
	if len(rj.Seeds) != len(seeds) {
		return nil, fmt.Errorf("study: decode %s result: %d seeds, study lists %d", rj.Study.Name, len(rj.Seeds), len(seeds))
	}
	for i, s := range rj.Seeds {
		if s != seeds[i] {
			return nil, fmt.Errorf("study: decode %s result: seed %d is %d, study lists %d", rj.Study.Name, i, s, seeds[i])
		}
	}
	return &Result{Study: rj.Study, Seeds: rj.Seeds, Cells: rj.Cells}, nil
}

// DecodeResultBytes is DecodeResult over an in-memory result.
func DecodeResultBytes(b []byte) (*Result, error) { return DecodeResult(bytes.NewReader(b)) }
