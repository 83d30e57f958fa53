package study

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"napawine/internal/experiment"
)

// This file is the resolved grid's execution surface: what Run uses to
// execute every cell here, and what a distributed executor (internal/fleet)
// uses to run the same grid one cell at a time on different machines and
// still assemble the exact Result Run would have produced. Cells are
// addressed two ways — by grid index for the wire protocol, and by
// canonical JSON digest for the checkpoint spool, where a key must survive
// coordinator restarts and mean the same cell bit-for-bit.

// Canonical returns the study's canonical JSON encoding — the bytes a fleet
// coordinator serves to workers and stamps on its spool — together with
// their digest (see Digest), from one encoding pass.
func (st *Study) Canonical() (encoding []byte, digest string, err error) {
	var buf bytes.Buffer
	if err := Encode(&buf, st); err != nil {
		return nil, "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return buf.Bytes(), hex.EncodeToString(sum[:]), nil
}

// Digest returns the study's canonical content address: the SHA-256 of its
// canonical JSON encoding, in hex. Two Study values digest equal exactly
// when they encode equal, so a spool keyed by it can never resume one study
// with another's cells.
func (st *Study) Digest() (string, error) {
	_, digest, err := st.Canonical()
	return digest, err
}

// cellKeyDoc is the spool key's wire format: the canonical JSON document a
// cell digest hashes — the owning study's digest plus the cell's full grid
// coordinate. Field order is fixed by the struct, values are scalars, so
// the encoding — and hence the digest — is deterministic across machines
// and Go releases.
type cellKeyDoc struct {
	Study      string `json:"study_sha256"`
	Index      int    `json:"index"`
	App        string `json:"app"`
	Strategy   string `json:"strategy"`
	Scenario   string `json:"scenario"`
	Variant    string `json:"variant"`
	QueueDepth int    `json:"queue_depth"`
	Seed       int64  `json:"seed"`
}

// CellDigest returns the canonical digest of one grid cell under the study
// identified by studyDigest (from Study.Digest): the SHA-256 of the cell's
// canonical JSON key document, in hex. It is the checkpoint spool's file
// key — stable across runs, unique per cell, and bound to the exact study
// encoding, so a resumed coordinator skips a finished cell only when every
// knob that shaped it is bit-identical.
func CellDigest(studyDigest string, p Point) string {
	doc, err := json.Marshal(cellKeyDoc{
		Study:      studyDigest,
		Index:      p.Index,
		App:        p.App,
		Strategy:   p.Strategy,
		Scenario:   p.Scenario,
		Variant:    p.Variant,
		QueueDepth: p.QueueDepth,
		Seed:       p.Seed,
	})
	if err != nil {
		// cellKeyDoc is scalars only; Marshal cannot fail.
		panic(fmt.Sprintf("study: cell digest marshal: %v", err))
	}
	sum := sha256.Sum256(doc)
	return hex.EncodeToString(sum[:])
}

// info is the one place a cell becomes a RunInfo, so Run's callbacks and
// Infos' pre-enumeration can never disagree about a cell's identity.
func (g *Grid) info(c cell) RunInfo { return RunInfo{Point: c.Point, Total: len(g.cells)} }

// Infos enumerates the grid in execution order: the RunInfo values, Index
// and Total included, that observers of a run over it receive.
func (g *Grid) Infos() []RunInfo {
	infos := make([]RunInfo, len(g.cells))
	for i, c := range g.cells {
		infos[i] = g.info(c)
	}
	return infos
}

// CellDigests is the per-index table of CellDigest values under the study
// identified by studyDigest.
func (g *Grid) CellDigests(studyDigest string) []string {
	out := make([]string, len(g.cells))
	for i, c := range g.cells {
		out[i] = CellDigest(studyDigest, c.Point)
	}
	return out
}

// run executes the cell: the one knob-for-knob construction every executor
// shares, so a cell computed by a fleet worker is byte-identical to the
// same cell computed by Run (the fleet parity tests pin this). onSample
// receives the cell's time-series buckets; only scenario cells sample any.
// The error is the cell's own, without its label, and a panic inside the
// cell (in onSample, say) comes back as that error, so every executor fails
// a cell the same way.
func (c cell) run(ctx context.Context, st *Study, onSample func(experiment.SeriesSample)) (r *experiment.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			r, err = nil, fmt.Errorf("panic: %v", p)
		}
	}()
	cfg, err := c.config(st)
	if err != nil {
		return nil, err
	}
	cfg.OnSample = onSample
	return experiment.RunCtx(ctx, cfg)
}

// RunCell executes exactly one grid cell, by index, and returns its bounded
// summary — the unit of work a fleet worker leases. onSample, when
// non-nil, streams the cell's time-series buckets exactly as Run's
// Observer.OnSample would. A failed cell, by error or panic, returns the
// cell's own error without its label: the fleet coordinator names the cell
// when it forms the study error, as Run does.
func (g *Grid) RunCell(ctx context.Context, index int, onSample func(experiment.SeriesSample)) (experiment.Summary, error) {
	if index < 0 || index >= len(g.cells) {
		return experiment.Summary{}, fmt.Errorf("study %s: cell index %d out of range [0,%d)", g.st.Name, index, len(g.cells))
	}
	r, err := g.cells[index].run(ctx, g.st, onSample)
	if err != nil {
		return experiment.Summary{}, err
	}
	return r.Summary, nil
}

// Result assembles a Result from cell summaries in grid order — the fan-in
// counterpart of RunCell, and what Run itself ends with, so a Result
// assembled from a fleet's summaries and a Run Result render identical
// tables given identical summaries. sums and done must both be one entry
// per cell; done[i] reports whether cell i actually ran (an aborted
// distributed run assembles its partial result exactly like a cancelled
// local one: un-run cells carry a zero Summary and Done=false).
func (g *Grid) Result(sums []experiment.Summary, done []bool) (*Result, error) {
	if len(sums) != len(g.cells) || len(done) != len(g.cells) {
		return nil, fmt.Errorf("study %s: assembling %d summaries / %d done flags over a %d-cell grid",
			g.st.Name, len(sums), len(done), len(g.cells))
	}
	res := &Result{Study: g.st, Seeds: g.st.SeedList(), Cells: make([]Cell, len(g.cells))}
	for i, c := range g.cells {
		res.Cells[i] = Cell{Point: c.Point, Done: done[i], Summary: sums[i]}
	}
	return res, nil
}
