package fleet

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"napawine/internal/experiment"
	"napawine/internal/strictjson"
)

// The checkpoint spool is a directory of completed cells keyed by their
// canonical JSON digests:
//
//	DIR/study.json       the study being executed (study codec encoding)
//	DIR/addr             the coordinator's bound address (rewritten on start)
//	DIR/cells/<digest>.json  one record per completed cell
//
// study.json pins the spool to one exact study: a coordinator reopening the
// spool with a different study (any knob changed) fails loudly instead of
// resuming the wrong grid, because the cell digests are derived from the
// study digest and would never match. Records are written via temp-file +
// rename so a crash mid-write can never leave a half record that a resume
// would trust.

// cellRecord is one checkpointed cell: its digest (also its file name), its
// grid coordinate, the worker that computed it, and its summary.
type cellRecord struct {
	Digest string `json:"digest"`
	Index  int    `json:"index"`
	Label  string `json:"label"`
	Worker string `json:"worker"`

	Summary experiment.Summary `json:"summary"`
}

// spool is an open checkpoint directory.
type spool struct {
	dir string
}

// openSpool creates or reopens the spool at dir for the study encoded as
// studyJSON. A fresh directory is stamped with study.json; an existing one
// must carry byte-identical study bytes — anything else is a loud error,
// never a silent resume of a different study.
func openSpool(dir string, studyJSON []byte) (*spool, error) {
	if err := os.MkdirAll(filepath.Join(dir, "cells"), 0o755); err != nil {
		return nil, fmt.Errorf("fleet: spool: %w", err)
	}
	stPath := filepath.Join(dir, "study.json")
	existing, err := os.ReadFile(stPath)
	switch {
	case err == nil:
		if !bytes.Equal(existing, studyJSON) {
			return nil, fmt.Errorf("fleet: spool %s holds a different study (study.json differs); point -resume at a fresh directory or rerun the original spec", dir)
		}
	case os.IsNotExist(err):
		if err := writeAtomic(stPath, studyJSON); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("fleet: spool: %w", err)
	}
	return &spool{dir: dir}, nil
}

// writeAddr records the coordinator's bound address, so scripts (and the CI
// smoke) can join workers to a coordinator that picked its own port.
func (s *spool) writeAddr(addr string) error {
	return writeAtomic(filepath.Join(s.dir, "addr"), []byte(addr+"\n"))
}

// load reads every checkpointed cell, verifying each record against the
// study's own cell digests: the file name, the recorded digest, and the
// digest derived from the record's index must all agree. digests is the
// per-index cell digest table. A record that matches no cell of this study
// is corruption, reported loudly.
func (s *spool) load(digests []string) (map[int]cellRecord, error) {
	entries, err := os.ReadDir(filepath.Join(s.dir, "cells"))
	if err != nil {
		return nil, fmt.Errorf("fleet: spool: %w", err)
	}
	byDigest := make(map[string]int, len(digests))
	for i, d := range digests {
		byDigest[d] = i
	}
	recs := make(map[int]cellRecord)
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") {
			return nil, fmt.Errorf("fleet: spool: unexpected entry %s in cells/", name)
		}
		rec, err := readRecord(filepath.Join(s.dir, "cells", name))
		if err != nil {
			return nil, err
		}
		digest := strings.TrimSuffix(name, ".json")
		idx, known := byDigest[digest]
		if !known || rec.Digest != digest || rec.Index != idx {
			return nil, fmt.Errorf("fleet: spool: record %s does not belong to this study's grid", name)
		}
		recs[idx] = rec
	}
	return recs, nil
}

// put checkpoints one completed cell.
func (s *spool) put(rec cellRecord) error {
	var buf bytes.Buffer
	if err := strictjson.Write(&buf, rec); err != nil {
		return fmt.Errorf("fleet: spool: %w", err)
	}
	return writeAtomic(filepath.Join(s.dir, "cells", rec.Digest+".json"), buf.Bytes())
}

// readRecord parses one cell record, strictly.
func readRecord(path string) (cellRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return cellRecord{}, fmt.Errorf("fleet: spool: %w", err)
	}
	defer f.Close()
	var rec cellRecord
	if err := strictjson.Decode(f, &rec); err != nil {
		return cellRecord{}, fmt.Errorf("fleet: spool: %s: %w", path, err)
	}
	return rec, nil
}

// writeAtomic writes b to path via a temp file and rename, so readers (and
// crash-interrupted writers) only ever observe whole files.
func writeAtomic(path string, b []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return fmt.Errorf("fleet: spool: %w", err)
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("fleet: spool: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("fleet: spool: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("fleet: spool: %w", err)
	}
	return nil
}
