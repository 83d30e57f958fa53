package overlay

import (
	"testing"

	"napawine/internal/units"
)

// The fuzzers and checkEverySecond call each packed structure's check only
// on structures the code built, where every check passes. These tests
// break each structure by hand, one rule at a time, and require its check
// to say so: a check that passes everything would pass them all.

func TestRateMemoCheckFindsBrokenRuns(t *testing.T) {
	var m rateMemo
	if err := m.check(); err != nil {
		t.Errorf("an empty memory: %v", err)
	}
	m.set(0, 3, units.Kbps)
	m.set(0, 1, units.Kbps)
	if err := m.check(); err != nil {
		t.Errorf("a memory set in any order: %v", err)
	}
	for name, run := range map[string][]rateEntry{
		"a repeated id":     {{1, 1000}, {1, 1_000_000}},
		"ids out of order":  {{3, 1000}, {1, 1_000_000}},
		"a late repetition": {{1, 1000}, {2, 1000}, {2, 1000}},
	} {
		if err := (rateMemo{&run}).check(); err == nil {
			t.Errorf("%s: check passed %v", name, run)
		}
	}
}

func TestInflightCheckFindsBrokenSets(t *testing.T) {
	s := inflightSet{{id: 4}, {id: 2}, {id: 9}}
	if err := s.check(3); err != nil {
		t.Errorf("three requests under a bound of 3: %v", err)
	}
	if err := s.check(2); err == nil {
		t.Error("check passed three requests under a bound of 2")
	}
	if err := (inflightSet{{id: 4}, {id: 2}, {id: 4}}).check(3); err == nil {
		t.Error("check passed chunk 4 requested twice")
	}
}

func TestNeighborCheckFindsBrokenRings(t *testing.T) {
	const limit = 200
	ring := func(n int) *neighborRing {
		r := new(neighborRing)
		for id := range PeerID(n) {
			r.remember(3*id+1, limit)
		}
		if err := r.check(limit); err != nil {
			t.Fatalf("a ring of %d built by remember: %v", n, err)
		}
		return r
	}
	if err := new(neighborRing).check(limit); err != nil {
		t.Errorf("an empty ring: %v", err)
	}
	ring(5) // below neighborFilterMin: no filter
	for name, brk := range map[string]func(r *neighborRing){
		"more ids than the bound":      func(r *neighborRing) { r.n = limit + 1 },
		"the oldest slot past the end": func(r *neighborRing) { r.head = r.n },
		"a negative oldest slot":       func(r *neighborRing) { r.head = -1 },
		"no filter at 150 ids":         func(r *neighborRing) { r.filter = nil },
		"a rebuild overdue":            func(r *neighborRing) { r.stale = limit / 4 },
		"a bit set for no id": func(r *neighborRing) {
			word, mask := neighborFilterBit(3) // ids are 1, 4, 7, ...
			r.filter[word] |= mask
		},
		"a listed id without a bit": func(r *neighborRing) {
			word, mask := neighborFilterBit(r.at(7))
			r.filter[word] &^= mask
		},
	} {
		r := ring(150)
		brk(r)
		if err := r.check(limit); err == nil {
			t.Errorf("%s: check passed", name)
		}
	}
}

func TestPartnerCheckFindsBrokenTables(t *testing.T) {
	w := buildWorld(t, 3, 6, 0)
	nd, others := w.peers[0], w.peers[1:] // others' ids ascend
	fill := func() {
		nd.partners = make([]partner, 0, nd.Profile.MaxPartners)
		for _, o := range others {
			nd.partners = append(nd.partners, partner{key: partnerKey(o.ID)})
		}
	}
	fill()
	if err := nd.checkPartners(); err != nil {
		t.Fatalf("a table in id order: %v", err)
	}
	for name, brk := range map[string]func(){
		"ids out of order": func() { nd.partners[1], nd.partners[2] = nd.partners[2], nd.partners[1] },
		"a repeated id":    func() { nd.partners[2] = nd.partners[1] },
		"a record past the table's end": func() {
			nd.partners[:len(nd.partners)+1][len(nd.partners)] = partner{key: partnerKey(99)}
		},
		"room for too few":               func() { nd.partners = append(make([]partner, 0, 8), nd.partners...) },
		"a congestion table with it off": func() { nd.cong = new([]partnerCong) },
	} {
		fill()
		nd.cong = nil
		brk()
		if err := nd.checkPartners(); err == nil {
			t.Errorf("%s: check passed", name)
		}
	}
}
