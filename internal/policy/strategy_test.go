package policy

import (
	"cmp"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// refsFixture builds an ascending window of chunks with varied holder
// counts, urgent prefix first — the shape the scheduler hands a strategy.
func refsFixture() []ChunkRef {
	return []ChunkRef{
		{ID: 10, Holders: 5, Urgent: true},
		{ID: 11, Holders: 1, Urgent: true},
		{ID: 12, Holders: 3, Urgent: true},
		{ID: 13, Holders: 1, Urgent: false},
		{ID: 14, Holders: 0, Urgent: false},
		{ID: 15, Holders: 3, Urgent: false},
		{ID: 16, Holders: 2, Urgent: false},
	}
}

// byName resolves a registered or hybrid name, failing the test on error.
func byName(t testing.TB, name string) ChunkStrategy {
	t.Helper()
	s, err := StrategyByName(name)
	if err != nil {
		t.Fatalf("StrategyByName(%q): %v", name, err)
	}
	return s
}

func ids(refs []ChunkRef) []int64 {
	out := make([]int64, len(refs))
	for i, r := range refs {
		out[i] = r.ID
	}
	return out
}

func TestDeadlineFirstOrdersAscending(t *testing.T) {
	refs := refsFixture()
	// Scramble first: the strategy must not rely on pre-sorted input.
	refs[0], refs[5] = refs[5], refs[0]
	byName(t, "deadline").Order(rand.New(rand.NewSource(1)), refs)
	want := []int64{10, 11, 12, 13, 14, 15, 16}
	if !reflect.DeepEqual(ids(refs), want) {
		t.Errorf("deadline order = %v, want %v", ids(refs), want)
	}
}

func TestLatestUsefulOrdersDescending(t *testing.T) {
	refs := refsFixture()
	byName(t, "latest-useful").Order(rand.New(rand.NewSource(1)), refs)
	want := []int64{16, 15, 14, 13, 12, 11, 10}
	if !reflect.DeepEqual(ids(refs), want) {
		t.Errorf("latest-useful order = %v, want %v", ids(refs), want)
	}
}

func TestRarestFirstOrdersByHoldersThenID(t *testing.T) {
	refs := refsFixture()
	rarest := byName(t, "rarest")
	rarest.Order(rand.New(rand.NewSource(1)), refs)
	// Holders: 14→0, 11→1, 13→1 (tie: lower id first), 16→2, 12→3, 15→3, 10→5.
	want := []int64{14, 11, 13, 16, 12, 15, 10}
	if !reflect.DeepEqual(ids(refs), want) {
		t.Errorf("rarest order = %v, want %v", ids(refs), want)
	}
	if !rarest.NeedHolders() {
		t.Error("rarest must request holder counts")
	}
	for _, name := range []string{"urgent-random", "latest-useful", "deadline"} {
		if byName(t, name).NeedHolders() {
			t.Errorf("%s claims to need holder counts", name)
		}
	}
}

func TestUrgentRandomKeepsUrgentPrefixShufflesTail(t *testing.T) {
	refs := refsFixture()
	byName(t, "urgent-random").Order(rand.New(rand.NewSource(7)), refs)
	if got, want := ids(refs[:3]), []int64{10, 11, 12}; !reflect.DeepEqual(got, want) {
		t.Errorf("urgent prefix reordered: %v, want %v", got, want)
	}
	tail := map[int64]bool{}
	for _, r := range refs[3:] {
		if r.Urgent {
			t.Errorf("urgent chunk %d leaked into the shuffled tail", r.ID)
		}
		tail[r.ID] = true
	}
	for _, id := range []int64{13, 14, 15, 16} {
		if !tail[id] {
			t.Errorf("tail lost chunk %d", id)
		}
	}
}

// TestStrategyOrderDeterministic is the cross-worker reproducibility
// contract: identical refs and RNG state must give identical orders, and
// the sorted strategies must not touch the RNG at all (a draw would
// desynchronize every later selection in the run).
func TestStrategyOrderDeterministic(t *testing.T) {
	for _, name := range StrategyNames() {
		s := byName(t, name)
		a, b := refsFixture(), refsFixture()
		s.Order(rand.New(rand.NewSource(42)), a)
		s.Order(rand.New(rand.NewSource(42)), b)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed, different order: %v vs %v", name, ids(a), ids(b))
		}
	}
	// The three sorted strategies must consume zero draws: a run under a
	// different RNG state yields the same order.
	for _, name := range []string{"latest-useful", "rarest", "deadline"} {
		s := byName(t, name)
		a, b := refsFixture(), refsFixture()
		s.Order(rand.New(rand.NewSource(1)), a)
		s.Order(rand.New(rand.NewSource(999)), b)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s consumed randomness: %v vs %v", name, ids(a), ids(b))
		}
		rng := rand.New(rand.NewSource(5))
		before := rng.Int63()
		rng = rand.New(rand.NewSource(5))
		s.Order(rng, refsFixture())
		if rng.Int63() != before {
			t.Errorf("%s advanced the RNG", name)
		}
	}
}

// TestStrategyRegistry pins each registered name to the Hybrid member its
// documentation names, and the default to urgent-random.
func TestStrategyRegistry(t *testing.T) {
	members := map[string]Hybrid{
		"urgent-random": {UrgentFrac: 1},
		"deadline":      {DeadlineBias: 1},
		"latest-useful": {DeadlineBias: -1},
		"rarest":        {RarestWeight: 1},
	}
	names := StrategyNames()
	if want := []string{"urgent-random", "deadline", "latest-useful", "rarest"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("StrategyNames = %v, want %v", names, want)
	}
	for _, name := range names {
		if s := byName(t, name); s != members[name] {
			t.Errorf("registry name %q resolves to %+v, want %+v", name, s, members[name])
		}
		if StrategyDescription(name) == "" {
			t.Errorf("strategy %q has no description", name)
		}
	}
	if s := DefaultStrategy(); s != members["urgent-random"] {
		t.Errorf("DefaultStrategy() = %+v, want urgent-random's member", s)
	}
	if s, err := StrategyByName(""); err != nil || s != DefaultStrategy() {
		t.Errorf("empty name must select the default, got %v, %v", s, err)
	}
	if _, err := StrategyByName("newest"); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestParseHybrid(t *testing.T) {
	good := []struct {
		name string
		want Hybrid
	}{
		{"hybrid", Hybrid{}},
		{"hybrid:u=0.4", Hybrid{UrgentFrac: 0.4}},
		{"hybrid:u=0.4,r=1,d=-0.5,a=2", Hybrid{UrgentFrac: 0.4, RarestWeight: 1, DeadlineBias: -0.5, AwareWeight: 2}},
		{"hybrid:d=1", Hybrid{DeadlineBias: 1}},
	}
	for _, c := range good {
		h, err := ParseHybrid(c.name)
		if err != nil {
			t.Errorf("ParseHybrid(%q): %v", c.name, err)
			continue
		}
		if h != c.want {
			t.Errorf("ParseHybrid(%q) = %+v, want %+v", c.name, h, c.want)
		}
		// Canonical name round-trips through the parser.
		back, err := ParseHybrid(h.Name())
		if err != nil || back != h {
			t.Errorf("round-trip %q -> %q -> %+v (%v)", c.name, h.Name(), back, err)
		}
	}
	bad := []string{
		"hybrid:",        // empty parameter list
		"hybrid:u",       // missing value
		"hybrid:u=",      // empty value
		"hybrid:=1",      // empty key
		"hybrid:x=1",     // unknown key
		"hybrid:u=2",     // urgent fraction out of [0,1]
		"hybrid:u=-0.1",  // urgent fraction out of [0,1]
		"hybrid:r=-1",    // negative rarest weight
		"hybrid:a=-1",    // negative awareness
		"hybrid:d=NaN",   // non-finite
		"hybrid:d=+Inf",  // non-finite
		"hybrid:u=x",     // unparseable value
		"hybrid:u=1,u=1", // duplicate key
		"hybridx",        // junk after the family name
		"rarest",         // not a hybrid name at all
	}
	for _, name := range bad {
		if _, err := ParseHybrid(name); err == nil {
			t.Errorf("ParseHybrid(%q) accepted", name)
		}
	}
}

// TestStrategyFamilyDeterministic is the determinism contract over the
// whole strategy space, registered and parameterized: same input and RNG
// state → same order and same draw count, and NeedHolders=false strategies
// must be blind to Holders (the scheduler skips counting them).
func TestStrategyFamilyDeterministic(t *testing.T) {
	names := append(StrategyNames(),
		"hybrid", "hybrid:u=0.4", "hybrid:u=0.4,r=1", "hybrid:u=0.4,r=1,a=1",
		"hybrid:d=-1", "hybrid:u=0.3,d=0.7", "hybrid:r=2,d=0.25,a=0.5")
	for _, name := range names {
		s, err := StrategyByName(name)
		if err != nil {
			t.Fatalf("StrategyByName(%q): %v", name, err)
		}
		a, b := refsFixture(), refsFixture()
		ra, rb := rand.New(rand.NewSource(42)), rand.New(rand.NewSource(42))
		s.Order(ra, a)
		s.Order(rb, b)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed, different order: %v vs %v", name, ids(a), ids(b))
		}
		if ra.Int63() != rb.Int63() {
			t.Errorf("%s: same seed, different draw count", name)
		}
		if !s.NeedHolders() {
			// Zeroing every holder count must not change the order: a
			// strategy that declares itself holder-blind and then reads
			// Holders would silently break the scheduler's skip.
			c := refsFixture()
			for i := range c {
				c[i].Holders = 0
			}
			s.Order(rand.New(rand.NewSource(42)), c)
			if !reflect.DeepEqual(ids(a), ids(c)) {
				t.Errorf("%s: NeedHolders=false but order depends on Holders: %v vs %v", name, ids(a), ids(c))
			}
		}
	}
}

func TestStrategyByNameHybrid(t *testing.T) {
	s, err := StrategyByName("hybrid:u=0.4,r=1,a=1")
	if err != nil {
		t.Fatalf("StrategyByName: %v", err)
	}
	h, ok := s.(Hybrid)
	if !ok {
		t.Fatalf("StrategyByName returned %T, want Hybrid", s)
	}
	if h != (Hybrid{UrgentFrac: 0.4, RarestWeight: 1, AwareWeight: 1}) {
		t.Errorf("parsed member = %+v", h)
	}
	if got := Awareness(s); got != 1 {
		t.Errorf("Awareness = %v, want 1", got)
	}
	for _, name := range StrategyNames() {
		if Awareness(byName(t, name)) != 0 {
			t.Errorf("registered %s reports awareness", name)
		}
	}
	if desc := StrategyDescription("hybrid:u=0.4,r=1,a=1"); desc == "" {
		t.Error("valid hybrid has no description")
	}
	if desc := StrategyDescription("hybrid:x=1"); desc != "" {
		t.Errorf("invalid hybrid has description %q", desc)
	}
	if _, err := StrategyByName("hybrid:x=1"); err == nil {
		t.Error("bad hybrid name accepted")
	}
}

func TestLossPenalty(t *testing.T) {
	if got := LossPenalty(0.5, 0); got != 1 {
		t.Errorf("agnostic penalty = %v, want 1", got)
	}
	if got := LossPenalty(0, 1); got != 1 {
		t.Errorf("lossless penalty = %v, want 1", got)
	}
	if got := LossPenalty(0.5, 1); got != 0.25 {
		t.Errorf("LossPenalty(0.5,1) = %v, want 0.25", got)
	}
	// The floor keeps a fully lossy partner re-probeable.
	if got, want := LossPenalty(1, 1), 0.05*0.05; math.Abs(got-want) > 1e-12 {
		t.Errorf("floored penalty = %v, want %v", got, want)
	}
	// Higher awareness discounts harder.
	if LossPenalty(0.3, 2) >= LossPenalty(0.3, 1) {
		t.Error("awareness 2 should discount more than awareness 1")
	}
}

// FuzzStrategyByName holds the strategy grammar to its contract: no name
// panics the resolver; an accepted name's canonical Name() resolves to an
// equal value; and its Order is deterministic for a fixed seed and leaves a
// permutation of its input.
func FuzzStrategyByName(f *testing.F) {
	for _, name := range StrategyNames() {
		f.Add(name)
	}
	for _, name := range []string{"hybrid:u=0.4,r=1,a=1", "hybrid:", "hybrid:u=2", "hybrid:u=0.4,u=0.5", "hybrid:d=-0"} {
		f.Add(name)
	}
	f.Fuzz(func(t *testing.T, name string) {
		s, err := StrategyByName(name)
		if err != nil {
			return
		}
		back, err := StrategyByName(s.Name())
		if err != nil || back != s {
			t.Fatalf("%q -> %q -> %+v (%v), want %+v", name, s.Name(), back, err, s)
		}
		a, b := refsFixture(), refsFixture()
		s.Order(rand.New(rand.NewSource(3)), a)
		s.Order(rand.New(rand.NewSource(3)), b)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%q: same seed, different order: %v vs %v", name, ids(a), ids(b))
		}
		sorted := slices.SortedFunc(slices.Values(a), func(x, y ChunkRef) int { return cmp.Compare(x.ID, y.ID) })
		if !reflect.DeepEqual(sorted, refsFixture()) {
			t.Fatalf("%q: order %v is not a permutation of the window", name, ids(a))
		}
	})
}
