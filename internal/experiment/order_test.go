package experiment

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"napawine/internal/core"
	"napawine/internal/report"
)

// orderDependent declares, with its reason, each Summary field that a
// permutation of the probe list may move. Every other field, every
// core.Compute result and the rendered Tables III and IV must come out byte
// for byte the same under any order of Result.Observations and
// Result.PerProbe. A declared field may move only in its last bits. The
// dependences stay: the probe list's order is fixed by the world, and
// summing in another order would move pinned digests.
var orderDependent = map[string]string{
	"RxKbpsMean": "Table II's mean download rate sums float64 rates in probe order, and float addition does not associate",
	"TxKbpsMean": "Table II's mean upload rate sums float64 rates in probe order, and float addition does not associate",
}

var orderBase struct {
	once sync.Once
	r    *Result
	err  error
}

// orderBaseResult is one short TVAnts run, made once: real rows, with
// contributors and non-contributors, probes and non-probes, and every
// classifier's preferred and other sides populated.
func orderBaseResult(t testing.TB) *Result {
	orderBase.once.Do(func() {
		cfg := smallConfig("TVAnts", 5)
		cfg.Duration = 30 * time.Second
		orderBase.r, orderBase.err = Run(cfg)
	})
	if orderBase.err != nil {
		t.Fatal(orderBase.err)
	}
	return orderBase.r
}

// permuted copies r with its observations and probe list reordered by a
// generator seeded with seed. Mode 0 shuffles every observation; mode 1
// moves whole probes, each probe's rows together and in their order, as a
// reduce that visited the probes in another order would; mode 2 reverses
// both lists.
func permuted(r *Result, seed int64, mode uint8) *Result {
	rng := rand.New(rand.NewSource(seed))
	p := *r
	p.Observations = slices.Clone(r.Observations)
	p.PerProbe = slices.Clone(r.PerProbe)
	switch mode % 3 {
	case 0:
		rng.Shuffle(len(p.Observations), func(i, j int) {
			p.Observations[i], p.Observations[j] = p.Observations[j], p.Observations[i]
		})
	case 1:
		var probes [][4]byte
		rows := map[[4]byte][]core.Observation{}
		for _, o := range r.Observations {
			if rows[o.Probe] == nil {
				probes = append(probes, o.Probe)
			}
			rows[o.Probe] = append(rows[o.Probe], o)
		}
		rng.Shuffle(len(probes), func(i, j int) { probes[i], probes[j] = probes[j], probes[i] })
		p.Observations = p.Observations[:0]
		for _, probe := range probes {
			p.Observations = append(p.Observations, rows[probe]...)
		}
	case 2:
		slices.Reverse(p.Observations)
		slices.Reverse(p.PerProbe)
		return &p
	}
	rng.Shuffle(len(p.PerProbe), func(i, j int) { p.PerProbe[i], p.PerProbe[j] = p.PerProbe[j], p.PerProbe[i] })
	return &p
}

// orderDiffs lists what differs between base's reduction and that of its
// permutation p: core.Compute for every classifier, direction and primed
// variant, then each Summary field (declared ones by name only, when they
// differ within rounding), then the rendered Tables III and IV.
func orderDiffs(t testing.TB, base, p *Result) (undeclared, declared []string) {
	t.Helper()
	if len(p.Observations) != len(base.Observations) {
		t.Fatalf("the permutation holds %d rows of %d", len(p.Observations), len(base.Observations))
	}
	for _, c := range append(core.PaperClassifiers(), core.HOPClassifier{Threshold: 15}) {
		for _, dir := range []core.Direction{core.Download, core.Upload} {
			for _, primed := range []bool{false, true} {
				want := core.Compute(base.Observations, dir, c, base.Cfg.Contrib, primed)
				got := core.Compute(p.Observations, dir, c, p.Cfg.Contrib, primed)
				if fmt.Sprintf("%#v", got) != fmt.Sprintf("%#v", want) {
					undeclared = append(undeclared, fmt.Sprintf("core.Compute(%s, %v, primed %v): %+v, was %+v", c.Name(), dir, primed, got, want))
				}
			}
		}
	}
	want, got := reflect.ValueOf(Summarize(base)), reflect.ValueOf(Summarize(p))
	for i := range want.NumField() {
		name := want.Type().Field(i).Name
		w, g := fmt.Sprintf("%#v", want.Field(i).Interface()), fmt.Sprintf("%#v", got.Field(i).Interface())
		if w == g {
			continue
		}
		if _, ok := orderDependent[name]; ok {
			if a, b := want.Field(i).Float(), got.Field(i).Float(); math.Abs(a-b) <= 1e-12*math.Abs(a) {
				declared = append(declared, name)
				continue
			}
		}
		undeclared = append(undeclared, fmt.Sprintf("Summary.%s: %s, was %s", name, g, w))
	}
	for _, table := range []func([]*Result) *report.Table{TableIII, TableIV} {
		var w, g strings.Builder
		if err := table([]*Result{base}).Render(&w); err != nil {
			t.Fatal(err)
		}
		if err := table([]*Result{p}).Render(&g); err != nil {
			t.Fatal(err)
		}
		if w.String() != g.String() {
			undeclared = append(undeclared, fmt.Sprintf("rendered table:\n%s\nwas\n%s", g.String(), w.String()))
		}
	}
	return undeclared, declared
}

// FuzzObservationOrder: the paper's reduction is a function of the set of
// probe×peer rows and of the probes, not of the order a reduce visited them
// in. The fuzzer chooses the permutation; any difference orderDependent does
// not declare fails.
func FuzzObservationOrder(f *testing.F) {
	f.Add(int64(1), uint8(0))
	f.Add(int64(2), uint8(1))
	f.Add(int64(3), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, mode uint8) {
		base := orderBaseResult(t)
		undeclared, _ := orderDiffs(t, base, permuted(base, seed, mode))
		for _, d := range undeclared {
			t.Error(d)
		}
	})
}

// TestOrderDependencesAreReal: each dependence orderDependent declares shows
// under some probe order, so none is declared for nothing, and the base run
// has the rows the relation needs to bite.
func TestOrderDependencesAreReal(t *testing.T) {
	base := orderBaseResult(t)
	probes := map[[4]byte]bool{}
	for _, o := range base.Observations {
		probes[o.Probe] = true
	}
	if len(probes) < 10 || len(base.Observations) < 1000 {
		t.Fatalf("%d rows over %d probes: too few for an order to show", len(base.Observations), len(probes))
	}
	seen := map[string]bool{}
	for seed := int64(1); seed <= 40; seed++ {
		undeclared, declared := orderDiffs(t, base, permuted(base, seed, uint8(seed)))
		for _, d := range undeclared {
			t.Error(d)
		}
		for _, name := range declared {
			seen[name] = true
		}
	}
	for name := range orderDependent {
		if !seen[name] {
			t.Errorf("orderDependent declares %s, which no permutation moved", name)
		}
	}
}
