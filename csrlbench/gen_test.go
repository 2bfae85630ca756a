package main

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

var workloads = []string{"paper-p3", "scale-p1", "service-mix"}

// TestRequestListDeterministic pins the generator contract: the same seed
// gives a byte-identical request list, another seed a different one.
func TestRequestListDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, err := RequestList(w, 7, 2*cycle)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RequestList(w, 7, 2*cycle)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("%s: seed 7 gave two different request lists", w)
		}
		c, err := RequestList(w, 8, 2*cycle)
		if err != nil {
			t.Fatal(err)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same request list", w)
		}
	}
}

// TestRequestListPinned pins the first pass for one seed, so a change to
// the generator that would silently change every workload shows here.
func TestRequestListPinned(t *testing.T) {
	got, err := RequestList("scale-p1", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	const want = "0;cluster:224;P1b;T=72;;P<=0.012 [ !down U{t<=72} down ]\n"
	if !strings.HasPrefix(got, want) {
		t.Errorf("scale-p1 seed 1 pass 0 starts\n%s\nwant first line %q", got, want)
	}
	if n := strings.Count(got, "\n"); n != 12 {
		t.Errorf("scale-p1 pass has %d entries, want 12", n)
	}
}

// TestCycleCostMixSeedIndependent checks what makes the benchmark steady:
// over one cycle the multiset of costly parameter combinations is the same
// for every seed; only the order and the cheap parameters move.
func TestCycleCostMixSeedIndependent(t *testing.T) {
	costly := func(e Entry) string {
		if e.Prop == "P2" { // a few ms whatever the bound
			return e.Prop
		}
		return e.Key()
	}
	mix := func(w string, seed int64) map[string]int {
		m := make(map[string]int)
		for p := 0; p < cycle; p++ {
			es, err := Pass(w, seed, p)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range es {
				m[costly(e)]++
			}
		}
		return m
	}
	for _, w := range []string{"paper-p3", "scale-p1"} {
		ref := mix(w, 1)
		for seed := int64(2); seed < 12; seed++ {
			got := mix(w, seed)
			if len(got) != len(ref) {
				t.Fatalf("%s seed %d: %d distinct costly entries per cycle, seed 1 has %d", w, seed, len(got), len(ref))
			}
			for k, n := range ref {
				if got[k] != n {
					t.Errorf("%s seed %d: %s appears %d times per cycle, seed 1 %d", w, seed, k, got[k], n)
				}
			}
		}
	}
}

// TestManifestCoversEveryEntry checks that every entry any seed produces
// has a reference row, and that the station Q3 reference at r = 550
// matches EXPERIMENTS.md (0.4954070 at ε = 1e-8).
func TestManifestCoversEveryEntry(t *testing.T) {
	m, err := parseManifest(manifestText)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for seed := int64(0); seed < 20; seed++ {
			for p := 0; p < 2*cycle; p++ {
				es, err := Pass(w, seed, p)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range es {
					if _, ok := m[e.Key()]; !ok {
						t.Fatalf("%s seed %d: no manifest row for %s", w, seed, e.Key())
					}
				}
			}
		}
		for _, e := range setupEntries(w) {
			if _, ok := m[e.Key()]; !ok {
				t.Fatalf("%s: no manifest row for set-up entry %s", w, e.Key())
			}
		}
	}
	r, ok := m["station;Q3;R=550;-algorithm sericola -epsilon 1e-8"]
	if !ok {
		t.Fatal("no Q3 r=550 row")
	}
	v, err := strconv.ParseFloat(r.expected, 64)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-0.4954070) > 1e-6 {
		t.Errorf("Q3 at r=550: manifest %v, EXPERIMENTS.md 0.4954070", v)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{40, 75}, {48, 75}, {56, 80}, {120, 90}, {1000, 99}, {5, 50}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileWithFailures(t *testing.T) {
	xs := []float64{1, 2, 3, math.Inf(1), math.Inf(1)}
	if got := percentile(xs, 50); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
	if got := percentile(xs, 90); !math.IsInf(got, 1) {
		t.Errorf("p90 = %v, want +Inf", got)
	}
}

func TestParseCLIOutput(t *testing.T) {
	out := "model:   cluster:60 (7442 states)\nformula: x\nsatisfying states: 3600 of 7442\nholds in the initial state(s): true\n"
	a, err := parseCLIOutput(out, false)
	if err != nil || !a.Holds || a.Sat != 3600 {
		t.Errorf("bounded: got %+v, %v", a, err)
	}
	a, err = parseCLIOutput("value from the initial distribution: 0.4954070514\n", true)
	if err != nil || a.Value != 0.4954070514 {
		t.Errorf("query: got %+v, %v", a, err)
	}
	if _, err := parseCLIOutput("model: x\n", true); err == nil {
		t.Error("no answer line: want an error")
	}
}
