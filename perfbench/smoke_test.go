package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"
)

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames())
	}
	units := func(es []entry) map[string]string {
		m := map[string]string{}
		for _, e := range es {
			m[e.Name] = e.Unit
		}
		return m
	}
	return units(doc.EndToEnd), units(doc.PerLayer)
}

// TestSmoke runs every workload at toy size, untraced and traced, on two
// seeds. Every declared metric must be emitted with its declared unit,
// nothing undeclared may be, and every guarded run must match the
// sequential reference.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			want := endToEnd
			if trace {
				want = perLayer
			}
			var names [][]string
			for _, seed := range []int64{1, 2} {
				res, err := measure(config{workload: wl.name, seed: seed, trace: trace, toy: true, minRounds: 1})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("%s seed %d trace %v: correct %v, %d of %d failed",
						wl.name, seed, trace, res.Correct, res.Failed, res.Attempted)
				}
				for name, unit := range want {
					m, ok := res.Metrics[name]
					if !ok {
						t.Errorf("%s trace %v: missing %s", wl.name, trace, name)
					} else if m.Unit != unit {
						t.Errorf("%s trace %v: %s in %s, declared %s", wl.name, trace, name, m.Unit, unit)
					}
				}
				for name := range res.Metrics {
					if _, ok := want[name]; !ok {
						t.Errorf("%s trace %v: undeclared metric %s", wl.name, trace, name)
					}
				}
				if !trace {
					if ok := res.Metrics["ok_frac"].Value; ok != 1 {
						t.Errorf("%s seed %d: ok_frac %v", wl.name, seed, ok)
					}
				}
				var got []string
				for name := range res.Metrics {
					got = append(got, name)
				}
				slices.Sort(got)
				names = append(names, got)
			}
			if !slices.Equal(names[0], names[1]) {
				t.Errorf("%s trace %v: seeds 1 and 2 emit different metric names", wl.name, trace)
			}
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := measure(config{workload: "nope", minRounds: 1}); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for v := 1; v <= 1000; v++ {
		h.record(time.Duration(v) * time.Microsecond)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 500e3}, {0.99, 990e3}} {
		if got := h.quantile(c.q); got < 0.96*c.want || got > 1.04*c.want {
			t.Errorf("quantile(%v) = %v ns, want about %v", c.q, got, c.want)
		}
	}
	var e hist
	if e.quantile(0.5) != 0 {
		t.Error("empty histogram quantile not 0")
	}
}

func TestClassify(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"commlat/internal/abslock.(*Manager).acquireSet", "main.main"}, "abslock"},
		{[]string{"internal/runtime/maps.(*Map).getWithKeySmall", "commlat/internal/adt/unionfind.(*GK).Find"}, "maps"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"sync.(*Mutex).Lock"}, "sync"},
		{[]string{"runtime.futex"}, "other"},
		{nil, "other"},
	} {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}
