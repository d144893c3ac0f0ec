package main

// workloadDef names one workload and builds its app at full or toy size.
type workloadDef struct {
	name string
	make func(seed int64, toy bool) app
}

// workloads are the paper's four applications, each on the guarded ADT
// that stresses a different layer. README.md records why each was chosen.
var workloads = []workloadDef{
	{"preflow-ex", func(seed int64, toy bool) app {
		if toy {
			return &preflowApp{a: 3, b: 3, seqReps: 1, seed: seed}
		}
		return &preflowApp{a: 9, b: 7, seqReps: 20, seed: seed}
	}},
	{"boruvka-ufgk", func(seed int64, toy bool) app {
		if toy {
			return &boruvkaApp{side: 8, seqReps: 1, seed: seed}
		}
		return &boruvkaApp{side: 75, seqReps: 10, seed: seed}
	}},
	{"cluster-kdgk", func(seed int64, toy bool) app {
		if toy {
			return &clusterApp{n: 200, seqReps: 1, seed: seed}
		}
		return &clusterApp{n: 10000, seqReps: 1, seed: seed}
	}},
	{"set-gk", func(seed int64, toy bool) app {
		if toy {
			return &setApp{n: 2000, k: 10, seqReps: 1, seed: seed}
		}
		return &setApp{n: 100000, k: 10, seqReps: 40, seed: seed}
	}},
}

func lookup(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}
