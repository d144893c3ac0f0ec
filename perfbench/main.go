// Command perfbench is the end-to-end benchmark of the paper's four
// application workloads (§5): preflow-push, Borůvka, agglomerative
// clustering and the set microbenchmark. Each workload is a closed batch
// job: one input generated from the seed, processed to completion by the
// plain sequential program and by the guarded program at 1 and 2
// workers, with every guarded output checked against the sequential
// reference. Rounds of these phases repeat for the given number of
// seconds and the interquartile means over rounds are reported.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload boruvka-ufgk --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 the run also times calls into each
// layer and reports the per-layer metrics instead. README.md lists them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	cfg := config{minRounds: 3}
	flag.StringVar(&cfg.workload, "workload", "", fmt.Sprintf("workload to run: %v", workloadNames()))
	flag.Int64Var(&cfg.seed, "seed", 1, "input generator seed")
	flag.Float64Var(&cfg.seconds, "seconds", 25, "how long to keep starting rounds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	cfg.trace = *trace == 1

	fmt.Printf("perfbench: workload=%s seed=%d trace=%d nproc=%d gomaxprocs=%d go=%s\n",
		cfg.workload, cfg.seed, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	res, err := measure(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
