// Command commlat regenerates the tables and figures of "Exploiting the
// Commutativity Lattice" (PLDI 2011) and prints the synthesized
// abstract-locking artifacts.
//
// Usage:
//
//	commlat table1  [-rmfa N -rmfb N -mesh N -points N -parts N -seed S]
//	commlat table2  [-ops N -classes K -threads T -seed S]
//	commlat fig10   [-threads list -rmfa N -rmfb N -parts N -seed S]
//	commlat fig11   [-threads list -points N -seed S]
//	commlat fig12   [-threads list -mesh N -seed S]
//	commlat matrices [-spec accumulator|set|flowgraph]
//	commlat model   [-app Preflow-push|Boruvka|Clustering -procs list ...]
//	commlat specs
//
// Paper-scale inputs are a matter of flags (e.g. -points 500000
// -mesh 1000 -ops 1000000); defaults finish in seconds on a laptop.
//
// The global flags -cpuprofile and -memprofile, given before the
// command, write pprof profiles covering the whole run:
//
//	commlat -cpuprofile cpu.out table2 -ops 1000000
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"commlat/internal/abslock"
	"commlat/internal/analysis"
	"commlat/internal/adaptive"
	"commlat/internal/adt/accum"
	"commlat/internal/adt/flowgraph"
	"commlat/internal/adt/intset"
	"commlat/internal/adt/kdtree"
	"commlat/internal/adt/unionfind"
	"commlat/internal/bench"
	"commlat/internal/core"
	"commlat/internal/spectext"
	"commlat/internal/telemetry"
	"commlat/internal/workload"
)

func main() {
	global := flag.NewFlagSet("commlat", flag.ExitOnError)
	global.Usage = usage
	cpuProfile := global.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := global.String("memprofile", "", "write a heap profile to this file on exit")
	listen := global.String("listen", "", "serve live telemetry (/metrics, /debug/telemetry, /debug/vars) on this address for the run's duration")
	telemetryOut := global.String("telemetry-out", "", "write a final telemetry snapshot (JSON, cascade stage counters included) to this file on exit")
	if err := global.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if global.NArg() < 1 {
		usage()
		os.Exit(2)
	}
	var srv *http.Server
	var srvDone chan struct{}
	if *listen != "" {
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			fmt.Fprintln(os.Stderr, "commlat:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "commlat: telemetry on http://%s/\n", ln.Addr())
		srv = &http.Server{Handler: telemetry.Handler(telemetry.Default)}
		srvDone = make(chan struct{})
		go func() {
			defer close(srvDone)
			if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "commlat: telemetry server:", err)
			}
		}()
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "commlat:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "commlat:", err)
			os.Exit(1)
		}
	}
	// Teardown runs exactly once, from whichever path gets there first —
	// the subcommand returning or a termination signal — so an
	// interrupted run still flushes its profiles, drains in-flight
	// telemetry scrapes, and writes its final snapshot.
	var teardownOnce sync.Once
	var teardownErr error
	teardown := func() {
		if *cpuProfile != "" {
			pprof.StopCPUProfile()
		}
		if srv != nil {
			// Drain in-flight scrapes before exiting: a Prometheus poll
			// that raced the run's end still gets its complete response.
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			if serr := srv.Shutdown(ctx); serr != nil {
				fmt.Fprintln(os.Stderr, "commlat: telemetry server shutdown:", serr)
			}
			cancel()
			<-srvDone
		}
		if *telemetryOut != "" {
			if werr := writeTelemetrySnapshot(*telemetryOut); werr != nil {
				fmt.Fprintln(os.Stderr, "commlat:", werr)
				teardownErr = werr
			}
		}
		if *memProfile != "" {
			f, ferr := os.Create(*memProfile)
			if ferr != nil {
				fmt.Fprintln(os.Stderr, "commlat:", ferr)
				teardownErr = ferr
				return
			}
			runtime.GC() // capture the retained heap, not transient garbage
			if ferr := pprof.WriteHeapProfile(f); ferr != nil {
				fmt.Fprintln(os.Stderr, "commlat:", ferr)
				teardownErr = ferr
			}
			f.Close()
		}
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigCh
		fmt.Fprintf(os.Stderr, "commlat: %v: shutting down\n", s)
		teardownOnce.Do(teardown)
		code := 130 // 128 + SIGINT
		if s == syscall.SIGTERM {
			code = 143
		}
		os.Exit(code)
	}()

	err := dispatch(global.Arg(0), global.Args()[1:])
	teardownOnce.Do(teardown)
	if err == nil {
		err = teardownErr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "commlat:", err)
		os.Exit(1)
	}
}

// writeTelemetrySnapshot dumps the default registry's counters — the
// same JSON the /debug/telemetry endpoint serves — so batch runs can
// keep per-stage cascade statistics without a live HTTP listener.
func writeTelemetrySnapshot(path string) error {
	data, err := json.MarshalIndent(telemetry.Default.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func dispatch(cmd string, args []string) error {
	var err error
	switch cmd {
	case "table1":
		err = cmdTable1(args)
	case "table2":
		err = cmdTable2(args)
	case "bench":
		err = cmdBench(args)
	case "fig10", "fig11", "fig12":
		err = cmdFig(cmd, args)
	case "matrices":
		err = cmdMatrices(args)
	case "model":
		err = cmdModel(args)
	case "specs":
		err = cmdSpecs(args)
	case "strengthen":
		err = cmdStrengthen(args)
	case "adaptive":
		err = cmdAdaptive(args)
	case "trace":
		err = cmdTrace(args)
	case "flightrec":
		err = cmdFlightrec(args)
	case "check":
		err = cmdCheck(args)
	case "all":
		err = cmdAll(args)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "commlat: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	return err
}

func usage() {
	fmt.Fprintln(os.Stderr, `commlat — reproduce "Exploiting the Commutativity Lattice" (PLDI 2011)

commands:
  table1    critical path / parallelism / overhead per app and variant
  table2    set microbenchmark abort ratios and times
  bench     detector micro-benchmarks (ns/op, allocs/op), serial and
            batched admission rows (DetectorCascadeBatch*, CascadeBatch);
            -json writes BENCH_detectors.json for the CI allocation gate
  fig10     preflow-push run time vs threads (ml, ex, part)
  fig11     clustering run time vs threads (kd-gk vs kd-ml)
  fig12     Boruvka run time vs threads (uf-gk vs uf-ml)
  matrices  synthesized lock modes and compatibility matrices (fig. 8)
  model     the §5 T·o/min(a,p) scheme-selection model on measured data
  specs     print every commutativity specification and its class
  strengthen  derive the strongest SIMPLE spec below a given one (§4.1)
  adaptive  run the §5 future-work adaptive scheme selector on the set
  trace     run one app with the telemetry event trace enabled; writes a
            Chrome trace_event JSON (and optionally JSONL) plus the
            per-method-pair conflict attribution table
  flightrec run one app with stage-latency histograms and the flight
            recorder enabled; prints the percentile table, recent
            admission records and the controller audit trail (-json,
            -percentiles/-audit write the JSON documents)
  check     parse a textual specification file, classify and synthesize it
  all       run every quick experiment (tables, matrices, model, adaptive)

global flags (before the command):
  -cpuprofile FILE  write a pprof CPU profile of the whole run
  -memprofile FILE  write a pprof heap profile at exit
  -listen ADDR      serve live telemetry over HTTP while the command runs
                    (/metrics Prometheus text, /debug/telemetry JSON,
                    /debug/vars expvar)
  -telemetry-out FILE  write the final telemetry snapshot as JSON on exit
                    (engine counters plus per-detector stats, cascade
                    stage counters included; same schema as
                    /debug/telemetry, checked by scripts/tracecheck)
table1, table2, fig10-12, model, adaptive and bench also accept
-cpuprofile/-memprofile after the command, scoping the profile to that
command's measured work.

run "commlat <command> -h" for flags.`)
}

func parseThreads(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad thread list %q", s)
		}
		out = append(out, n)
	}
	return out, nil
}

// profileFlags registers -cpuprofile/-memprofile on a subcommand's flag
// set, so profiles can be scoped to one command's work (the global
// pre-command flags still cover whole runs). Call start after parsing
// and the returned stop when the command's work is done.
type profileFlags struct {
	cpu, mem *string
	f        *os.File
}

func addProfileFlags(fs *flag.FlagSet) *profileFlags {
	p := &profileFlags{}
	p.cpu = fs.String("cpuprofile", "", "write a pprof CPU profile of this command")
	p.mem = fs.String("memprofile", "", "write a pprof heap profile when this command ends")
	return p
}

func (p *profileFlags) start() error {
	if *p.cpu == "" {
		return nil
	}
	f, err := os.Create(*p.cpu)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	p.f = f
	return nil
}

func (p *profileFlags) stop() error {
	if p.f != nil {
		pprof.StopCPUProfile()
		p.f.Close()
		p.f = nil
	}
	if *p.mem == "" {
		return nil
	}
	f, err := os.Create(*p.mem)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC() // capture the retained heap, not transient garbage
	return pprof.WriteHeapProfile(f)
}

func cmdBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "write the results as JSON to -o")
	out := fs.String("o", "BENCH_detectors.json", "output path for -json (- for stdout)")
	run := fs.String("run", "", "regexp selecting benchmarks to run (default all)")
	quiet := fs.Bool("q", false, "suppress the progress table")
	prof := addProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var filter *regexp.Regexp
	if *run != "" {
		var err error
		if filter, err = regexp.Compile(*run); err != nil {
			return fmt.Errorf("bad -run regexp: %w", err)
		}
	}
	if err := prof.start(); err != nil {
		return err
	}
	progress := io.Writer(os.Stderr)
	if *quiet {
		progress = nil
	}
	results := bench.RunMicros(filter, progress)
	if err := prof.stop(); err != nil {
		return err
	}
	if len(results) == 0 {
		return fmt.Errorf("no benchmarks match %q", *run)
	}
	if !*jsonOut {
		return nil
	}
	rep := bench.Report(results)
	if *out == "-" {
		return bench.WriteJSON(os.Stdout, rep)
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := bench.WriteJSON(f, rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func cmdTable1(args []string) error {
	fs := flag.NewFlagSet("table1", flag.ExitOnError)
	cfg := bench.DefaultTable1()
	fs.IntVar(&cfg.RMFa, "rmfa", cfg.RMFa, "GENRMF frame side")
	fs.IntVar(&cfg.RMFb, "rmfb", cfg.RMFb, "GENRMF frame count")
	fs.IntVar(&cfg.MeshN, "mesh", cfg.MeshN, "Boruvka mesh side (paper: 1000)")
	fs.IntVar(&cfg.Points, "points", cfg.Points, "clustering points (paper: 100000)")
	fs.IntVar(&cfg.Parts, "parts", cfg.Parts, "preflow partitions (paper: 32)")
	fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "generator seed")
	prof := addProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := prof.start(); err != nil {
		return err
	}
	rows, err := bench.Table1(cfg)
	if perr := prof.stop(); err == nil {
		err = perr
	}
	if err != nil {
		return err
	}
	fmt.Print(bench.FormatTable1(rows))
	return nil
}

func cmdTable2(args []string) error {
	fs := flag.NewFlagSet("table2", flag.ExitOnError)
	cfg := bench.DefaultTable2()
	fs.IntVar(&cfg.Ops, "ops", cfg.Ops, "operations (paper: 1000000)")
	fs.IntVar(&cfg.Classes, "classes", cfg.Classes, "equivalence classes (paper: 10)")
	fs.IntVar(&cfg.Threads, "threads", cfg.Threads, "overlap window / threads (paper: 4)")
	fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "stream seed")
	fs.BoolVar(&cfg.Extended, "ext", false, "add extension rows (liberal locks, object STM)")
	stats := fs.Bool("stats", false, "print gatekeeper work counters (probes, collisions, fallbacks)")
	prof := addProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := prof.start(); err != nil {
		return err
	}
	rows, err := bench.Table2(cfg)
	if perr := prof.stop(); err == nil {
		err = perr
	}
	if err != nil {
		return err
	}
	fmt.Print(bench.FormatTable2(rows))
	if *stats {
		fmt.Println()
		fmt.Print(bench.FormatTable2Stats(rows))
	}
	return nil
}

func cmdFig(name string, args []string) error {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	cfg := bench.DefaultFig()
	threads := fs.String("threads", "1,2,4,8", "comma-separated thread counts")
	fs.IntVar(&cfg.RMFa, "rmfa", cfg.RMFa, "GENRMF frame side")
	fs.IntVar(&cfg.RMFb, "rmfb", cfg.RMFb, "GENRMF frame count")
	fs.IntVar(&cfg.Parts, "parts", cfg.Parts, "preflow partitions")
	fs.IntVar(&cfg.Points, "points", cfg.Points, "clustering points (paper: 500000)")
	fs.IntVar(&cfg.MeshN, "mesh", cfg.MeshN, "Boruvka mesh side (paper: 1000)")
	fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "generator seed")
	prof := addProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var err error
	cfg.Threads, err = parseThreads(*threads)
	if err != nil {
		return err
	}
	if err := prof.start(); err != nil {
		return err
	}
	var fig bench.Figure
	switch name {
	case "fig10":
		fig, err = bench.Fig10(cfg)
	case "fig11":
		fig, err = bench.Fig11(cfg)
	default:
		fig, err = bench.Fig12(cfg)
	}
	if perr := prof.stop(); err == nil {
		err = perr
	}
	if err != nil {
		return err
	}
	fmt.Print(fig.String())
	return nil
}

func cmdMatrices(args []string) error {
	fs := flag.NewFlagSet("matrices", flag.ExitOnError)
	which := fs.String("spec", "accumulator", "accumulator | set | flowgraph")
	if err := fs.Parse(args); err != nil {
		return err
	}
	specs := map[string][]*core.Spec{
		"accumulator": {accum.Spec()},
		"set":         {intset.RWSpec(), intset.ExclusiveSpec(), intset.BottomSpec()},
		"flowgraph":   {flowgraph.RWSpec(), flowgraph.ExclusiveSpec()},
	}
	list, ok := specs[*which]
	if !ok {
		return fmt.Errorf("unknown spec %q", *which)
	}
	for _, spec := range list {
		fmt.Printf("=== %s (%s)\n%s\n", spec.Sig.Name, spec.Classify(), spec)
		scheme, err := abslock.Synthesize(spec)
		if err != nil {
			return err
		}
		fmt.Println("full compatibility matrix (figure 8a):")
		fmt.Println(scheme.MatrixString())
		fmt.Println("reduced compatibility matrix (figure 8b):")
		fmt.Println(scheme.Reduce().MatrixString())
	}
	return nil
}

func cmdModel(args []string) error {
	fs := flag.NewFlagSet("model", flag.ExitOnError)
	app := fs.String("app", "Preflow-push", "Preflow-push | Boruvka | Clustering")
	procs := fs.String("procs", "1,2,4,8,64,1024", "processor counts")
	cfg := bench.DefaultTable1()
	fs.IntVar(&cfg.RMFa, "rmfa", cfg.RMFa, "GENRMF frame side")
	fs.IntVar(&cfg.RMFb, "rmfb", cfg.RMFb, "GENRMF frame count")
	fs.IntVar(&cfg.MeshN, "mesh", cfg.MeshN, "Boruvka mesh side")
	fs.IntVar(&cfg.Points, "points", cfg.Points, "clustering points")
	fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "generator seed")
	prof := addProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ps, err := parseThreads(*procs)
	if err != nil {
		return err
	}
	if err := prof.start(); err != nil {
		return err
	}
	rows, err := bench.Table1(cfg)
	if perr := prof.stop(); err == nil {
		err = perr
	}
	if err != nil {
		return err
	}
	entries := bench.ModelFromTable1(rows, *app)
	if len(entries) == 0 {
		return fmt.Errorf("no Table 1 rows for app %q", *app)
	}
	fmt.Print(bench.FormatModel(entries, ps))
	return nil
}

func cmdSpecs(args []string) error {
	all := []*core.Spec{
		intset.PreciseSpec(), intset.RWSpec(), intset.ExclusiveSpec(),
		intset.PartitionedSpec(), intset.BottomSpec(),
		kdtree.Spec(), unionfind.Spec(),
		flowgraph.RWSpec(), flowgraph.ExclusiveSpec(), flowgraph.PartitionedSpec(),
		accum.Spec(),
	}
	for _, s := range all {
		fmt.Printf("— %s [%s]\n%s\n", s.Sig.Name, s.Classify(), s)
	}
	return nil
}

func cmdStrengthen(args []string) error {
	fs := flag.NewFlagSet("strengthen", flag.ExitOnError)
	which := fs.String("spec", "set", "set | kdtree | unionfind")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var spec *core.Spec
	switch *which {
	case "set":
		spec = intset.PreciseSpec()
	case "kdtree":
		spec = kdtree.Spec()
	case "unionfind":
		spec = unionfind.Spec()
	default:
		return fmt.Errorf("unknown spec %q", *which)
	}
	fmt.Printf("original (%s):\n%s\n", spec.Classify(), spec)
	simple := core.StrengthenToSimple(spec)
	fmt.Printf("strongest SIMPLE specification below it (§4.1):\n%s\n", simple)
	fmt.Println("ordering check: strengthened ≤ original:", simple.LE(spec))
	scheme, err := abslock.Synthesize(simple)
	if err != nil {
		return err
	}
	fmt.Println("synthesized reduced lock matrix:")
	fmt.Println(scheme.Reduce().MatrixString())
	return nil
}

func cmdAdaptive(args []string) error {
	fs := flag.NewFlagSet("adaptive", flag.ExitOnError)
	ops := fs.Int("ops", 60000, "operations")
	classes := fs.Int("classes", 10, "equivalence classes")
	epoch := fs.Int("epoch", 5000, "epoch size")
	window := fs.Int("window", 4, "overlap window (threads)")
	seed := fs.Int64("seed", 1, "stream seed")
	start := fs.String("start", "", "starting rung by name (default: the bottom of the ladder)")
	auditOut := fs.String("audit", "", "write the controller decision audit trail as JSON to this file (- for stdout)")
	prof := addProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := prof.start(); err != nil {
		return err
	}
	ladder := adaptive.DefaultLadder()
	startRung := 0
	if *start != "" {
		startRung = -1
		for i, r := range ladder {
			if r.Name == *start {
				startRung = i
				break
			}
		}
		if startRung < 0 {
			names := make([]string, len(ladder))
			for i, r := range ladder {
				names[i] = r.Name
			}
			return fmt.Errorf("unknown rung %q (ladder: %s)", *start, strings.Join(names, ", "))
		}
	}
	stream := workload.SetOpsClasses(*ops, *classes, *seed)
	telemetry.ResetAudit()
	trace, err := adaptive.Run(ladder, stream, *epoch, *window, startRung)
	if perr := prof.stop(); err == nil {
		err = perr
	}
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %-12s %10s %12s\n", "epoch", "rung", "abort %", "ops/s")
	for i, s := range trace.Samples {
		fmt.Printf("%-8d %-12s %10.2f %12.0f\n", i, ladder[s.Rung].Name, s.AbortRatio*100, s.Throughput)
	}
	fmt.Printf("switches: %d; final set size: %d\n", trace.Switches, len(trace.Final.Snapshot()))
	if *auditOut != "" {
		w := io.Writer(os.Stdout)
		if *auditOut != "-" {
			f, err := os.Create(*auditOut)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		if err := telemetry.WriteAuditJSON(w); err != nil {
			return err
		}
	}
	return nil
}

func cmdCheck(args []string) error {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	file := fs.String("file", "", "specification file (see internal/spectext); - for stdin")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *file == "" {
		return fmt.Errorf("usage: commlat check -file <spec.txt>")
	}
	var src []byte
	var err error
	if *file == "-" {
		src, err = io.ReadAll(os.Stdin)
	} else {
		src, err = os.ReadFile(*file)
	}
	if err != nil {
		return err
	}
	spec, err := spectext.Parse(string(src))
	if err != nil {
		return err
	}
	// Static verification first: a spec that is ill-formed, covertly
	// asymmetric, or lattice-broken should fail check before anything
	// is synthesized from it.
	specName := *file
	if specName != "-" {
		specName = filepath.Base(specName)
	}
	if findings := analysis.VetSpec(specName, spec); len(findings) > 0 {
		for _, f := range findings {
			fmt.Fprintf(os.Stderr, "%s: %s\n", f.Pos, f.Message)
		}
		return fmt.Errorf("specvet: %d finding(s)", len(findings))
	}
	fmt.Printf("parsed %s: %d methods, class %s (specvet: verified)\n\n", spec.Sig.Name, len(spec.Sig.Methods), spec.Classify())
	fmt.Print(spectext.Format(spec))
	fmt.Println()
	switch spec.Classify() {
	case core.ClassSimple:
		scheme, err := abslock.Synthesize(spec)
		if err != nil {
			return err
		}
		fmt.Println("SIMPLE: synthesized abstract locking scheme (reduced):")
		fmt.Println(scheme.Reduce().MatrixString())
	case core.ClassOnline:
		fmt.Println("ONLINE-CHECKABLE: implementable by a forward gatekeeper (§3.3.1).")
		if scheme, err := abslock.SynthesizeLiberal(spec); err == nil {
			fmt.Println("...and GUARDED-SIMPLE: liberal locking (footnote 6) also applies:")
			fmt.Println(scheme.Reduce().MatrixString())
		}
	default:
		fmt.Println("GENERAL: requires a general gatekeeper (§3.3.2).")
	}
	simple := core.StrengthenToSimple(spec)
	if spec.Classify() != core.ClassSimple {
		fmt.Println("\nstrongest SIMPLE specification below it (§4.1):")
		fmt.Print(spectext.Format(simple))
	}
	return nil
}

func cmdAll(args []string) error {
	steps := []struct {
		title string
		run   func([]string) error
	}{
		{"figure 8 — synthesized matrices", cmdMatrices},
		{"table 1 — path / parallelism / overhead", cmdTable1},
		{"table 2 — set microbenchmark", cmdTable2},
		{"§5 model — scheme selection (preflow-push)", cmdModel},
		{"§4.1 — strengthening figure 2 to figure 3", cmdStrengthen},
		{"§5 future work — adaptive selection", cmdAdaptive},
	}
	for _, st := range steps {
		fmt.Printf("\n════ %s ════\n", st.title)
		if err := st.run(nil); err != nil {
			return fmt.Errorf("%s: %w", st.title, err)
		}
	}
	return nil
}
