package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"commlat/internal/engine"
	"commlat/internal/telemetry"
)

// cmdFlightrec runs one application with the stage-latency histograms
// and the flight recorder enabled, then prints the percentile table,
// the most recent admission records, and the controller audit trail —
// the offline twin of the /debug/commlat/ endpoints.
func cmdFlightrec(args []string) error {
	fs := flag.NewFlagSet("flightrec", flag.ExitOnError)
	app := fs.String("app", "boruvka", "boruvka | preflow | cluster")
	detector := fs.String("detector", "", "detector variant (boruvka: gk|generic|ml; preflow: rw|ex|part; cluster: gk|ml); default is the app's gatekept variant")
	threads := fs.Int("threads", 4, "worker goroutines")
	mesh := fs.Int("mesh", 16, "Boruvka mesh side")
	rmfa := fs.Int("rmfa", 6, "GENRMF frame side (preflow)")
	rmfb := fs.Int("rmfb", 6, "GENRMF frame count (preflow)")
	parts := fs.Int("parts", 32, "preflow partitions (detector=part)")
	points := fs.Int("points", 400, "clustering points")
	seed := fs.Int64("seed", 1, "generator seed")
	ring := fs.Int("ring", 1<<10, "per-worker flight ring capacity in records (rounded up to a power of two)")
	jsonMode := fs.Bool("json", false, "write the flight-recorder document as JSON to stdout (tables go to stderr)")
	out := fs.String("o", "", "also write the flight-recorder document as JSON to this file (- for stdout)")
	percentiles := fs.String("percentiles", "", "write the stage-latency percentile document as JSON to this file (- for stdout)")
	auditOut := fs.String("audit", "", "write the controller audit trail as JSON to this file (- for stdout)")
	max := fs.Int("max", 32, "flight records shown in the table (<=0 shows all)")
	prof := addProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	telemetry.EnableLatency()
	telemetry.EnableFlight(*ring)
	defer telemetry.DisableLatency()
	defer telemetry.DisableFlight()
	telemetry.ResetAudit()

	opts := engine.Options{Workers: *threads, Seed: *seed}
	if err := prof.start(); err != nil {
		return err
	}
	summary, err := runTraced(*app, *detector, opts, traceSizes{
		mesh: *mesh, rmfa: *rmfa, rmfb: *rmfb, parts: *parts, points: *points, seed: *seed,
	})
	if perr := prof.stop(); err == nil {
		err = perr
	}
	if err != nil {
		return err
	}

	doc := telemetry.Default.FlightSnapshot()
	lat := telemetry.SnapshotLatency()
	audit := telemetry.AuditTrail()

	report := io.Writer(os.Stdout)
	if *jsonMode || *out == "-" || *percentiles == "-" || *auditOut == "-" {
		report = os.Stderr
	}
	if *jsonMode {
		if err := telemetry.Default.WriteFlightJSON(os.Stdout); err != nil {
			return err
		}
	}
	writeDoc := func(path string, write func(io.Writer) error) error {
		if path == "" {
			return nil
		}
		if path == "-" {
			return write(os.Stdout)
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := write(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := writeDoc(*out, telemetry.Default.WriteFlightJSON); err != nil {
		return err
	}
	if err := writeDoc(*percentiles, telemetry.WritePercentilesJSON); err != nil {
		return err
	}
	if err := writeDoc(*auditOut, telemetry.WriteAuditJSON); err != nil {
		return err
	}

	fmt.Fprintln(report, summary)
	fmt.Fprintln(report)
	fmt.Fprint(report, telemetry.FormatLatencyTable(lat))
	fmt.Fprintln(report)
	fmt.Fprint(report, telemetry.FormatFlightTable(doc, *max))
	fmt.Fprintln(report)
	fmt.Fprint(report, telemetry.FormatAuditTable(audit))
	return nil
}
