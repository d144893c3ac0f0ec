// Command tracecheck validates the JSONL event-trace schema emitted by
// `commlat trace -json` (and -jsonl): one JSON object per line, with
// the fields internal/telemetry's WriteJSONL documents. CI runs it on a
// small boruvka workload so schema drift in the exporter fails the
// build instead of silently breaking downstream tooling.
//
// Usage:
//
//	go run ./scripts/tracecheck trace.jsonl
//	commlat trace -app boruvka -json | go run ./scripts/tracecheck
//	go run ./scripts/tracecheck -chrome trace.json
//	go run ./scripts/tracecheck -snapshot telemetry.json
//	commlat flightrec -app cluster -json | go run ./scripts/tracecheck -flight
//	go run ./scripts/tracecheck -percentiles percentiles.json
//	go run ./scripts/tracecheck -audit audit.json
//
// It exits non-zero on empty input, malformed JSON, unknown event
// kinds, missing required fields, or a non-monotonic timeline. With
// -chrome it instead checks that the file is a Chrome trace_event
// document: a JSON object whose traceEvents array is non-empty and
// whose entries all carry a phase and a timestamp. With -snapshot it
// checks a telemetry snapshot document (`commlat -telemetry-out` or the
// /debug/telemetry endpoint): every detector row must carry id, kind,
// and adt, unknown fields are rejected (so the cascade stage counters —
// cascade_fast_admits through cascade_fallbacks — stay in lockstep
// between exporter and consumers), and per-pair attribution must not
// exceed the detector totals it decomposes.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

type event struct {
	TS       *int64 `json:"ts_ns"`
	Kind     string `json:"kind"`
	Worker   *int   `json:"worker"`
	Tx       uint64 `json:"tx"`
	Item     *int64 `json:"item"`
	Detector string `json:"detector"`
	M1       string `json:"m1"`
	M2       string `json:"m2"`
	Epoch    *int64 `json:"epoch"`
}

var lifecycle = map[string]bool{"begin": true, "commit": true, "abort": true}

func check(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var (
		lineNo int
		lastTS int64
		counts = map[string]int{}
	)
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			return fmt.Errorf("line %d: empty line", lineNo)
		}
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		var e event
		if err := dec.Decode(&e); err != nil {
			return fmt.Errorf("line %d: %v", lineNo, err)
		}
		if e.TS == nil {
			return fmt.Errorf("line %d: missing ts_ns", lineNo)
		}
		if *e.TS < 0 {
			return fmt.Errorf("line %d: negative ts_ns %d", lineNo, *e.TS)
		}
		if *e.TS < lastTS {
			return fmt.Errorf("line %d: ts_ns %d out of order (previous %d)", lineNo, *e.TS, lastTS)
		}
		lastTS = *e.TS
		if e.Worker == nil {
			return fmt.Errorf("line %d: missing worker", lineNo)
		}
		if *e.Worker < 0 {
			return fmt.Errorf("line %d: negative worker %d", lineNo, *e.Worker)
		}
		switch {
		case lifecycle[e.Kind]:
			if e.Tx == 0 {
				return fmt.Errorf("line %d: %s event without tx", lineNo, e.Kind)
			}
		case e.Kind == "conflict":
			if e.Tx == 0 {
				return fmt.Errorf("line %d: conflict event without tx", lineNo)
			}
			if e.Detector == "" || e.M1 == "" || e.M2 == "" {
				return fmt.Errorf("line %d: conflict event needs detector, m1, m2", lineNo)
			}
		case e.Kind == "decision":
			if e.Detector == "" || e.M1 == "" || e.M2 == "" {
				return fmt.Errorf("line %d: decision event needs detector, m1, m2", lineNo)
			}
		default:
			return fmt.Errorf("line %d: unknown kind %q", lineNo, e.Kind)
		}
		counts[e.Kind]++
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if lineNo == 0 {
		return fmt.Errorf("no events: input is empty")
	}
	if counts["begin"] == 0 {
		return fmt.Errorf("no begin events in %d lines", lineNo)
	}
	if counts["commit"] == 0 {
		return fmt.Errorf("no commit events in %d lines", lineNo)
	}
	fmt.Printf("ok: %d events (%d begin, %d commit, %d abort, %d conflict, %d decision)\n",
		lineNo, counts["begin"], counts["commit"], counts["abort"], counts["conflict"], counts["decision"])
	return nil
}

// checkChrome validates the Chrome trace_event document shape: phases
// are single characters, timestamps are present on every event, and
// complete ("X") events carry durations.
func checkChrome(r io.Reader) error {
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string   `json:"name"`
			Ph   string   `json:"ph"`
			TS   *float64 `json:"ts"`
			Dur  *float64 `json:"dur"`
			PID  *int     `json:"pid"`
			TID  *int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return err
	}
	if len(doc.TraceEvents) == 0 {
		return fmt.Errorf("traceEvents is empty")
	}
	counts := map[string]int{}
	for i, e := range doc.TraceEvents {
		if len(e.Ph) != 1 {
			return fmt.Errorf("traceEvents[%d]: bad phase %q", i, e.Ph)
		}
		if e.Ph != "M" && e.TS == nil {
			return fmt.Errorf("traceEvents[%d]: missing ts", i)
		}
		if e.Ph == "X" && e.Dur == nil {
			return fmt.Errorf("traceEvents[%d]: complete event missing dur", i)
		}
		if e.Name == "" {
			return fmt.Errorf("traceEvents[%d]: missing name", i)
		}
		counts[e.Ph]++
	}
	fmt.Printf("ok: %d chrome events (%d complete, %d instant, %d metadata)\n",
		len(doc.TraceEvents), counts["X"], counts["i"], counts["M"])
	return nil
}

// snapshotDoc mirrors internal/telemetry's Snapshot JSON schema field
// for field; DisallowUnknownFields turns any exporter drift — a renamed
// cascade counter, a new stage left out of this mirror — into a CI
// failure here instead of a silent break in downstream consumers.
type snapshotDoc struct {
	Engine struct {
		TxBegun     uint64 `json:"tx_begun"`
		TxCommitted uint64 `json:"tx_committed"`
		TxAborted   uint64 `json:"tx_aborted"`
	} `json:"engine"`
	Detectors []struct {
		ID               uint16 `json:"id"`
		Kind             string `json:"kind"`
		ADT              string `json:"adt"`
		Invocations      uint64 `json:"invocations"`
		Checks           uint64 `json:"checks"`
		Conflicts        uint64 `json:"conflicts"`
		Rollbacks        uint64 `json:"rollbacks"`
		LogEntries       uint64 `json:"log_entries"`
		Probes           uint64 `json:"probes"`
		Collisions       uint64 `json:"collisions"`
		FallbackScans    uint64 `json:"fallback_scans"`
		FastAdmits       uint64 `json:"cascade_fast_admits"`
		FilterHits       uint64 `json:"cascade_filter_hits"`
		OptScans         uint64 `json:"cascade_opt_scans"`
		OptRetries       uint64 `json:"cascade_opt_retries"`
		CascadeFallbacks uint64 `json:"cascade_fallbacks"`
		BatchesWhole     uint64 `json:"batches_whole"`
		BatchesSplit     uint64 `json:"batches_split"`
		BatchesSerial    uint64 `json:"batches_serialized"`
		ActiveHighWater  int64  `json:"active_high_water"`
		JournalHighWater int64  `json:"journal_high_water"`
		Pairs            []struct {
			M1        string `json:"m1"`
			M2        string `json:"m2"`
			Checks    uint64 `json:"checks"`
			Conflicts uint64 `json:"conflicts"`
		} `json:"pairs"`
		Modes []struct {
			Mode     string `json:"mode"`
			Acquired uint64 `json:"acquired"`
			Waits    uint64 `json:"waits"`
		} `json:"modes"`
	} `json:"detectors"`
}

func checkSnapshot(r io.Reader) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var doc snapshotDoc
	if err := dec.Decode(&doc); err != nil {
		return err
	}
	e := doc.Engine
	if e.TxBegun < e.TxCommitted+e.TxAborted {
		return fmt.Errorf("engine: %d txs begun but %d resolved", e.TxBegun, e.TxCommitted+e.TxAborted)
	}
	var fastAdmits, filterHits uint64
	for i, d := range doc.Detectors {
		if d.ID == 0 {
			return fmt.Errorf("detectors[%d]: missing id", i)
		}
		if d.Kind == "" || d.ADT == "" {
			return fmt.Errorf("detectors[%d]: missing kind or adt", i)
		}
		var pairChecks, pairConflicts uint64
		for j, p := range d.Pairs {
			if p.M1 == "" || p.M2 == "" {
				return fmt.Errorf("detectors[%d].pairs[%d]: missing m1 or m2", i, j)
			}
			pairChecks += p.Checks
			pairConflicts += p.Conflicts
		}
		// Per-pair rows decompose the totals (attribution may drop rows,
		// never invent them).
		if pairChecks > d.Checks {
			return fmt.Errorf("detectors[%d] (%s): pair checks %d exceed total %d", i, d.Kind, pairChecks, d.Checks)
		}
		if pairConflicts > d.Conflicts {
			return fmt.Errorf("detectors[%d] (%s): pair conflicts %d exceed total %d", i, d.Kind, pairConflicts, d.Conflicts)
		}
		for j, m := range d.Modes {
			if m.Mode == "" {
				return fmt.Errorf("detectors[%d].modes[%d]: missing mode", i, j)
			}
		}
		fastAdmits += d.FastAdmits
		filterHits += d.FilterHits
	}
	fmt.Printf("ok: snapshot with %d detectors (%d tx begun; cascade: %d fast admits, %d filter hits)\n",
		len(doc.Detectors), e.TxBegun, fastAdmits, filterHits)
	return nil
}

// flightDoc mirrors internal/telemetry's FlightDoc JSON schema, same
// lockstep discipline as snapshotDoc.
type flightDoc struct {
	Epoch   uint64 `json:"epoch"`
	Dropped uint64 `json:"dropped"`
	Records []struct {
		TS       *int64   `json:"ts_ns"`
		Tx       uint64   `json:"tx"`
		Epoch    uint64   `json:"epoch"`
		Worker   *int     `json:"worker"`
		Detector string   `json:"detector"`
		Method   string   `json:"method"`
		Verdict  string   `json:"verdict"`
		Retries  int      `json:"retries"`
		N        int      `json:"n"`
		Stages   []string `json:"stages"`
		StageNS  struct {
			SigFilterNS    uint32 `json:"sig_filter_ns"`
			OptIndexNS     uint32 `json:"opt_index_ns"`
			PreciseNS      uint32 `json:"precise_ns"`
			BatchPublishNS uint32 `json:"batch_publish_ns"`
			BatchProbeNS   uint32 `json:"batch_probe_ns"`
			CommitNS       uint32 `json:"commit_release_ns"`
		} `json:"stage_ns"`
	} `json:"records"`
}

var flightVerdicts = map[string]bool{
	"admitted": true, "conflict": true,
	"batch_whole": true, "batch_split": true, "batch_serial": true,
}

var flightStages = map[string]bool{
	"sig_filter": true, "opt_index": true, "precise": true,
	"batch_publish": true, "batch_probe": true, "commit_release": true,
}

// checkFlight validates a flight-recorder document (`commlat flightrec
// -json` or /debug/commlat/flightrec): every record needs a timestamp,
// a worker and a known verdict; stage spellings must come from the
// pipeline vocabulary; the timeline is oldest-first; and a run that
// recorded anything must have buffered at least one record.
func checkFlight(r io.Reader) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var doc flightDoc
	if err := dec.Decode(&doc); err != nil {
		return err
	}
	if len(doc.Records) == 0 {
		return fmt.Errorf("flight document has no records")
	}
	var lastTS int64
	verdicts := map[string]int{}
	for i, rec := range doc.Records {
		if rec.TS == nil {
			return fmt.Errorf("records[%d]: missing ts_ns", i)
		}
		if *rec.TS < lastTS {
			return fmt.Errorf("records[%d]: ts_ns %d out of order (previous %d)", i, *rec.TS, lastTS)
		}
		lastTS = *rec.TS
		if rec.Worker == nil || *rec.Worker < 0 {
			return fmt.Errorf("records[%d]: missing or negative worker", i)
		}
		if !flightVerdicts[rec.Verdict] {
			return fmt.Errorf("records[%d]: unknown verdict %q", i, rec.Verdict)
		}
		if rec.Epoch > doc.Epoch {
			return fmt.Errorf("records[%d]: record epoch %d past document epoch %d", i, rec.Epoch, doc.Epoch)
		}
		for _, st := range rec.Stages {
			if !flightStages[st] {
				return fmt.Errorf("records[%d]: unknown stage %q", i, st)
			}
		}
		verdicts[rec.Verdict]++
	}
	fmt.Printf("ok: %d flight records (epoch %d, %d reclaimed; %d admitted, %d conflict)\n",
		len(doc.Records), doc.Epoch, doc.Dropped, verdicts["admitted"], verdicts["conflict"])
	return nil
}

// percentilesDoc mirrors internal/telemetry's LatencySnapshot schema.
type percentilesDoc struct {
	Enabled bool `json:"enabled"`
	Stages  []struct {
		Stage   string  `json:"stage"`
		Count   *uint64 `json:"count"`
		SumNS   uint64  `json:"sum_ns"`
		P50NS   float64 `json:"p50_ns"`
		P90NS   float64 `json:"p90_ns"`
		P99NS   float64 `json:"p99_ns"`
		P999NS  float64 `json:"p999_ns"`
		Buckets []struct {
			LeNS  uint64 `json:"le_ns"`
			Count uint64 `json:"count"`
		} `json:"buckets"`
	} `json:"stages"`
}

// checkPercentiles validates a stage-latency percentile document
// (`commlat flightrec -percentiles` or /debug/commlat/percentiles):
// stage names from the pipeline vocabulary, monotone percentiles, and
// bucket counts that decompose each stage's total.
func checkPercentiles(r io.Reader) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var doc percentilesDoc
	if err := dec.Decode(&doc); err != nil {
		return err
	}
	if len(doc.Stages) == 0 {
		return fmt.Errorf("percentile document has no stage rows")
	}
	var total uint64
	for i, st := range doc.Stages {
		if !flightStages[st.Stage] {
			return fmt.Errorf("stages[%d]: unknown stage %q", i, st.Stage)
		}
		if st.Count == nil || *st.Count == 0 {
			return fmt.Errorf("stages[%d] (%s): missing or zero count", i, st.Stage)
		}
		if !(st.P50NS <= st.P90NS && st.P90NS <= st.P99NS && st.P99NS <= st.P999NS) {
			return fmt.Errorf("stages[%d] (%s): percentiles not monotone: p50 %g p90 %g p99 %g p99.9 %g",
				i, st.Stage, st.P50NS, st.P90NS, st.P99NS, st.P999NS)
		}
		var n uint64
		lastLe := int64(-1)
		for j, b := range st.Buckets {
			if int64(b.LeNS) <= lastLe {
				return fmt.Errorf("stages[%d] (%s): buckets[%d] le_ns %d out of order", i, st.Stage, j, b.LeNS)
			}
			lastLe = int64(b.LeNS)
			n += b.Count
		}
		if n != *st.Count {
			return fmt.Errorf("stages[%d] (%s): bucket counts sum to %d, want %d", i, st.Stage, n, *st.Count)
		}
		total += *st.Count
	}
	fmt.Printf("ok: %d latency stages, %d observations\n", len(doc.Stages), total)
	return nil
}

// auditDoc mirrors internal/telemetry's AuditDoc schema.
type auditDoc struct {
	Entries []struct {
		TS           *int64  `json:"ts_ns"`
		Controller   string  `json:"controller"`
		Det          uint16  `json:"detector_id"`
		Window       int     `json:"window"`
		ConflictRate float64 `json:"conflict_rate"`
		Lo           float64 `json:"lo"`
		Hi           float64 `json:"hi"`
		FromRung     int     `json:"from_rung"`
		ToRung       int     `json:"to_rung"`
		Moved        bool    `json:"moved"`
		Reason       string  `json:"reason"`
	} `json:"entries"`
}

var auditReasons = map[string]bool{"climb": true, "backoff": true, "hold": true, "pinned": true}

// checkAudit validates a controller audit document (`commlat flightrec
// -audit` or /debug/commlat/audit): known reasons, conflict rate in [0,1],
// moves consistent with from/to rungs.
func checkAudit(r io.Reader) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var doc auditDoc
	if err := dec.Decode(&doc); err != nil {
		return err
	}
	if len(doc.Entries) == 0 {
		return fmt.Errorf("audit document has no entries")
	}
	moves := 0
	for i, e := range doc.Entries {
		if e.TS == nil {
			return fmt.Errorf("entries[%d]: missing ts_ns", i)
		}
		if e.Controller == "" {
			return fmt.Errorf("entries[%d]: missing controller", i)
		}
		if !auditReasons[e.Reason] {
			return fmt.Errorf("entries[%d]: unknown reason %q", i, e.Reason)
		}
		if e.ConflictRate < 0 || e.ConflictRate > 1 {
			return fmt.Errorf("entries[%d]: conflict rate %g outside [0,1]", i, e.ConflictRate)
		}
		if e.Moved != (e.FromRung != e.ToRung) {
			return fmt.Errorf("entries[%d]: moved=%v but rung %d -> %d", i, e.Moved, e.FromRung, e.ToRung)
		}
		if e.Moved {
			moves++
		}
	}
	fmt.Printf("ok: %d audit entries (%d rung moves)\n", len(doc.Entries), moves)
	return nil
}

func main() {
	args := os.Args[1:]
	validate := check
	if len(args) > 0 && args[0] == "-chrome" {
		validate = checkChrome
		args = args[1:]
	}
	if len(args) > 0 && args[0] == "-snapshot" {
		validate = checkSnapshot
		args = args[1:]
	}
	if len(args) > 0 && args[0] == "-flight" {
		validate = checkFlight
		args = args[1:]
	}
	if len(args) > 0 && args[0] == "-percentiles" {
		validate = checkPercentiles
		args = args[1:]
	}
	if len(args) > 0 && args[0] == "-audit" {
		validate = checkAudit
		args = args[1:]
	}
	in := io.Reader(os.Stdin)
	if len(args) > 0 && args[0] != "-" {
		f, err := os.Open(args[0])
		if err != nil {
			fmt.Fprintln(os.Stderr, "tracecheck:", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}
	if err := validate(in); err != nil {
		fmt.Fprintln(os.Stderr, "tracecheck: FAIL:", err)
		os.Exit(1)
	}
}
