package telemetry

import (
	"encoding/json"
	"expvar"
	"net/http"
	"sync"
)

// Handler serves the registry over HTTP:
//
//	/metrics                   Prometheus text exposition (counters +
//	                           stage-latency histograms)
//	/debug/telemetry           JSON Snapshot
//	/debug/vars                expvar (includes the "commlat" var once
//	                           PublishExpvar has run; Handler calls it
//	                           for the Default registry)
//	/debug/commlat/flightrec   flight-recorder snapshot (JSON)
//	/debug/commlat/percentiles stage-latency percentile dump (JSON)
//	/debug/commlat/audit       controller decision audit trail (JSON)
//
// cmd/commlat mounts this behind the global -listen flag.
func Handler(r *Registry) http.Handler {
	if r == Default {
		PublishExpvar()
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/telemetry", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(r.Snapshot())
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/commlat/flightrec", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = r.WriteFlightJSON(w)
	})
	mux.HandleFunc("/debug/commlat/percentiles", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = WritePercentilesJSON(w)
	})
	mux.HandleFunc("/debug/commlat/audit", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = WriteAuditJSON(w)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		_, _ = w.Write([]byte(`<html><body><h1>commlat telemetry</h1><ul>
<li><a href="/metrics">/metrics</a> (Prometheus text)</li>
<li><a href="/debug/telemetry">/debug/telemetry</a> (JSON snapshot)</li>
<li><a href="/debug/vars">/debug/vars</a> (expvar)</li>
<li><a href="/debug/commlat/flightrec">/debug/commlat/flightrec</a> (flight-recorder snapshot)</li>
<li><a href="/debug/commlat/percentiles">/debug/commlat/percentiles</a> (stage-latency percentiles)</li>
<li><a href="/debug/commlat/audit">/debug/commlat/audit</a> (controller audit trail)</li>
</ul></body></html>`))
	})
	return mux
}

var expvarOnce sync.Once

// PublishExpvar registers the Default registry's snapshot as the
// expvar "commlat". Safe to call more than once; expvar panics on
// duplicate names, hence the Once.
func PublishExpvar() {
	expvarOnce.Do(func() {
		expvar.Publish("commlat", expvar.Func(func() any {
			return Default.Snapshot()
		}))
	})
}
