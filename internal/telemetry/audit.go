// Controller audit trail: a small always-on ring of adaptive-controller
// decisions, so a ladder move is explainable after the fact. Each entry
// records the window observation that triggered the evaluation (the
// conflict rate), the hysteresis thresholds in force, which side of the dead band the rate
// landed on, and the rung chosen — including "hold" evaluations, since
// the absence of a move under a suspicious rate is exactly what an
// operator wants to audit.
//
// Controllers decide at most once per observation window (hundreds of
// admissions), so the ring is always enabled: one mutex acquisition per
// window evaluation is noise, and entries reference only static strings
// (controller names, reasons), so recording never allocates.
package telemetry

import (
	"sync"
	"time"
)

// Audit reasons — which side of the hysteresis dead band the observed
// rate landed on, and what the controller did about it.
const (
	AuditClimb   = "climb"   // rate below lo: moved to a more aggressive rung
	AuditBackoff = "backoff" // rate above hi: retreated to a safer rung
	AuditHold    = "hold"    // rate inside the dead band: stayed put
	AuditPinned  = "pinned"  // would move but already at the ladder's end
)

// AuditEntry is one controller window evaluation. FromRung/ToRung are
// rung *values* (batch size or ladder rung index) rather
// than positions, so the trail reads without the ladder at hand.
type AuditEntry struct {
	TS           int64   `json:"ts_ns"`
	Controller   string  `json:"controller"`
	Det          uint16  `json:"detector_id,omitempty"`
	Window       int     `json:"window"`
	ConflictRate float64 `json:"conflict_rate"`
	Lo           float64 `json:"lo"`
	Hi           float64 `json:"hi"`
	FromRung     int     `json:"from_rung"`
	ToRung       int     `json:"to_rung"`
	Moved        bool    `json:"moved"`
	Reason       string  `json:"reason"`
}

// auditCap bounds the trail. A controller evaluates once per window
// (256–512 admissions), so 1024 entries cover hundreds of thousands of
// admissions of history.
const auditCap = 1024

var (
	auditMu  sync.Mutex
	auditBuf [auditCap]AuditEntry
	auditPos uint64
)

// RecordAudit appends one evaluation to the trail, stamping its clock.
// The ring overwrites oldest-first; like the flight rings there is no
// per-entry reclamation.
func RecordAudit(e AuditEntry) {
	e.TS = int64(time.Since(latBase))
	auditMu.Lock()
	auditBuf[auditPos%auditCap] = e
	auditPos++
	auditMu.Unlock()
}

// AuditTrail returns a copy of the buffered evaluations, oldest first.
func AuditTrail() []AuditEntry {
	auditMu.Lock()
	defer auditMu.Unlock()
	n := auditPos
	lo := uint64(0)
	if n > auditCap {
		lo = n - auditCap
	}
	out := make([]AuditEntry, 0, n-lo)
	for p := lo; p < n; p++ {
		out = append(out, auditBuf[p%auditCap])
	}
	return out
}

// ResetAudit clears the trail (tests and fresh CLI runs).
func ResetAudit() {
	auditMu.Lock()
	auditPos = 0
	auditMu.Unlock()
}
