// Run-provenance manifests. Every terminal job gets a Manifest: enough
// recorded context to answer "what exactly produced these bytes" months
// later — the canonical spec and its hash, how the harness was
// configured (workers, fast path), what each grid cell did (executed
// or reused), how long the job queued and ran,
// digests of the result, and the build that produced it. Served at
// GET /v1/jobs/{id}/manifest.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"impulse/internal/harness"
	"impulse/internal/twin/validate"
)

// CellManifest records one grid cell's run.
type CellManifest struct {
	// Key is the cell's reference-stream identity.
	Key string `json:"key"`
	// Mode is "execute" or "reused" (see harness.CellEvent).
	Mode string `json:"mode"`
	// DurationUS is the cell's host wall-clock run in microseconds.
	DurationUS int64 `json:"duration_us"`
	// DecodeUS is always zero: no cell decodes a trace. It remains for
	// readers of earlier manifests (perfbench).
	DecodeUS int64 `json:"decode_us,omitempty"`
}

// BuildInfo identifies the binary that ran the job.
type BuildInfo struct {
	GoVersion   string `json:"go_version"`
	Module      string `json:"module,omitempty"`
	Version     string `json:"version,omitempty"`
	VCSRevision string `json:"vcs_revision,omitempty"`
	VCSTime     string `json:"vcs_time,omitempty"`
	VCSModified bool   `json:"vcs_modified,omitempty"`
}

// Manifest is a finished job's provenance record. Field order is frozen
// (it is the wire format the golden tests pin); append new fields at the
// end of their section rather than reordering.
type Manifest struct {
	JobID string `json:"job_id"`
	State State  `json:"state"`
	Error string `json:"error,omitempty"`

	// The experiment: normalized spec, its canonical encoding, and the
	// hash that keyed single-flight dedup and the result cache.
	Spec      Spec   `json:"spec"`
	Canonical string `json:"canonical"`
	SpecHash  string `json:"spec_hash"`

	// Timing. QueueWaitUS is started-submitted; RunUS is
	// finished-started. Both zero for jobs cancelled while queued.
	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at"`
	FinishedAt  time.Time `json:"finished_at"`
	QueueWaitUS int64     `json:"queue_wait_us"`
	RunUS       int64     `json:"run_us"`

	// Harness configuration the job ran under. Tier is "twin" for jobs
	// answered by the analytical twin (no simulation ran), in which case
	// TwinErrorBound is the family's validated median-cycles error bound
	// (internal/twin/validate, docs/TWIN.md) — the accuracy contract the
	// instant answer comes with.
	Workers        int     `json:"workers"`
	FastPath       bool    `json:"fast_path"`
	Tier           string  `json:"tier,omitempty"`
	TwinErrorBound float64 `json:"twin_error_bound,omitempty"`

	// How each grid cell ran, sorted by start time (ties by key), plus
	// per-mode totals. Empty for kinds that run no grid cells.
	// CellsRecorded and CellsReplayed are always zero: no cell records or
	// replays a trace. They remain for readers of earlier manifests
	// (perfbench).
	CellsRecorded int            `json:"cells_recorded"`
	CellsReplayed int            `json:"cells_replayed"`
	CellsExecuted int            `json:"cells_executed"`
	CellsReused   int            `json:"cells_reused"`
	Cells         []CellManifest `json:"cells,omitempty"`

	// Result identity: SHA-256 digests of the rendered output and the
	// counter dump, so two runs can be compared without shipping bytes.
	// Grid results also record the columnar blob the archive stores —
	// the digest covers the schema-level result, independent of which
	// view a client fetched.
	OutputBytes    int    `json:"output_bytes"`
	ResultDigest   string `json:"result_digest,omitempty"`
	CountersDigest string `json:"counters_digest,omitempty"`
	ColumnarBytes  int    `json:"columnar_bytes,omitempty"`
	ColumnarDigest string `json:"columnar_digest,omitempty"`

	Build BuildInfo `json:"build"`

	// Recovered marks a job restored from the on-disk result store at
	// daemon startup: the result bytes are yesterday's, served without
	// re-execution, and the timing fields all collapse to the original
	// archive time. (Appended after Build — the frozen wire order above
	// predates restart durability.)
	Recovered bool `json:"recovered,omitempty"`
}

// buildManifest assembles j's manifest from its settled terminal fields.
func buildManifest(j *Job) *Manifest {
	j.mu.Lock()
	defer j.mu.Unlock()
	return buildManifestLocked(j)
}

// buildManifestLocked is buildManifest with j.mu held. finalize calls it
// before closing done, so a job that is done always has its manifest.
func buildManifestLocked(j *Job) *Manifest {
	m := &Manifest{
		JobID:       j.ID,
		State:       j.state,
		Error:       j.errMsg,
		Spec:        j.Spec,
		Canonical:   j.Spec.Canonical(),
		SpecHash:    j.Hash,
		SubmittedAt: j.submitted,
		StartedAt:   j.started,
		FinishedAt:  j.finished,
		Workers:     harness.Workers(),
		FastPath:    harness.FastPathEnabled(),
		Build:       buildInfo(),
	}
	if j.tier != "" {
		m.Tier = j.tier
		if b, ok := validate.Bound(j.Spec.Family); ok {
			m.TwinErrorBound = b
		}
	}
	if !j.started.IsZero() {
		m.QueueWaitUS = j.started.Sub(j.submitted).Microseconds()
		if !j.finished.IsZero() {
			m.RunUS = j.finished.Sub(j.started).Microseconds()
		}
	}
	cells := append([]harness.CellEvent(nil), j.cells...)
	sort.Slice(cells, func(a, b int) bool {
		if !cells[a].Start.Equal(cells[b].Start) {
			return cells[a].Start.Before(cells[b].Start)
		}
		return cells[a].Key < cells[b].Key
	})
	for _, c := range cells {
		m.Cells = append(m.Cells, CellManifest{
			Key: c.Key, Mode: c.Mode, DurationUS: c.End.Sub(c.Start).Microseconds(),
		})
		if c.Mode == "reused" {
			m.CellsReused++
		} else {
			m.CellsExecuted++
		}
	}
	if j.result != nil {
		m.OutputBytes = len(j.result.Output)
		m.ResultDigest = digest(j.result.Output)
		m.CountersDigest = digest(j.result.Counters)
		if len(j.result.Columnar) > 0 {
			m.ColumnarBytes = len(j.result.Columnar)
			m.ColumnarDigest = digest(j.result.Columnar)
		}
	}
	return m
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// buildInfo reads the binary's embedded build metadata once.
func buildInfo() BuildInfo {
	bi := BuildInfo{GoVersion: runtime.Version()}
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return bi
	}
	bi.Module = info.Main.Path
	bi.Version = info.Main.Version
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			bi.VCSRevision = s.Value
		case "vcs.time":
			bi.VCSTime = s.Value
		case "vcs.modified":
			bi.VCSModified = s.Value == "true"
		}
	}
	return bi
}
