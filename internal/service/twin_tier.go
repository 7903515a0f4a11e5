// The analytical-twin serving tier: sweep specs whose family has a
// closed-form predictor (internal/twin) are answered synchronously in
// microseconds instead of queueing a simulation. The prediction is
// lowered into the same columnar result schema simulated sweeps could
// use, so /result, views, archiving, and manifests all work unchanged;
// the manifest carries tier="twin" plus the validated error bound
// (internal/twin/validate, docs/TWIN.md) as provenance.
package service

import (
	"bytes"
	"fmt"
	"time"

	"impulse/internal/colres"
	"impulse/internal/twin"
	"impulse/internal/twin/validate"
)

// ResolveTier decides who answers a normalized spec. A tier=twin sweep
// whose family has a twin is answered by the twin (twinAnswers). Any
// other spec is simulated; a twin request for a family without a twin
// comes back with its tier cleared, so it hashes, routes and caches as
// the simulation it runs. Service.Submit and the fleet router both
// decide through it, so a submission lands where its job lives.
func ResolveTier(norm Spec) (resolved Spec, twinAnswers bool) {
	if norm.Tier != TierTwin {
		return norm, false
	}
	if _, ok := twin.Eligible(norm.Family); ok {
		return norm, true
	}
	norm.Tier = ""
	return norm, false
}

// runTwinJob executes an admitted twin-tier job synchronously. The job
// is already registered in-flight, so concurrent identical submissions
// dedup onto it and wait out the microseconds it takes to finish.
func (s *Service) runTwinJob(j *Job) {
	start := time.Now()
	j.mu.Lock()
	j.state = StateRunning
	j.started = start
	j.mu.Unlock()
	j.emit(Event{Type: "state", State: StateRunning})
	j.trace.Phase("queued", j.submitted, start)

	res, err := executeTwin(j.Spec)

	elapsed := time.Since(start)
	s.hTwinLat.Observe(uint64(elapsed.Microseconds()))
	s.hRunDur.With(j.Spec.Kind).Observe(uint64(elapsed.Microseconds()))
	j.trace.Phase("running", start, time.Now())
	if err != nil {
		s.finishJob(j, StateFailed, nil, err.Error())
	} else {
		s.finishJob(j, StateDone, res, "")
	}
	st := j.Status()
	s.logger.Info("twin job finished", "job", j.ID, "family", j.Spec.Family,
		"state", st.State, "run_us", elapsed.Microseconds())
}

// executeTwin computes a twin prediction and renders it like a finished
// sweep result: text output plus the columnar blob the archive stores.
func executeTwin(spec Spec) (*Result, error) {
	pred, err := twin.Predict(spec.Family, spec.Fast)
	if err != nil {
		return nil, err
	}
	doc := pred.Doc()
	var out bytes.Buffer
	if bound, ok := validate.Bound(spec.Family); ok {
		fmt.Fprintf(&out, "tier=twin (analytical; median cycles error bound %.0f%%, see docs/TWIN.md)\n\n", 100*bound)
	}
	if err := colres.RenderText(doc, &out); err != nil {
		return nil, err
	}
	return &Result{
		Output:   out.Bytes(),
		MIME:     "text/plain; charset=utf-8",
		Columnar: colres.Encode(doc),
	}, nil
}
