package obs

import "time"

// Phase identifies one timed section of a core.Session's life.
type Phase int

const (
	PhaseSpectra   Phase = iota // spectral solve during Open / SwapGraph
	PhaseStep                   // one balancing round's matching + transfer
	PhaseInject                 // mid-round scenario injection
	PhaseCommit                 // potential evaluation (Φ of the committed round)
	PhaseGraphSwap              // topology swap between rounds
	numPhases
)

// String returns the phase name used in span names and trace args.
func (p Phase) String() string {
	switch p {
	case PhaseSpectra:
		return "spectra"
	case PhaseStep:
		return "step"
	case PhaseInject:
		return "inject"
	case PhaseCommit:
		return "commit"
	case PhaseGraphSwap:
		return "graph-swap"
	}
	return "unknown"
}

// Phases accumulates per-phase wall time for one session. It is owned by a
// single unit's goroutine (the batch engine runs each cell on one worker),
// so the adds are plain, not atomic. The nil *Phases is a valid no-op
// receiver: a timed section is t0 := p.Start(); …; p.Stop(phase, t0), and
// with p nil neither call reads the clock, so a disabled run pays nothing.
type Phases struct {
	ns    [numPhases]int64
	count [numPhases]int64
}

// Start returns the time a timed section begins: now, or the zero Time
// without a clock read when p is nil.
func (p *Phases) Start() time.Time {
	if p == nil {
		return time.Time{}
	}
	return time.Now()
}

// Stop adds one occurrence of phase that began at t0 (from Start).
func (p *Phases) Stop(phase Phase, t0 time.Time) {
	if p == nil {
		return
	}
	p.Observe(phase, time.Since(t0))
}

// Observe adds one timed occurrence of phase.
func (p *Phases) Observe(phase Phase, d time.Duration) {
	if p == nil {
		return
	}
	p.ns[phase] += int64(d)
	p.count[phase]++
}

// Duration returns the accumulated wall time in phase.
func (p *Phases) Duration(phase Phase) time.Duration {
	if p == nil {
		return 0
	}
	return time.Duration(p.ns[phase])
}

// Count returns how many times phase was observed.
// Test-only: TestNilTracerNoops, TestPhasesAccumulate, TestSessionPhasesAccounting.
func (p *Phases) Count(phase Phase) int64 {
	if p == nil {
		return 0
	}
	return p.count[phase]
}

// Total returns the sum over all phases.
// Test-only: TestNilTracerNoops, TestPhasesAccumulate, TestSessionPhasesAccounting.
func (p *Phases) Total() time.Duration {
	if p == nil {
		return 0
	}
	var t int64
	for i := Phase(0); i < numPhases; i++ {
		t += p.ns[i]
	}
	return time.Duration(t)
}

// EmitSpans tiles one synthetic child span per non-empty phase inside the
// parent unit span on tid, starting at start (µs on the tracer clock). The
// durations are real measurements; the offsets are synthetic — phases
// interleave across rounds, so the trace shows each phase's total as one
// contiguous block rather than thousands of per-round slivers.
func (p *Phases) EmitSpans(t *Tracer, tid, start int64) {
	if p == nil || t == nil {
		return
	}
	at := start
	for i := Phase(0); i < numPhases; i++ {
		if p.ns[i] == 0 {
			continue
		}
		dur := p.ns[i] / 1000 // ns → µs
		t.CompleteAt(i.String(), "phase", tid, at, dur, map[string]any{"count": p.count[i]})
		if dur < 1 {
			dur = 1
		}
		at += dur
	}
}
