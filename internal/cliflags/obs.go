package cliflags

import (
	"flag"
	"fmt"

	"repro/internal/obs"
)

// Obs holds the shared telemetry flag values — one definition presented by
// lbbench and lbserved, so the observability surface (and its help
// text) cannot drift between the CLIs.
type Obs struct {
	// Telemetry is the debug listener address ("" = off).
	Telemetry string
	// TraceOut is the Chrome trace-event output path ("" = no tracing).
	TraceOut string
}

// RegisterObs registers the telemetry flags on fs.
func RegisterObs(fs *flag.FlagSet) *Obs {
	o := &Obs{}
	fs.StringVar(&o.Telemetry, "telemetry", "", "serve /metrics/prom and /debug/pprof/* on this address (e.g. 127.0.0.1:6060; empty = off)")
	fs.StringVar(&o.TraceOut, "trace-out", "", "write a Chrome trace-event file (open in Perfetto) of the run to this path; the raw span event log streams to <path>.events.jsonl during the run")
	return o
}

// Start spins up whatever the parsed flags enabled: the -telemetry debug
// listener and the -trace-out span tracer. The returned tracer is nil when
// tracing is off — the no-op default every instrumented call site accepts.
// stop shuts the listener down, closes the event log and exports the Chrome
// trace file; call it once the run is over (it is always non-nil). logf
// receives one-line status messages and may be nil.
func (o *Obs) Start(logf func(format string, args ...any)) (*obs.Tracer, func() error, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	var stopListener func()
	if o.Telemetry != "" {
		addr, stop, err := obs.ServeDebug(o.Telemetry, obs.Default())
		if err != nil {
			return nil, nil, fmt.Errorf("-telemetry: %w", err)
		}
		stopListener = stop
		logf("telemetry: /metrics/prom and /debug/pprof/ on http://%s", addr)
	}
	var tr *obs.Tracer
	eventsPath := ""
	if o.TraceOut != "" {
		eventsPath = o.TraceOut + ".events.jsonl"
		t, err := obs.CreateTracer(eventsPath)
		if err != nil {
			if stopListener != nil {
				stopListener()
			}
			return nil, nil, fmt.Errorf("-trace-out: %w", err)
		}
		tr = t
	}
	stop := func() error {
		var firstErr error
		if tr != nil {
			if err := tr.Close(); err != nil {
				firstErr = fmt.Errorf("-trace-out: %w", err)
			}
			if err := obs.ExportChromeFile(eventsPath, o.TraceOut); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("-trace-out: %w", err)
			}
			if firstErr == nil {
				logf("trace: %s (load it at https://ui.perfetto.dev)", o.TraceOut)
			}
		}
		if stopListener != nil {
			stopListener()
		}
		return firstErr
	}
	return tr, stop, nil
}

// Profile holds the profile-capture flag values.
type Profile struct {
	CPU, Mem string
}

// RegisterProfile registers -cpuprofile and -memprofile on fs.
func RegisterProfile(fs *flag.FlagSet) *Profile {
	p := &Profile{}
	fs.StringVar(&p.CPU, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&p.Mem, "memprofile", "", "write a heap profile to this file at exit")
	return p
}

// Start begins CPU profiling when enabled; the returned stop (always
// non-nil) ends it and writes the heap profile when enabled.
func (p *Profile) Start() (func() error, error) {
	var stopCPU func()
	if p.CPU != "" {
		s, err := obs.StartCPUProfile(p.CPU)
		if err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		stopCPU = s
	}
	return func() error {
		if stopCPU != nil {
			stopCPU()
		}
		if p.Mem != "" {
			if err := obs.WriteHeapProfile(p.Mem); err != nil {
				return fmt.Errorf("-memprofile: %w", err)
			}
		}
		return nil
	}, nil
}
