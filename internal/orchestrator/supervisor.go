package orchestrator

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/batch"
	"repro/internal/obs"
)

// Per-backend fleet counters on the process-wide registry — always on;
// every event here already costs a process spawn or a log line.
func backendCounter(name, help, backend string) *obs.Counter {
	return obs.Default().Counter(name, help, obs.L("backend", backend))
}

func countLaunch(backend string) {
	backendCounter("orchestrator_launches_total", "Task attempts launched, by backend.", backend).Inc()
}
func countRestart(backend string) {
	backendCounter("orchestrator_restarts_total", "Task attempts restarted after a death, by backend.", backend).Inc()
}
func countStall(backend string) {
	backendCounter("orchestrator_stalls_total", "Stall warnings fired, by backend.", backend).Inc()
}
func countSteal(backend string) {
	backendCounter("orchestrator_steals_total", "Steal victims carved, by backend.", backend).Inc()
}

// Supervisor executes a Plan across one or more Launchers — local
// subprocesses (all sharing the inherited environment; point
// LB_SPECCACHE_DIR at a directory first and the children share
// eigensolves) or ssh hosts — supervised until every task's journal is
// complete. A task that dies — crash, OOM kill, SIGKILL, lost host — is
// restarted with -resume against its own journal, up to Policy.MaxRetries
// times, with every restart reported loudly; the journals make restarts
// cheap (only the dead task's missing units re-run). While tasks run, the
// supervisor tails their journals (fetching them home first on remote
// backends) and renders task-aware progress to Log.
//
// With Policy.StealAfter set the supervisor is elastic: a task whose
// journal stops moving for that long, or that dies past its retry cap, has
// its unstarted unit range carved into sub-shards and reassigned to idle
// launchers. Stolen journals carry the same strictly-increasing global unit
// indices the victim would have written, so the final merge — and the
// rendered report — stays byte-identical to an uninterrupted single-process
// sweep.
type Supervisor struct {
	Plan *Plan
	// Launchers are the execution backends, tried in order when scheduling;
	// at least one is required. A lone LocalLauncher runs every task at
	// once — the classic local supervise.
	Launchers []Launcher
	// Policy is the restart/stall/steal policy; the zero value means no
	// restarts, a 1s poll, a 60s stall warning and stealing off.
	Policy Policy
	// Log receives progress lines and supervision events (default
	// os.Stderr). Child stderr goes to per-task files under Plan.Dir, so
	// Log stays readable.
	Log io.Writer
	// Tracer, when non-nil, records the fleet's task lifecycle as spans:
	// one complete span per attempt (launch → exit) on a per-task row and
	// instant events for stalls, steals and restarts. Out-of-band like all
	// telemetry — journals are unaffected. Nil is the no-op default.
	Tracer *obs.Tracer

	// journals is the journal set Run produced (see Journals).
	journals []string
}

// Journals is the journal set the last Run produced — the planned shards
// plus any stolen sub-shards, in task order — ready for the merge.
// Stolen journals carry the same global unit indices the victim would have
// written, so merging them is indistinguishable from merging an
// uninterrupted run's shards.
func (s *Supervisor) Journals() []string { return s.journals }

// schedState is a task's lifecycle inside the supervise loop.
type schedState int

const (
	schedPending schedState = iota // waiting for a launcher slot
	schedRunning
	schedStealing // killed on purpose; waiting for the exit to carve it
	schedDone
	schedFailed
	schedStolen // carved as a steal victim; its remaining units reassigned
)

// task is the supervisor's live view of one schedulable Task: scheduling
// state plus the journal-tail bookkeeping the progress line, the stall
// warning and the steal trigger read.
type task struct {
	*Task
	state     schedState
	attempt   int // restarts consumed
	carved    int // sub-shards stolen out of this task
	gen       int // steal generation: 0 planned, 1 stolen, 2 re-stolen (cap)
	launcher  Launcher
	handle    Handle
	tailer    *batch.JournalTailer
	lastFetch time.Time
	err       error

	progress   batch.JournalProgress // latest journal scan
	lastChange time.Time             // when progress last moved
	stallSeen  bool                  // a stall warning was already printed for this episode

	tid          int64 // trace row (task index + 1; 0 is the merge/root row)
	attemptStart int64 // µs on the tracer clock when the running attempt launched
}

// observe folds the task's latest journal scan. Progress is measured in
// complete cells; a torn tail or a header landing also counts as movement
// (the task is alive and writing, just mid-line).
func (t *task) observe(p batch.JournalProgress, now time.Time) {
	moved := p.Cells != t.progress.Cells ||
		len(p.Specs) != len(t.progress.Specs) ||
		p.Torn != t.progress.Torn
	t.progress = p
	if moved {
		t.lastChange = now
		t.stallSeen = false
	}
}

// checkStall reports whether the task just crossed the stall threshold —
// the never-writes / wedged-child signal. Each stall episode is reported
// once; new movement rearms it.
func (t *task) checkStall(now time.Time, threshold time.Duration) bool {
	if !t.stallSeen && now.Sub(t.lastChange) >= threshold {
		t.stallSeen = true
		return true
	}
	return false
}

// exitEvent is one attempt's Wait result, posted to the supervise loop.
type exitEvent struct {
	t   *task
	err error
}

// run is one Run invocation's mutable state. Everything is owned by the
// single supervise-loop goroutine; attempt Waits run in their own
// goroutines but only communicate through the exits channel.
type run struct {
	s         *Supervisor
	ctx       context.Context
	pol       Policy
	log       io.Writer
	launchers []Launcher
	start     time.Time
	total     int // the plan's unit count: the fixed progress denominator
	tasks     []*task
	used      map[Launcher]int // running attempts per launcher
	stealSeq  map[int]int      // stolen-journal sequence per shard index
	exits     chan exitEvent
	lastLine  string
}

// Run spawns, supervises and waits for every task. It returns nil when the
// sweep's journals are complete and ready to merge (including via steals),
// the context error when cancelled (children are interrupted gracefully so
// their journals stay resumable — re-running the same spawn resumes them),
// and otherwise an error naming every task that exhausted its retries.
func (s *Supervisor) Run(ctx context.Context) error {
	launchers := s.Launchers
	if len(launchers) == 0 {
		return fmt.Errorf("orchestrator: no launchers to spawn shards with")
	}
	log := s.Log
	if log == nil {
		log = os.Stderr
	}
	if s.Plan.Dir != "" {
		if err := os.MkdirAll(s.Plan.Dir, 0o755); err != nil {
			return fmt.Errorf("orchestrator: %w", err)
		}
	}
	r := &run{
		s:         s,
		ctx:       ctx,
		pol:       s.Policy.withDefaults(),
		log:       log,
		launchers: launchers,
		start:     time.Now(),
		total:     s.Plan.TotalUnits(),
		used:      make(map[Launcher]int),
		stealSeq:  make(map[int]int),
		exits:     make(chan exitEvent),
	}
	for _, pt := range s.Plan.Tasks {
		r.addTask(pt, 0, r.start)
	}

	fmt.Fprintf(log, "orchestrator: %d shards x %d units, journals under %s\n",
		len(s.Plan.Tasks), r.total, s.Plan.Dir)
	if len(launchers) > 1 || launchers[0].Name() != "local" {
		names := make([]string, len(launchers))
		for i, l := range launchers {
			names[i] = l.Name()
		}
		r.logf("launchers: %s", strings.Join(names, ", "))
	}

	r.schedule()
	ticker := time.NewTicker(r.pol.Interval)
	defer ticker.Stop()
	ctxDone := ctx.Done()
	for r.active() > 0 {
		select {
		case <-ctxDone:
			ctxDone = nil // handled once; attempts already got their SIGINT
			r.failPending()
		case ev := <-r.exits:
			r.handleExit(ev.t, ev.err)
			if ctx.Err() == nil {
				r.schedule()
			} else {
				r.failPending()
			}
		case <-ticker.C:
			if ctx.Err() == nil {
				// Scheduling re-runs every tick too: tasks re-pended by a
				// synchronous launch failure, and sub-shards carved mid-pass,
				// have no exit event of their own to ride on.
				r.schedule()
				r.poll()
			}
		}
	}

	// Final scan + line so the last render reflects the finished journals
	// even when the ticker never fired between the last cell and exit.
	now := time.Now()
	for _, t := range r.tasks {
		if p, err := t.tailer.Scan(); err == nil {
			t.observe(p, now)
		}
	}
	fmt.Fprintf(log, "orchestrator: %s\n", r.render(now))
	fmt.Fprintf(log, "orchestrator: %s\n", r.summary())
	_ = s.Tracer.Flush()

	s.journals = nil
	for _, t := range r.tasks {
		// A steal victim killed before it created its journal contributes
		// nothing; every other task's journal is part of the merge.
		if journalExists(t.Journal) {
			s.journals = append(s.journals, t.Journal)
		}
	}

	if ctx.Err() != nil {
		r.logf("interrupted — journals are resumable; re-run the same spawn to resume")
		return ctx.Err()
	}
	var errs []error
	for _, t := range r.tasks {
		if t.err != nil {
			errs = append(errs, t.err)
		}
	}
	return errors.Join(errs...)
}

func (r *run) logf(format string, args ...any) {
	fmt.Fprintf(r.log, "orchestrator: "+format+"\n", args...)
}

// addTask appends t to the task list, its journal idle since now.
func (r *run) addTask(t *Task, gen int, now time.Time) *task {
	tt := &task{
		Task:       t,
		gen:        gen,
		tailer:     batch.NewJournalTailer(t.Journal),
		lastChange: now,
		tid:        int64(len(r.tasks)) + 1,
	}
	r.s.Tracer.ThreadName(tt.tid, t.Label)
	r.tasks = append(r.tasks, tt)
	return tt
}

// active counts tasks that still need supervision.
func (r *run) active() int {
	n := 0
	for _, t := range r.tasks {
		switch t.state {
		case schedPending, schedRunning, schedStealing:
			n++
		}
	}
	return n
}

// freeLauncher finds the first launcher with a free slot, in configuration
// order — local first in a mixed fleet, so cheap capacity fills before
// remote round trips.
func (r *run) freeLauncher() Launcher {
	for _, l := range r.launchers {
		if l.Slots() <= 0 || r.used[l] < l.Slots() {
			return l
		}
	}
	return nil
}

// idleSlots is the scheduling headroom a carve may fan into. An unbounded
// launcher reports maxCarve — the carve width cap keeps it honest.
func (r *run) idleSlots() int {
	n := 0
	for _, l := range r.launchers {
		if l.Slots() <= 0 {
			return maxCarve
		}
		if free := l.Slots() - r.used[l]; free > 0 {
			n += free
		}
	}
	return n
}

// schedule launches pending tasks onto free launcher slots. A Launch
// failure is a death like any other — it consumes a retry (or the carve /
// permanent-failure path) through the same handler as a crash.
func (r *run) schedule() {
	for _, t := range r.tasks {
		if t.state != schedPending {
			continue
		}
		l := r.freeLauncher()
		if l == nil {
			return
		}
		resume := journalExists(t.Journal)
		countLaunch(l.Name())
		t.attemptStart = r.s.Tracer.Now()
		h, err := l.Launch(r.ctx, t.Task, r.s.Plan.TaskArgs(t.Task, resume))
		if err != nil {
			t.launcher = l
			r.used[l]++ // handleExit undoes this; keeps its accounting uniform
			r.handleExit(t, fmt.Errorf("launch on %s: %w", l.Name(), err))
			continue
		}
		r.s.Tracer.Instant("launch", "orchestrator", t.tid,
			map[string]any{"task": t.Label, "backend": l.Name(), "attempt": t.attempt, "resume": resume})
		t.state, t.launcher, t.handle = schedRunning, l, h
		t.lastFetch = time.Now()
		r.used[l]++
		go func(t *task, l Launcher, h Handle) {
			r.exits <- exitEvent{t: t, err: l.Wait(h)}
		}(t, l, h)
	}
}

// failPending marks never-launched tasks interrupted once the context is
// gone; running attempts finish through their exit events.
func (r *run) failPending() {
	for _, t := range r.tasks {
		if t.state == schedPending {
			t.state = schedFailed
			t.err = r.ctx.Err()
		}
	}
}

// poll is one progress tick: fetch remote journals home (throttled), fold
// the tails, fire stall warnings, trigger steals, render.
func (r *run) poll() {
	now := time.Now()
	for _, t := range r.tasks {
		if t.state != schedRunning && t.state != schedStealing {
			continue
		}
		if now.Sub(t.lastFetch) >= fetchInterval {
			t.lastFetch = now
			if err := t.launcher.FetchJournal(t.Task); err != nil {
				r.logf("task %s: %v", t.Label, err)
			}
		}
		if p, err := t.tailer.Scan(); err == nil {
			t.observe(p, now)
		}
	}
	for _, t := range r.tasks {
		if t.state != schedRunning {
			continue
		}
		if r.pol.StealAfter > 0 && t.gen < maxGen && now.Sub(t.lastChange) >= r.pol.StealAfter {
			r.logf("task %s stalled for %s — killing it to steal its remaining units", t.Label, r.pol.StealAfter)
			r.s.Tracer.Instant("steal-kill", "orchestrator", t.tid, map[string]any{"task": t.Label})
			if err := t.launcher.Signal(t.handle, syscall.SIGKILL); err != nil {
				r.logf("task %s: kill: %v", t.Label, err)
				t.lastChange = now // rearm instead of hammering every tick
				continue
			}
			t.state = schedStealing
			continue
		}
		if t.checkStall(now, stallWarnAfter) {
			countStall(t.launcher.Name())
			r.s.Tracer.Instant("stall", "orchestrator", t.tid, map[string]any{"task": t.Label})
			r.logf("task %s looks stalled: journal %s unchanged for %s", t.Label, t.Journal, stallWarnAfter)
		}
	}
	if line := r.render(now); line != r.lastLine {
		r.lastLine = line
		fmt.Fprintf(r.log, "orchestrator: %s\n", line)
	}
}

// done counts cells journaled across all tasks. Steal windows are disjoint
// (a thief starts past the last cell its victim journaled), so the sum
// never double-counts a unit.
func (r *run) done() int {
	n := 0
	for _, t := range r.tasks {
		n += t.progress.Cells
	}
	return n
}

// eta extrapolates the remaining wall time from the completion rate
// observed so far (zero until the first cell lands; zero again when
// everything is done).
func (r *run) eta(now time.Time) time.Duration {
	done := r.done()
	elapsed := now.Sub(r.start)
	if done <= 0 || elapsed <= 0 || done >= r.total {
		return 0
	}
	return time.Duration(r.total-done) * (elapsed / time.Duration(done))
}

// render is the one-line progress display: per-task done/total with
// restart and state markers, the global fold over the plan's fixed unit
// total (so the percentage never moves backwards when work is reassigned),
// the steal count, and the ETA.
func (r *run) render(now time.Time) string {
	var b strings.Builder
	steals := 0
	for i, t := range r.tasks {
		if i > 0 {
			b.WriteString("  ")
		}
		units := t.Units
		if t.state == schedStolen {
			units = t.progress.Cells
		}
		fmt.Fprintf(&b, "%s %d/%d", t.Label, t.progress.Cells, units)
		if t.attempt > 0 {
			fmt.Fprintf(&b, " (r%d)", t.attempt)
		}
		switch t.state {
		case schedFailed:
			b.WriteString(" FAILED")
		case schedDone:
			b.WriteString(" ok")
		case schedStolen:
			b.WriteString(" stolen")
			steals++
		}
	}
	done := r.done()
	pct := 0
	if r.total > 0 {
		pct = 100 * done / r.total
	}
	fmt.Fprintf(&b, " | %d/%d units (%d%%)", done, r.total, pct)
	if steals > 0 {
		fmt.Fprintf(&b, " steals %d", steals)
	}
	if eta := r.eta(now); eta > 0 {
		fmt.Fprintf(&b, " eta %s", eta.Round(time.Second))
	}
	return b.String()
}

// summary is the post-mortem line printed once after the supervise loop:
// every task with its cumulative restart and steal counts, so "which shard
// was restarted, which was carved, and how often" is answered by the log.
func (r *run) summary() string {
	var b strings.Builder
	b.WriteString("task summary:")
	for i, t := range r.tasks {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, " %s restarts=%d stolen=%d", t.Label, t.attempt, t.carved)
	}
	return b.String()
}

// handleExit settles one attempt: fetch the journal one last time, judge
// the task by what it actually journaled, and decide done / restart /
// carve / permanent failure.
func (r *run) handleExit(t *task, waitErr error) {
	r.used[t.launcher]--
	t.handle = nil
	if err := t.launcher.FetchJournal(t.Task); err != nil {
		r.logf("task %s: %v", t.Label, err)
	}
	p, _ := t.tailer.Scan()
	t.observe(p, time.Now())
	if r.s.Tracer.Enabled() {
		status := "ok"
		if waitErr != nil {
			status = waitErr.Error()
		}
		r.s.Tracer.Complete("attempt", "orchestrator", t.tid, t.attemptStart, map[string]any{
			"task": t.Label, "backend": t.launcher.Name(), "attempt": t.attempt,
			"cells": p.Cells, "status": status,
		})
	}

	if t.state == schedStealing && r.ctx.Err() == nil {
		// The kill was ours; the exit finalizes the steal. The victim's
		// journal keeps its prefix of cells — the merge uses it — and the
		// thieves own everything past its last complete cell.
		k := r.carve(t, p)
		r.steal(t, k)
		if k > 0 {
			r.logf("task %s killed at %d/%d units — remaining units reassigned to %d stolen sub-shard(s)",
				t.Label, p.Cells, t.Units, k)
		} else {
			// Its journal finished between the stall verdict and the kill.
			r.logf("task %s killed at %d/%d units — nothing left to steal", t.Label, p.Cells, t.Units)
		}
		return
	}

	done := p.Done()
	if waitErr == nil && done {
		t.state = schedDone
		return
	}
	if waitErr != nil && done {
		// A non-zero exit with a COMPLETE journal is not a crash: the child
		// ran every unit and some failed (lbbench exits 1 for a figure with
		// holes). Restarting would re-run the same deterministic failures;
		// instead hand the journal to the merge, which reports the failed
		// units exactly as a single-process sweep would.
		t.state = schedDone
		r.logf("task %s exited non-zero (%v) but its journal is complete (%d unit(s) failed) — not restarting; the merge will report them",
			t.Label, waitErr, p.Failed)
		return
	}
	if waitErr == nil {
		// A clean exit that left the journal short — a child killed in a way
		// its launcher cannot see. The journal is the ground truth; treat it
		// as a death.
		waitErr = fmt.Errorf("exited with an incomplete journal (%d/%d units)", p.Cells, t.Units)
	}
	if r.ctx.Err() != nil {
		t.state = schedFailed
		t.err = r.ctx.Err()
		r.logf("task %s interrupted", t.Label)
		return
	}
	if t.attempt >= r.pol.MaxRetries {
		if r.pol.StealAfter > 0 && t.gen < maxGen {
			// Past the retry cap the task's launcher (or host) is presumed
			// bad; reassigning the remaining range elsewhere is the elastic
			// alternative to failing the sweep.
			if k := r.carve(t, p); k > 0 {
				r.steal(t, k)
				r.logf("task %s died past its retry cap (%v) at %d/%d units — remaining units reassigned to %d stolen sub-shard(s)",
					t.Label, waitErr, p.Cells, t.Units, k)
				return
			}
		}
		t.state = schedFailed
		t.err = fmt.Errorf("orchestrator: task %s failed after %d restart(s): %w", t.Label, t.attempt, waitErr)
		r.logf("task %s FAILED permanently after %d restart(s): %v — journal %s holds %d/%d units; see %s",
			t.Label, t.attempt, waitErr, t.Journal, p.Cells, t.Units, stderrPath(t.Task))
		return
	}
	t.attempt++
	t.state = schedPending
	countRestart(t.launcher.Name())
	r.s.Tracer.Instant("restart", "orchestrator", t.tid, map[string]any{"task": t.Label, "attempt": t.attempt})
	r.logf("task %s died (%v) with %d/%d units journaled — restarting with -resume (attempt %d/%d)",
		t.Label, waitErr, p.Cells, t.Units, t.attempt, r.pol.MaxRetries)
}

// steal retires victim t once carve minted k sub-shards from it (k may be
// zero when its journal finished first): whatever it journaled stays
// counted, and its progress denominator shrinks to exactly that — the rest
// now belongs to the thieves.
func (r *run) steal(t *task, k int) {
	t.state = schedStolen
	t.carved += k
	countSteal(t.launcher.Name())
	r.s.Tracer.Instant("steal", "orchestrator", t.tid, map[string]any{"task": t.Label, "sub_shards": k})
}

const (
	// maxGen caps steal generations: a planned shard (gen 0) can be carved,
	// and a stolen sub-shard (gen 1) once more, but gen-2 tasks fail like a
	// classic shard — unbounded re-carving would let one poisoned unit
	// shatter the sweep into confetti.
	maxGen = 2
	// maxCarve caps how many sub-shards one steal mints: enough to fan a
	// straggler's tail across a few idle slots, few enough that the journal
	// set stays readable.
	maxCarve = 4
)

// carve splits task v's unstarted unit range into up to maxCarve contiguous
// sub-windows sized to the idle launcher capacity and enqueues them as
// fresh tasks (fresh retry budget). Journals are contiguous prefixes of a task's owned units, so
// everything past the last journaled cell is exactly the work nobody has
// done: the carved windows and the victim's journal tile v's range with no
// gap and no overlap, which is what keeps the final merge byte-identical.
// Returns how many sub-tasks were minted — zero when v had nothing left.
func (r *run) carve(v *task, p batch.JournalProgress) int {
	split := v.Lo
	if p.Cells > 0 {
		split = p.LastIndex + 1
	}
	m, idx := v.Shard.Count, v.Shard.Index
	if m <= 0 {
		m, idx = 1, 0
	}
	// First owned unit at or after split, stepping the shard's residue
	// class; then how many of them remain below the window's end.
	first := split + ((idx-split)%m+m)%m
	hi := v.Hi
	if hi == 0 || hi > r.total {
		hi = r.total
	}
	if first >= hi {
		return 0
	}
	remaining := (hi-first-1)/m + 1
	k := 1 + r.idleSlots()
	if k > remaining {
		k = remaining
	}
	if k > maxCarve {
		k = maxCarve
	}
	start := 0 // offset in owned units
	for c := 0; c < k; c++ {
		cnt := remaining / k
		if c < remaining%k {
			cnt++
		}
		lo := first + start*m
		winHi := first + (start+cnt)*m
		if c == k-1 {
			winHi = v.Hi // inherit the victim's bound — usually 0, unbounded
		}
		r.stealSeq[idx]++
		seq := r.stealSeq[idx]
		r.addTask(&Task{
			Shard:   v.Shard,
			Lo:      lo,
			Hi:      winHi,
			Journal: filepath.Join(r.s.Plan.Dir, fmt.Sprintf("shard-%d-steal-%d.jsonl", idx, seq)),
			Units:   cnt,
			Label:   fmt.Sprintf("%s.%d", v.Label, seq),
		}, v.gen+1, time.Now())
		start += cnt
	}
	return k
}

func journalExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
