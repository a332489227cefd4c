package orchestrator

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/core"
)

// stubCommand writes a /bin/sh script the supervisor can spawn in place of
// lbbench and returns the argv prefix for it. The script sees the exact
// shard flags a real child would.
func stubCommand(t *testing.T, script string) []string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "stub.sh")
	if err := os.WriteFile(path, []byte("#!/bin/sh\n"+script), 0o755); err != nil {
		t.Fatal(err)
	}
	return []string{"/bin/sh", path}
}

// lastArg extracts the journal path (always the final shard flag) inside
// the stub scripts.
const lastArg = `j=""; for a in "$@"; do j="$a"; done`

// TestSupervisorRestartsDeadShardWithResume is the supervision contract: a
// child that dies is relaunched against its own journal, and the relaunch
// carries -resume (the journal exists by then). The stub dies on its first
// attempt — after creating the journal, like a real shard killed mid-run —
// and succeeds only when it sees -resume among its flags.
func TestSupervisorRestartsDeadShardWithResume(t *testing.T) {
	dir := t.TempDir()
	p, err := NewPlan(testSpec(), 2, dir)
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	s := &Supervisor{
		Plan: p,
		Launchers: []Launcher{&LocalLauncher{Command: stubCommand(t, lastArg+`
case "$*" in
  *-resume*) echo '{"spec":{}}' > "$j"; exit 0 ;;
  *) : > "$j"; echo "simulated crash" >&2; exit 7 ;;
esac`)}},
		Policy: Policy{MaxRetries: 3, Interval: 10 * time.Millisecond},
		Log:    &log,
	}
	if err := s.Run(context.Background()); err != nil {
		t.Fatalf("Run: %v\nlog:\n%s", err, log.String())
	}
	out := log.String()
	if !strings.Contains(out, "restarting with -resume (attempt 1/3)") {
		t.Fatalf("restart not reported:\n%s", out)
	}
	// Both shards needed exactly one restart; the stderr files hold the
	// crash output across attempts.
	for _, pt := range p.Tasks {
		b, err := os.ReadFile(pt.Journal + ".stderr")
		if err != nil || !strings.Contains(string(b), "simulated crash") {
			t.Fatalf("shard %d stderr log missing crash output: %v %q", pt.Shard.Index, err, b)
		}
	}
}

// TestSupervisorRetriesAreCapped: a shard that keeps dying fails the run
// loudly after MaxRetries restarts instead of looping forever.
func TestSupervisorRetriesAreCapped(t *testing.T) {
	p, err := NewPlan(testSpec(), 1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	s := &Supervisor{
		Plan:      p,
		Launchers: []Launcher{&LocalLauncher{Command: stubCommand(t, "exit 9")}},
		Policy:    Policy{MaxRetries: 2, Interval: 10 * time.Millisecond},
		Log:       &log,
	}
	err = s.Run(context.Background())
	if err == nil {
		t.Fatalf("Run succeeded despite permanent failure\nlog:\n%s", log.String())
	}
	if !strings.Contains(err.Error(), "task s0 failed after 2 restart(s)") {
		t.Fatalf("error does not name the task and retry count: %v", err)
	}
	if !strings.Contains(log.String(), "FAILED permanently") {
		t.Fatalf("permanent failure not reported loudly:\n%s", log.String())
	}

	// MaxRetries 0 fails fast: the first death is already permanent.
	s.Policy.MaxRetries = 0
	err = s.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "after 0 restart(s)") {
		t.Fatalf("MaxRetries=0 did not fail on the first death: %v", err)
	}
}

// TestSupervisorFirstAttemptResumesExistingJournal: re-running a spawn
// whose orchestrator died resumes the existing journals instead of tripping
// over them (the shard's -out open is O_EXCL).
func TestSupervisorFirstAttemptResumesExistingJournal(t *testing.T) {
	dir := t.TempDir()
	p, err := NewPlan(testSpec(), 1, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p.Tasks[0].Journal, []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := &Supervisor{
		Plan: p,
		// Succeed only when told to resume; a fresh -out against the
		// existing journal would be the O_EXCL failure this test guards
		// against. The journal it leaves behind must be complete — the
		// supervisor judges tasks by what they journaled, not exit codes.
		Launchers: []Launcher{&LocalLauncher{Command: stubCommand(t, lastArg+`
case "$*" in *-resume*) echo '{"spec":{}}' > "$j"; exit 0 ;; *) exit 3 ;; esac`)}},
		Log:    &bytes.Buffer{},
		Policy: Policy{Interval: 10 * time.Millisecond},
	}
	if err := s.Run(context.Background()); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestSupervisorCancellation: cancelling the context interrupts the
// children and surfaces the context error without burning retries.
func TestSupervisorCancellation(t *testing.T) {
	p, err := NewPlan(testSpec(), 2, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var log bytes.Buffer
	s := &Supervisor{
		Plan:      p,
		Launchers: []Launcher{&LocalLauncher{Command: stubCommand(t, "exec sleep 30")}},
		Log:       &log,
		Policy:    Policy{Interval: 10 * time.Millisecond},
	}
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()
	time.Sleep(100 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}
	if !strings.Contains(log.String(), "journals are resumable") {
		t.Fatalf("interruption not reported:\n%s", log.String())
	}
}

// runOf builds a supervise-loop run holding the plan's initial task list,
// the way Run does at startup, without launching anything.
func runOf(p *Plan, t0 time.Time) *run {
	r := &run{s: &Supervisor{Plan: p}, start: t0, total: p.TotalUnits()}
	for _, pt := range p.Tasks {
		r.addTask(pt, 0, t0)
	}
	return r
}

// TestTrackerStallDetection drives the task's journal-tail bookkeeping
// directly: a running task whose journal stops moving is flagged once per
// episode, and movement rearms it. (Done and stolen tasks never reach
// checkStall — the supervisor only polls running ones.)
func TestTrackerStallDetection(t *testing.T) {
	p, err := NewPlan(testSpec(), 2, "d")
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Unix(1000, 0)
	r := runOf(p, t0)
	threshold := 30 * time.Second

	// Task 1 writes, task 0 never does.
	r.tasks[1].observe(scanOf(3), t0.Add(10*time.Second))
	for i := 0; i < 2; i++ {
		if r.tasks[i].checkStall(t0.Add(20*time.Second), threshold) {
			t.Fatalf("task %d stall flagged too early", i)
		}
	}
	if !r.tasks[0].checkStall(t0.Add(31*time.Second), threshold) {
		t.Fatal("task 0 quiet past the threshold was not flagged")
	}
	if r.tasks[1].checkStall(t0.Add(31*time.Second), threshold) {
		t.Fatal("task 1 flagged only 21s after its last write")
	}
	// Task 0's episode is reported once; task 1 (quiet since t0+10s) now
	// crosses the threshold itself.
	if r.tasks[0].checkStall(t0.Add(40*time.Second), threshold) {
		t.Fatal("task 0's stall episode was reported twice")
	}
	if !r.tasks[1].checkStall(t0.Add(40*time.Second), threshold) {
		t.Fatal("task 1 quiet past the threshold was not flagged")
	}
	// Movement rearms: task 0 finally writes, goes quiet again, and is
	// flagged a second time; task 1's episode stays reported.
	r.tasks[0].observe(scanOf(1), t0.Add(45*time.Second))
	if !r.tasks[0].checkStall(t0.Add(80*time.Second), threshold) {
		t.Fatal("task 0 not re-flagged after movement rearmed its episode")
	}
	if r.tasks[1].checkStall(t0.Add(80*time.Second), threshold) {
		t.Fatal("task 1's old episode re-reported")
	}
	// The idle time feeds the steal trigger: task 1 has sat since t0+10s.
	if got := t0.Add(80 * time.Second).Sub(r.tasks[1].lastChange); got != 70*time.Second {
		t.Fatalf("idle for %v, want 70s", got)
	}
	// A failed steal kill rearms the idle clock without claiming progress.
	r.tasks[1].lastChange = t0.Add(80 * time.Second)
	if got := t0.Add(85 * time.Second).Sub(r.tasks[1].lastChange); got != 5*time.Second {
		t.Fatalf("idle after rearm for %v, want 5s", got)
	}
}

// TestTrackerETA: the extrapolation is remaining units at the observed
// per-unit rate.
func TestTrackerETA(t *testing.T) {
	p, err := NewPlan(testSpec(), 2, "d") // 8 units
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Unix(1000, 0)
	r := runOf(p, t0)
	if r.eta(t0.Add(time.Minute)) != 0 {
		t.Fatal("ETA before any progress should be unknown (0)")
	}
	// 2 units in 10s → 6 remaining at 5s/unit = 30s.
	r.tasks[0].observe(scanOf(2), t0.Add(10*time.Second))
	if got := r.eta(t0.Add(10 * time.Second)); got != 30*time.Second {
		t.Fatalf("eta = %v, want 30s", got)
	}
	line := r.render(t0.Add(10 * time.Second))
	for _, want := range []string{"s0 2/", "2/8 units (25%)", "eta 30s"} {
		if !strings.Contains(line, want) {
			t.Fatalf("render %q missing %q", line, want)
		}
	}
}

// TestTrackerSteals: retiring a victim freezes its denominator at what it
// actually journaled, the global total never moves, and the render reports
// the stolen state and the steal count.
func TestTrackerSteals(t *testing.T) {
	p, err := NewPlan(testSpec(), 2, "d") // 8 units, 4 per shard
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Unix(1000, 0)
	r := runOf(p, t0)
	r.tasks[0].observe(scanOf(1), t0.Add(10*time.Second))
	r.tasks[0].state = schedStolen
	thief := r.addTask(&Task{Label: "s0.1", Units: 3}, 1, t0.Add(11*time.Second))
	thief.observe(scanOf(3), t0.Add(20*time.Second))
	thief.state = schedDone
	line := r.render(t0.Add(20 * time.Second))
	for _, want := range []string{"s0 1/1 stolen", "s0.1 3/3 ok", "4/8 units (50%)", "steals 1"} {
		if !strings.Contains(line, want) {
			t.Fatalf("render %q missing %q", line, want)
		}
	}
}

// scanOf fakes a journal scan with n complete cells.
func scanOf(n int) (p batch.JournalProgress) {
	p.Cells = n
	p.LastIndex = n - 1
	return p
}

// TestTrackerSummary: the post-mortem line carries every task's cumulative
// restart and carve counts, including thief tasks added mid-run.
func TestTrackerSummary(t *testing.T) {
	p, err := NewPlan(testSpec(), 2, "d")
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Unix(1000, 0)
	r := runOf(p, t0)
	r.tasks[1].attempt += 2
	r.tasks[0].carved += 2
	r.tasks[0].state = schedStolen
	r.addTask(&Task{Label: "s0.1", Units: 3}, 1, t0)
	got := r.summary()
	want := "task summary: s0 restarts=0 stolen=2, s1 restarts=2 stolen=0, s0.1 restarts=0 stolen=0"
	if got != want {
		t.Fatalf("summary = %q, want %q", got, want)
	}
}

// writePlanJournals runs every shard of the plan through the real engine,
// journaling exactly as the spawned subprocesses would.
func writePlanJournals(t *testing.T, p *Plan) {
	t.Helper()
	for _, pt := range p.Tasks {
		sink, err := batch.CreateJSONL(pt.Journal)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.GridRun(context.Background(), p.Spec, core.GridShard(pt.Shard.Index, pt.Shard.Count), core.GridSink(sink)); err != nil {
			t.Fatal(err)
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSupervisorDoesNotRestartCompleteShard: a child that exits non-zero
// with a COMPLETE journal ran every unit (some just failed) — restarting
// would re-run the same deterministic failures, so the supervisor must hand
// the journal straight to the merge instead. (lbbench exits 1 when the
// figure has holes; that is not a crash.)
func TestSupervisorDoesNotRestartCompleteShard(t *testing.T) {
	p, err := NewPlan(testSpec(), 2, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	writePlanJournals(t, p) // complete journals already on disk
	var log bytes.Buffer
	s := &Supervisor{
		Plan:      p,
		Launchers: []Launcher{&LocalLauncher{Command: stubCommand(t, "exit 1")}}, // "figure has holes" exit
		Policy:    Policy{MaxRetries: 3, Interval: 10 * time.Millisecond},
		Log:       &log,
	}
	if err := s.Run(context.Background()); err != nil {
		t.Fatalf("Run treated a complete shard as a crash: %v\nlog:\n%s", err, log.String())
	}
	if strings.Contains(log.String(), "restarting with -resume") {
		t.Fatalf("complete shard was restarted:\n%s", log.String())
	}
	if !strings.Contains(log.String(), "not restarting") {
		t.Fatalf("complete-journal exit not reported:\n%s", log.String())
	}
}
