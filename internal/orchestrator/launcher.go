package orchestrator

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"syscall"
	"time"
)

// Task is one schedulable slice of a sweep: a shard, optionally narrowed to
// a unit window by a steal, with the local journal path its cells land in.
// The supervisor starts with one task per planned shard and mints new ones
// when it carves a straggler.
type Task struct {
	// Shard names the slice (units with expansion index ≡ Index mod Count).
	Shard Shard
	// Lo/Hi narrow the task to the half-open expansion window [Lo, Hi);
	// both zero means the whole shard. Hi == 0 with Lo > 0 is the
	// unbounded tail — the shape every steal produces.
	Lo, Hi int
	// Journal is the task's JSONL journal path on the supervisor's
	// filesystem. Remote backends write to the same path on their side and
	// FetchJournal mirrors it home.
	Journal string
	// Units is how many units the task owns — its progress denominator.
	Units int
	// Label is the display name ("s1" for a planned shard, "s1.2" for the
	// second sub-shard stolen from it).
	Label string
}

// Handle identifies one running attempt to the Launcher that started it.
// It is opaque to the supervisor: obtained from Launch, passed back to
// Signal and Wait, never inspected.
type Handle any

// Launcher is one execution backend for shard attempts — local
// subprocesses or ssh to a remote host. The supervisor
// schedules tasks onto launchers up to their slot capacity, waits for
// attempts in their own goroutines, and periodically fetches journals home
// so the one journal-tail progress protocol drives every backend.
//
// Launch/Wait come in pairs per attempt; Signal may fire at any point
// between them (the steal path sends os.Kill — it must terminate even a
// stopped process). FetchJournal makes the task's journal bytes readable at
// Task.Journal on the supervisor's filesystem; backends that already write
// there locally make it a no-op. A fetch may race the remote writer — the
// result is a prefix with at most a torn tail, exactly what the journal
// scanners tolerate.
type Launcher interface {
	// Name identifies the backend instance in logs ("local", "ssh:host1").
	Name() string
	// Slots is how many attempts this launcher runs concurrently; <= 0
	// means unbounded.
	Slots() int
	// Launch starts one attempt of t with the given lbbench argument list
	// (grid + shard + window + journal flags; the launcher prepends its own
	// binary/transport). The attempt's stderr accumulates at
	// t.Journal+".stderr" on the supervisor's filesystem.
	Launch(ctx context.Context, t *Task, args []string) (Handle, error)
	// Signal delivers sig to a running attempt.
	Signal(h Handle, sig os.Signal) error
	// Wait blocks until the attempt exits; nil means a clean exit.
	Wait(h Handle) error
	// FetchJournal mirrors t's journal to t.Journal locally.
	FetchJournal(t *Task) error
}

// stderrPath is where a task's stderr accumulates across attempts.
func stderrPath(t *Task) string { return t.Journal + ".stderr" }

// LocalLauncher runs attempts as local subprocesses, all at once (its
// slots are unbounded): stdout discarded (the journal is the product),
// stderr appended to the task's .stderr file, cancellation delivered as
// SIGINT (the graceful path that journals the cancellation and fsyncs)
// escalating to SIGKILL after WaitDelay.
type LocalLauncher struct {
	// Command is the argv prefix spawning one attempt when the task's
	// flags are appended — typically the lbbench binary. Required.
	Command []string
}

// Name implements Launcher.
func (l *LocalLauncher) Name() string { return "local" }

// Slots implements Launcher: unbounded.
func (l *LocalLauncher) Slots() int { return 0 }

// Launch implements Launcher.
func (l *LocalLauncher) Launch(ctx context.Context, t *Task, args []string) (Handle, error) {
	if len(l.Command) == 0 {
		return nil, fmt.Errorf("orchestrator: local launcher has no command")
	}
	argv := append(l.Command[1:len(l.Command):len(l.Command)], args...)
	cmd := exec.CommandContext(ctx, l.Command[0], argv...)
	// nil stdout, file stderr: no pipes, so Wait returns the moment the
	// child is reaped instead of lingering on descriptors a grandchild
	// might hold.
	cmd.Stdout = nil
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGINT) }
	cmd.WaitDelay = 30 * time.Second
	stderr, err := os.OpenFile(stderrPath(t), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("orchestrator: %w", err)
	}
	cmd.Stderr = stderr
	if err := cmd.Start(); err != nil {
		stderr.Close()
		return nil, fmt.Errorf("orchestrator: %w", err)
	}
	// The child holds its own copy of the descriptor; closing ours keeps
	// the attempt from pinning open files across a long sweep.
	stderr.Close()
	return cmd, nil
}

// Signal implements Launcher.
func (l *LocalLauncher) Signal(h Handle, sig os.Signal) error {
	cmd := h.(*exec.Cmd)
	if cmd.Process == nil {
		return fmt.Errorf("orchestrator: attempt not started")
	}
	return cmd.Process.Signal(sig)
}

// Wait implements Launcher.
func (l *LocalLauncher) Wait(h Handle) error { return h.(*exec.Cmd).Wait() }

// FetchJournal implements Launcher: local attempts already journal at
// Task.Journal.
func (l *LocalLauncher) FetchJournal(t *Task) error { return nil }
