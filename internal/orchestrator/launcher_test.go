package orchestrator

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/core"
)

// TestTaskArgsWholeShardMatchesShardArgs: a whole-shard task spawns exactly
// the classic shard command line — grid flags, -shard i/m, -resume only on
// a restart, -out last — with no window flag, so plain local supervision
// and the CI matrix run the same argv.
func TestTaskArgsWholeShardMatchesShardArgs(t *testing.T) {
	p, err := NewPlan(testSpec(), 2, "d")
	if err != nil {
		t.Fatal(err)
	}
	for _, resume := range []bool{false, true} {
		for i, task := range p.Tasks {
			got := p.TaskArgs(task, resume)
			j := filepath.Join("d", fmt.Sprintf("shard-%d.jsonl", i))
			want := append(p.GridArgs(), "-shard", fmt.Sprintf("%d/2", i))
			if resume {
				want = append(want, "-resume", j)
			}
			want = append(want, "-out", j)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("TaskArgs(s%d, resume=%v) = %v, want %v", i, resume, got, want)
			}
		}
	}
}

// TestTaskArgsWindow: stolen sub-shards carry their unit window on the
// command line — bounded windows as -units lo:hi, the unbounded tail as
// -units lo:.
func TestTaskArgsWindow(t *testing.T) {
	p, err := NewPlan(testSpec(), 2, "d")
	if err != nil {
		t.Fatal(err)
	}
	task := &Task{
		Shard:   p.Tasks[0].Shard,
		Lo:      2,
		Hi:      6,
		Journal: filepath.Join("d", "shard-0-steal-1.jsonl"),
		Label:   "s0.1",
	}
	args := strings.Join(p.TaskArgs(task, false), " ")
	for _, want := range []string{"-shard 0/2", "-units 2:6"} {
		if !strings.Contains(args, want) {
			t.Fatalf("args %q missing %q", args, want)
		}
	}
	task.Hi = 0 // the shape every steal's last sub-shard has
	if args := strings.Join(p.TaskArgs(task, false), " "); !strings.Contains(args, "-units 2: ") {
		t.Fatalf("unbounded tail args %q missing '-units 2:'", args)
	}
}

// fakeLauncher runs attempts in-process: each one executes its task's exact
// shard/window slice through the real engine, journaling exactly as a
// spawned lbbench would. Tasks matched by stall write their first owned unit
// and then hang until killed — a deterministic straggler for the steal path.
type fakeLauncher struct {
	spec  batch.Spec
	stall func(t *Task) bool
}

type fakeHandle struct {
	cancel context.CancelFunc
	done   chan error
}

func (l *fakeLauncher) Name() string { return "fake" }
func (l *fakeLauncher) Slots() int   { return 0 }

func (l *fakeLauncher) Launch(ctx context.Context, t *Task, args []string) (Handle, error) {
	ctx, cancel := context.WithCancel(ctx)
	h := &fakeHandle{cancel: cancel, done: make(chan error, 1)}
	go func() { h.done <- l.attempt(ctx, t) }()
	return h, nil
}

func (l *fakeLauncher) attempt(ctx context.Context, t *Task) error {
	spec, err := l.spec.Shard(t.Shard.Index, t.Shard.Count)
	if err != nil {
		return err
	}
	lo, hi := t.Lo, t.Hi
	stall := l.stall != nil && l.stall(t)
	if stall {
		hi = t.Shard.Index + 1 // exactly the shard's first owned unit
	}
	if lo > 0 || hi > 0 {
		if spec, err = spec.Range(lo, hi); err != nil {
			return err
		}
	}
	sink, err := batch.CreateJSONL(t.Journal)
	if err != nil {
		return err
	}
	if _, err := core.GridRun(ctx, spec, core.GridSink(sink)); err != nil {
		sink.Close()
		return err
	}
	if err := sink.Close(); err != nil {
		return err
	}
	if stall {
		<-ctx.Done()
		return ctx.Err()
	}
	return nil
}

func (l *fakeLauncher) Signal(h Handle, sig os.Signal) error {
	h.(*fakeHandle).cancel()
	return nil
}

func (l *fakeLauncher) Wait(h Handle) error        { return <-h.(*fakeHandle).done }
func (l *fakeLauncher) FetchJournal(t *Task) error { return nil }

// TestSupervisorStealsFromStalledTask is the elastic contract end to end in
// process: shard 0 journals one unit and wedges, the supervisor kills it,
// carves its unstarted range into stolen sub-shards, and the
// merged report over victim + thieves + healthy shards is byte-identical to
// an uninterrupted single-process sweep.
func TestSupervisorStealsFromStalledTask(t *testing.T) {
	spec := testSpec()
	p, err := NewPlan(spec, 2, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	s := &Supervisor{
		Plan:      p,
		Launchers: []Launcher{&fakeLauncher{spec: p.Spec, stall: func(t *Task) bool { return t.Label == "s0" }}},
		Policy: Policy{
			MaxRetries: 0,
			Interval:   5 * time.Millisecond,
			StealAfter: 50 * time.Millisecond,
		},
		Log: &log,
	}
	if err := s.Run(context.Background()); err != nil {
		t.Fatalf("Run: %v\nlog:\n%s", err, log.String())
	}
	out := log.String()
	if !strings.Contains(out, "killing it to steal its remaining units") {
		t.Fatalf("steal trigger not reported:\n%s", out)
	}
	if !strings.Contains(out, "reassigned to") || !strings.Contains(out, "stolen sub-shard(s)") {
		t.Fatalf("carve not reported:\n%s", out)
	}
	if !strings.Contains(out, "steals 1") {
		t.Fatalf("steal count missing from the final render:\n%s", out)
	}

	// The journal set is victim + thieves + the healthy shard, and the task
	// summary names the victim and its thieves.
	if !regexp.MustCompile(`task summary:.* s0 restarts=\d+ stolen=[1-9].*, s0\.1 restarts=`).MatchString(out) {
		t.Fatalf("task summary does not show s0 carved into s0.1…:\n%s", out)
	}
	var thieves []string
	for _, path := range s.Journals() {
		if strings.Contains(filepath.Base(path), "-steal-") {
			thieves = append(thieves, path)
		}
	}
	if len(thieves) == 0 {
		t.Fatalf("no stolen journals in the final set %v", s.Journals())
	}

	// Acceptance: the merge over the stolen journal set renders the same
	// bytes a single-process sweep does, with nothing left to re-run.
	full, err := core.GridRun(context.Background(), p.Spec)
	if err != nil {
		t.Fatal(err)
	}
	var want, got bytes.Buffer
	if err := full.RenderCSV(&want); err != nil {
		t.Fatal(err)
	}
	journal, stats, err := batch.ReadMergedJournals(s.Journals()...)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Cells != p.TotalUnits() || stats.Dropped != 0 {
		t.Fatalf("merged %d of %d units (%d lines dropped)", stats.Cells, p.TotalUnits(), stats.Dropped)
	}
	merged, err := core.GridRun(context.Background(), p.Spec, core.GridResume(journal))
	if err != nil {
		t.Fatal(err)
	}
	if merged.Failed() != 0 {
		t.Fatalf("%d failed units", merged.Failed())
	}
	if err := merged.RenderCSV(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("stolen merge differs from single-process sweep:\n--- merged\n%s\n--- full\n%s", got.String(), want.String())
	}
}

// sshStub fakes the ssh client: argv is (host, command) and the stub simply
// runs the command in a local shell — the launcher cannot tell the
// difference, so the full remote protocol (pid files, kill-by-pid, cat
// fetches) is exercised without a network.
func sshStub(t *testing.T) []string {
	t.Helper()
	return stubCommand(t, `shift
exec /bin/sh -c "$1"`)
}

// TestSSHLauncherLaunchWaitFetch: a launch runs the remote command (which
// records its pid and execs the payload), Wait sees its exit, and
// FetchJournal mirrors the remote journal bytes home atomically.
func TestSSHLauncherLaunchWaitFetch(t *testing.T) {
	dir := t.TempDir()
	// The payload stands in for lbbench: write a complete journal at the
	// -out path (its last argument).
	payload := stubCommand(t, lastArg+`
printf '{"spec":{}}\n' > "$j"`)
	l := &SSHLauncher{
		Host:   "fakehost",
		SSH:    sshStub(t),
		Remote: strings.Join(payload, " "),
	}
	if l.Slots() != 1 {
		t.Fatalf("ssh Slots() = %d, want the conservative default 1", l.Slots())
	}
	task := &Task{Journal: filepath.Join(dir, "shard-0.jsonl"), Label: "s0"}
	h, err := l.Launch(context.Background(), task, []string{"-out", task.Journal})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Wait(h); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if _, err := os.Stat(task.Journal + ".pid"); err != nil {
		t.Fatalf("remote pid file not recorded: %v", err)
	}
	want, err := os.ReadFile(task.Journal)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.FetchJournal(task); err != nil {
		t.Fatalf("FetchJournal: %v", err)
	}
	got, err := os.ReadFile(task.Journal)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("fetched journal differs: %q vs %q (err %v)", got, want, err)
	}
	// A journal the remote side has not created yet leaves the local copy
	// alone instead of truncating it.
	missing := &Task{Journal: filepath.Join(dir, "never-started.jsonl"), Label: "s9"}
	if err := l.FetchJournal(missing); err != nil {
		t.Fatalf("FetchJournal(missing): %v", err)
	}
	if _, err := os.Stat(missing.Journal); !os.IsNotExist(err) {
		t.Fatal("fetch of a missing remote journal created a local file")
	}
}

// TestSSHLauncherRemoteDir: with RemoteDir set, the attempt journals (and
// records its pid) under the relocated remote path — the -out operand is
// rewritten — and FetchJournal mirrors those bytes home to the plan's local
// path. This is what keeps ssh-to-localhost (or any shared-filesystem host)
// from fetching a journal over the very file the attempt is appending to.
func TestSSHLauncherRemoteDir(t *testing.T) {
	local := t.TempDir()
	remote := filepath.Join(t.TempDir(), "relocated")
	payload := stubCommand(t, lastArg+`
printf '{"spec":{}}\n' > "$j"`)
	l := &SSHLauncher{
		Host:      "fakehost",
		SSH:       sshStub(t),
		Remote:    strings.Join(payload, " "),
		RemoteDir: remote,
	}
	task := &Task{Journal: filepath.Join(local, "shard-0.jsonl"), Label: "s0"}
	h, err := l.Launch(context.Background(), task, []string{"-out", task.Journal})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Wait(h); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	rj := filepath.Join(remote, "shard-0.jsonl")
	want, err := os.ReadFile(rj)
	if err != nil {
		t.Fatalf("attempt did not journal under RemoteDir: %v", err)
	}
	if _, err := os.Stat(rj + ".pid"); err != nil {
		t.Fatalf("pid file not relocated: %v", err)
	}
	if _, err := os.Stat(task.Journal); !os.IsNotExist(err) {
		t.Fatal("attempt wrote the local journal path directly")
	}
	if err := l.FetchJournal(task); err != nil {
		t.Fatalf("FetchJournal: %v", err)
	}
	got, err := os.ReadFile(task.Journal)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("fetched journal differs: %q vs %q (err %v)", got, want, err)
	}
}

// TestSSHLauncherSignalKillsByRemotePid: the steal path's SIGKILL reaches
// the remote process through the pid file, not the ssh client.
func TestSSHLauncherSignalKillsByRemotePid(t *testing.T) {
	dir := t.TempDir()
	l := &SSHLauncher{Host: "fakehost", SSH: sshStub(t), Remote: "exec sleep 30"}
	task := &Task{Journal: filepath.Join(dir, "shard-0.jsonl"), Label: "s0"}
	h, err := l.Launch(context.Background(), task, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The pid file lands just before the payload execs; wait for it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(task.Journal + ".pid"); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("pid file never appeared")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := l.Signal(h, syscall.SIGKILL); err != nil {
		t.Fatalf("Signal: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- l.Wait(h) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Wait returned nil for a killed attempt")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Wait did not return after the remote kill")
	}
}

func TestShellQuote(t *testing.T) {
	cases := map[string]string{
		"plain":        "plain",
		"a,b,c":        "a,b,c",
		"has space":    "'has space'",
		"d'quote":      `'d'\''quote'`,
		"$HOME/sweeps": "'$HOME/sweeps'",
	}
	for in, want := range cases {
		if got := shellQuote(in); got != want {
			t.Fatalf("shellQuote(%q) = %q, want %q", in, got, want)
		}
	}
}
