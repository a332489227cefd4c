package orchestrator

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/core"
)

// TestTaskArgsWholeShardMatchesShardArgs: a whole-shard task without origin
// must spawn the exact command line the pre-Launcher supervisor did — that
// equality is what keeps plain local supervision byte-identical across the
// Launcher refactor.
func TestTaskArgsWholeShardMatchesShardArgs(t *testing.T) {
	p, err := NewPlan(testSpec(), 2, "d")
	if err != nil {
		t.Fatal(err)
	}
	for _, resume := range []bool{false, true} {
		for i, task := range p.Tasks() {
			got := p.TaskArgs(task, resume)
			want := p.ShardArgs(i, resume)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("TaskArgs(s%d, resume=%v) = %v, want ShardArgs %v", i, resume, got, want)
			}
		}
	}
}

// TestTaskArgsWindowAndOrigin: stolen sub-shards carry their unit window and
// provenance on the command line — bounded windows as -units lo:hi, the
// unbounded tail as -units lo:.
func TestTaskArgsWindowAndOrigin(t *testing.T) {
	p, err := NewPlan(testSpec(), 2, "d")
	if err != nil {
		t.Fatal(err)
	}
	task := &Task{
		Shard:   p.Shards[0],
		Lo:      2,
		Hi:      6,
		Journal: filepath.Join("d", "shard-0-steal-1.jsonl"),
		Label:   "s0.1",
		Origin:  "steal:s0",
	}
	args := strings.Join(p.TaskArgs(task, false), " ")
	for _, want := range []string{"-shard 0/2", "-units 2:6", "-origin steal:s0"} {
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
	sink.Origin = t.Origin
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
// carves its unstarted range into stolen sub-shards with provenance, and the
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

	// The journal set is victim + thieves + the healthy shard; the thieves
	// carry provenance in their headers.
	var thieves []string
	for _, path := range s.finalJournals {
		if strings.Contains(filepath.Base(path), "-steal-") {
			thieves = append(thieves, path)
		}
	}
	if len(thieves) == 0 {
		t.Fatalf("no stolen journals in the final set %v", s.finalJournals)
	}
	for _, path := range thieves {
		pr, err := batch.ScanJournalProgressFile(path)
		if err != nil || len(pr.Origins) == 0 || pr.Origins[0] != "steal:s0" {
			t.Fatalf("stolen journal %s origin = %v (err %v), want steal:s0", path, pr.Origins, err)
		}
	}

	// Acceptance: the merge over the stolen journal set renders the same
	// bytes a single-process sweep does.
	full, err := core.GridRun(context.Background(), p.Spec)
	if err != nil {
		t.Fatal(err)
	}
	var want, got bytes.Buffer
	if err := full.RenderCSV(&want); err != nil {
		t.Fatal(err)
	}
	failed, err := p.MergeReportFrom(context.Background(), s.finalJournals, "csv", false, &got, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if failed != 0 {
		t.Fatalf("%d failed units", failed)
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

// TestSlurmLauncher drives the submit/poll/cancel protocol against stub
// sbatch/squeue/scancel: the job id round-trips from --parsable output to
// scancel, Wait returns when the job leaves the queue, and non-kill signals
// go through scancel -s.
func TestSlurmLauncher(t *testing.T) {
	dir := t.TempDir()
	record := func(name, extra string) []string {
		return stubCommand(t, `printf '%s\n' "$*" > `+shellQuote(filepath.Join(dir, name))+`
`+extra)
	}
	l := &SlurmLauncher{
		Sbatch: record("sbatch.args", `echo "42;cluster"`),
		// First poll: still in the queue. Later polls: gone.
		Squeue: record("squeue.args", `marker=`+shellQuote(filepath.Join(dir, "polled"))+`
if [ ! -f "$marker" ]; then touch "$marker"; echo "42 lb-s0 RUNNING"; fi`),
		Scancel: record("scancel.args", ""),
		Remote:  "lbbench",
		Poll:    10 * time.Millisecond,
	}
	task := &Task{Journal: filepath.Join(dir, "shard-0.jsonl"), Label: "s0"}
	h, err := l.Launch(context.Background(), task, []string{"-shard", "0/2", "-out", task.Journal})
	if err != nil {
		t.Fatal(err)
	}
	sbatch, err := os.ReadFile(filepath.Join(dir, "sbatch.args"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"--job-name lb-s0", "--error " + task.Journal + ".stderr", "lbbench -shard 0/2"} {
		if !strings.Contains(string(sbatch), want) {
			t.Fatalf("sbatch args %q missing %q", sbatch, want)
		}
	}
	if err := l.Signal(h, syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	if b, _ := os.ReadFile(filepath.Join(dir, "scancel.args")); strings.TrimSpace(string(b)) != "-s 2 42" {
		t.Fatalf("scancel args %q, want '-s 2 42'", b)
	}
	if err := l.Signal(h, syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	if b, _ := os.ReadFile(filepath.Join(dir, "scancel.args")); strings.TrimSpace(string(b)) != "42" {
		t.Fatalf("plain-kill scancel args %q, want '42'", b)
	}
	done := make(chan error, 1)
	go func() { done <- l.Wait(h) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Wait: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Wait did not return after the job left the queue")
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
