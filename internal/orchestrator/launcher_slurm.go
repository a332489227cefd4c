package orchestrator

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"
)

// SlurmLauncher submits attempts to a Slurm queue, one job per attempt,
// each running the per-shard lbbench command line, submitted and polled by
// the supervisor, so stalls and steals work on a cluster too. It assumes the
// cluster shares the plan's output directory (the standard Slurm setup), so
// journals appear in place and FetchJournal is a no-op.
type SlurmLauncher struct {
	// Sbatch/Squeue/Scancel are the control argv prefixes; empty means
	// {"sbatch", "--parsable"}, {"squeue", "-h", "-j"}, {"scancel"}.
	// Tests substitute stubs here.
	Sbatch, Squeue, Scancel []string
	// Remote is the lbbench invocation inside the job; empty means
	// "lbbench".
	Remote string
	// Width caps jobs in flight; <= 0 means unbounded — the queue is the
	// scheduler's problem.
	Width int
	// Poll is the squeue cadence Wait watches the job at; <= 0 means 10s.
	Poll time.Duration
}

func (l *SlurmLauncher) sbatch() []string {
	if len(l.Sbatch) > 0 {
		return l.Sbatch
	}
	return []string{"sbatch", "--parsable"}
}

func (l *SlurmLauncher) squeue() []string {
	if len(l.Squeue) > 0 {
		return l.Squeue
	}
	return []string{"squeue", "-h", "-j"}
}

func (l *SlurmLauncher) scancel() []string {
	if len(l.Scancel) > 0 {
		return l.Scancel
	}
	return []string{"scancel"}
}

func (l *SlurmLauncher) remote() string {
	if l.Remote != "" {
		return l.Remote
	}
	return "lbbench"
}

func (l *SlurmLauncher) poll() time.Duration {
	if l.Poll > 0 {
		return l.Poll
	}
	return 10 * time.Second
}

// Name implements Launcher.
func (l *SlurmLauncher) Name() string { return "slurm" }

// Slots implements Launcher.
func (l *SlurmLauncher) Slots() int { return l.Width }

// slurmHandle is the submitted job, identified by the id sbatch printed.
type slurmHandle struct {
	id  string
	ctx context.Context
}

// Launch implements Launcher: sbatch --wrap with the shard's lbbench
// command, stderr routed to the task's .stderr on the shared filesystem.
func (l *SlurmLauncher) Launch(ctx context.Context, t *Task, args []string) (Handle, error) {
	wrap := l.remote() + " " + shellJoin(args)
	argv := append(append([]string(nil), l.sbatch()...),
		"--job-name", "lb-"+t.Label,
		"--output", "/dev/null",
		"--error", stderrPath(t),
		"--wrap", wrap)
	out, err := exec.CommandContext(ctx, argv[0], argv[1:]...).Output()
	if err != nil {
		return nil, fmt.Errorf("orchestrator: sbatch: %w", err)
	}
	// --parsable prints "jobid" or "jobid;cluster".
	id, _, _ := strings.Cut(strings.TrimSpace(string(out)), ";")
	if id == "" {
		return nil, fmt.Errorf("orchestrator: sbatch printed no job id")
	}
	return &slurmHandle{id: id, ctx: ctx}, nil
}

// Signal implements Launcher: scancel, with -s for anything but a plain
// kill. Slurm delivers the signal inside the job, so the steal path's
// SIGKILL reaches even a stopped step.
func (l *SlurmLauncher) Signal(h Handle, sig os.Signal) error {
	sh := h.(*slurmHandle)
	num, ok := sig.(syscall.Signal)
	if !ok {
		return fmt.Errorf("orchestrator: slurm launcher cannot deliver %v", sig)
	}
	argv := append([]string(nil), l.scancel()...)
	if num != syscall.SIGKILL {
		argv = append(argv, "-s", fmt.Sprint(int(num)))
	}
	argv = append(argv, sh.id)
	if out, err := exec.Command(argv[0], argv[1:]...).CombinedOutput(); err != nil {
		return fmt.Errorf("orchestrator: scancel %s: %v: %s", sh.id, err, out)
	}
	return nil
}

// Wait implements Launcher: poll squeue until the job leaves the queue.
// Slurm does not expose the exit status this way, and it does not need to —
// the supervisor judges every attempt by its journal, so a job that died
// mid-sweep shows up as an incomplete journal and is retried like any other
// death.
func (l *SlurmLauncher) Wait(h Handle) error {
	sh := h.(*slurmHandle)
	tick := time.NewTicker(l.poll())
	defer tick.Stop()
	for {
		select {
		case <-sh.ctx.Done():
			return sh.ctx.Err()
		case <-tick.C:
		}
		argv := append(append([]string(nil), l.squeue()...), sh.id)
		out, err := exec.Command(argv[0], argv[1:]...).Output()
		// squeue errors on unknown (completed, aged-out) jobs on some
		// versions and prints nothing on others; both mean "gone".
		if err != nil || strings.TrimSpace(string(out)) == "" {
			return nil
		}
	}
}

// FetchJournal implements Launcher: the shared filesystem already has the
// journal in place.
func (l *SlurmLauncher) FetchJournal(t *Task) error { return nil }
